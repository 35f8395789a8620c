import numpy as np
import pytest

from cmvkit.alflows import (
    FlowHamiltonian,
    al_closed_form_field,
    al_vector_field,
    asymptotic_report,
    exact_propagate,
    flow_via_spectral,
    gauge_transform,
    integrate_flow,
    lax_partner,
    plus_projection,
    predicted_asymptotics,
    schur_vector_field,
    spectral_trajectory,
    toda_vector_field,
    trace_hamiltonian,
)
from cmvkit.core import SpectralMeasureCircle, VerblunskySet, build_cmv, build_jacobi
from cmvkit.ensembles import RngStream, random_verblunsky
from cmvkit.errors import InvalidParams, NonDistinctLambda, RhoTooSmall
from cmvkit.opuc import ANGLE_BLOCK, gap_rotation, unitary_eigensystem, verblunsky_from_measure

import oracles
from oracles import eigvals_angles, fit_hamiltonian_with_rates, rk4_trajectory


class TestTraceHamiltonian:
    def test_zero_coefficients(self):
        v = VerblunskySet([0.0, 0.0, 0.0, 1.0])
        assert abs(trace_hamiltonian(build_cmv(v), 1)) < 1e-15

    def test_scalar_case(self):
        psi = 0.9
        c = build_cmv(VerblunskySet([np.exp(1j * psi)]))
        for m in (1, 2, 3):
            assert abs(trace_hamiltonian(c, m) - np.exp(-1j * m * psi) / m) < 1e-15

    def test_free_two_site_square(self):
        c = build_cmv(VerblunskySet([0.0, 1.0]))
        assert abs(trace_hamiltonian(c, 2) - 1.0) < 1e-15


class TestFlowHamiltonian:
    def test_growth_rate_of_re_k1(self):
        ham = FlowHamiltonian.trace_power(1, "re")  # f(z) = i z
        th = np.linspace(-3, 3, 7)
        assert np.abs(ham.growth_rate(th) + 2.0 * np.sin(th)).max() < 1e-14

    def test_growth_rate_of_im_k1(self):
        ham = FlowHamiltonian.trace_power(1, "im")  # f(z) = z
        th = np.linspace(-3, 3, 7)
        assert np.abs(ham.growth_rate(th) - 2.0 * np.cos(th)).max() < 1e-14

    def test_value_matches_trace_power(self):
        rng = RngStream(0).generator()
        v = random_verblunsky(5, rng)
        c = build_cmv(v)
        for m in (1, 2, 3):
            assert abs(FlowHamiltonian.trace_power(m, "re").value(c) - trace_hamiltonian(c, m).real) < 1e-13
            assert abs(FlowHamiltonian.trace_power(m, "im").value(c) - trace_hamiltonian(c, m).imag) < 1e-13

    def test_empty_rejected(self):
        with pytest.raises(InvalidParams):
            FlowHamiltonian([])
        with pytest.raises(InvalidParams):
            FlowHamiltonian([0.0, 0.0])


class TestPlusProjection:
    def test_identity(self):
        assert np.array_equal(plus_projection(np.eye(3)), 0.5 * np.eye(3))

    def test_strictly_lower_killed(self):
        a = np.tril(np.ones((4, 4)), -1)
        assert np.abs(plus_projection(a)).max() == 0.0

    def test_hand_example(self):
        assert np.array_equal(
            plus_projection(np.array([[2.0, 4.0], [6.0, 8.0]])),
            np.array([[1.0, 4.0], [0.0, 4.0]]),
        )


class TestLaxPartner:
    @pytest.mark.parametrize("m,part", [(1, "re"), (1, "im"), (2, "re"), (3, "im")])
    def test_anti_hermitian(self, m, part):
        v = random_verblunsky(5, RngStream(1))
        p = lax_partner(build_cmv(v), m, part)
        assert np.abs(p + p.conj().T).max() <= 1e-13

    def test_scalar_flow_is_frozen(self):
        v = VerblunskySet([np.exp(0.4j)])
        c = build_cmv(v)
        p = lax_partner(c, 1, "re")
        comm = c.entries @ p - p @ c.entries
        assert np.abs(comm).max() < 1e-16
        assert al_vector_field(v, 1, "re").size == 0


class TestVectorFields:
    def test_extraction_matches_closed_form(self):
        gen = RngStream(2).generator()
        for _ in range(10):
            v = random_verblunsky(6, gen, radius=0.8)
            lax = al_vector_field(v, 1, "re")
            closed = al_closed_form_field(v, left_boundary=-1.0)
            assert np.abs(lax - closed).max() <= 1e-12

    def test_default_boundary_is_configurable(self):
        v = random_verblunsky(4, RngStream(3))
        default = al_closed_form_field(v)
        shifted = al_closed_form_field(v, left_boundary=1j)
        assert abs(default[0] - shifted[0]) > 0.0
        assert np.abs(default[1:] - shifted[1:]).max() == 0.0

    def test_im_flow_preserves_reality(self):
        v = VerblunskySet(np.array([0.3, -0.1, 0.4, -1.0], dtype=complex))
        field = al_vector_field(v, 1, "im")
        assert np.abs(field.imag).max() <= 1e-14

    def test_schur_equals_negated_im_flow(self):
        v = VerblunskySet(np.array([0.25, -0.45, 0.1, 1.0], dtype=complex))
        lattice = al_vector_field(v, 1, "im")
        schur = schur_vector_field(v.interior.real, left=-1.0, right=v.alpha[-1].real)
        assert np.abs(-lattice.real - schur).max() <= 1e-13

    def test_schur_zero_data(self):
        field = schur_vector_field(np.zeros(4), left=-1.0, right=-1.0)
        assert np.array_equal(field, [1.0, 0.0, 0.0, -1.0])

    def test_schur_constant_with_matching_boundaries(self):
        field = schur_vector_field(np.full(5, 0.3), left=0.3, right=0.3)
        assert np.abs(field).max() == 0.0

    def test_schur_out_of_range(self):
        with pytest.raises(Exception):
            schur_vector_field([1.5])

    def test_rho_guard(self):
        # modulus above the flow ceiling 1 - 1e-8 stops the integrator
        v = VerblunskySet([1.0 - 1e-9, 1.0])
        with pytest.raises(RhoTooSmall):
            integrate_flow(v, 1, "re", 0.1, 1e-2)


class TestToda:
    def test_diagonal_is_fixed(self):
        # off-diagonal cannot be exactly zero, so check the field scales out
        j = build_jacobi([1.0, -2.0, 0.5], [1e-12, 1e-12])
        assert np.abs(toda_vector_field(j)).max() < 1e-10

    def test_two_site_example(self):
        j = build_jacobi([0.0, 0.0], [1.0])
        dj = toda_vector_field(j)
        assert np.abs(dj - np.diag([2.0, -2.0])).max() < 1e-15

    def test_flaschka_form(self):
        rng = RngStream(4).generator()
        b = rng.normal(size=5)
        a = rng.uniform(0.3, 1.2, 4)
        j = build_jacobi(b, a)
        dj = toda_vector_field(j)
        a_ext = np.concatenate([[0.0], a, [0.0]])
        db = 2.0 * (a_ext[1:] ** 2 - a_ext[:-1] ** 2)
        da = a * (b[1:] - b[:-1])
        assert np.abs(np.diag(dj) - db).max() < 1e-12
        assert np.abs(np.diag(dj, 1) - da).max() < 1e-12
        assert np.abs(dj - dj.T).max() == 0.0

    def test_isospectral_integration(self):
        j = build_jacobi([0.4, -0.3, 0.1, 0.6], [0.8, 0.5, 1.1])
        lam0 = np.sort(np.linalg.eigvalsh(j.to_dense()))
        b = j.b.copy()
        a = j.a.copy()
        dt = 1e-3
        for _ in range(1000):
            def field(bb, aa):
                dj = toda_vector_field(build_jacobi(bb, aa))
                return np.diag(dj).copy(), np.diag(dj, 1).copy()

            k1 = field(b, a)
            k2 = field(b + 0.5 * dt * k1[0], a + 0.5 * dt * k1[1])
            k3 = field(b + 0.5 * dt * k2[0], a + 0.5 * dt * k2[1])
            k4 = field(b + dt * k3[0], a + dt * k3[1])
            b = b + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            a = a + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        lam1 = np.sort(np.linalg.eigvalsh(build_jacobi(b, a).to_dense()))
        assert np.abs(lam1 - lam0).max() <= 1e-10


def assert_same_trajectory(a, oracle):
    # the package takes eigenvalue angles from its Cayley kernel, the
    # oracle from eigvals; everything else must match bit for bit
    assert np.array_equal(a.times, oracle.times)
    assert np.array_equal(a.alpha_matrix(), oracle.alpha_matrix())
    assert np.abs(a.eig_drift - oracle.eig_drift).max() <= 1e-13
    assert np.array_equal(a.unitarity, oracle.unitarity)


def count_eigensolves(monkeypatch):
    calls = []

    def counted(C):
        calls.append(C)
        return unitary_eigensystem(C)

    monkeypatch.setattr("cmvkit.alflows.unitary_eigensystem", counted)
    return calls


class TestIntegrateFlow:
    @pytest.mark.parametrize("n, m, part, t_final", [(6, 1, "re", 0.05), (6, 2, "im", 0.05), (64, 1, "im", 0.004)])
    def test_bit_identical_to_plain_rk4(self, n, m, part, t_final):
        v = random_verblunsky(n, RngStream(n + m), radius=0.6)
        traj = integrate_flow(v, m, part, t_final, 1e-3)
        assert_same_trajectory(traj, rk4_trajectory(v, m, part, t_final, 1e-3))

    def test_bit_identical_when_boundary_renormalization_moves(self):
        # flow states renormalize v0's boundary once more; find a v0 where
        # that moves the last bit, so the first step cannot reuse v0's
        # matrix.  Long steps let a last-bit change in k1 reach the states.
        gen = RngStream(20).generator()
        for _ in range(200):
            v = random_verblunsky(6, gen, radius=0.6)
            if VerblunskySet(v.alpha).alpha[-1] != v.alpha[-1]:
                break
        else:
            pytest.fail("no coefficient set with a moving boundary bit found")
        assert_same_trajectory(integrate_flow(v, 2, "re", 0.5, 0.25), rk4_trajectory(v, 2, "re", 0.5, 0.25))

    @pytest.mark.parametrize(
        "t_final, dt", [(1.0, 0.0), (1.0, -0.1), (-1.0, 0.1), (float("nan"), 0.1), (1.0, float("inf"))]
    )
    def test_invalid_grid_rejected(self, t_final, dt):
        v = random_verblunsky(3, RngStream(1))
        with pytest.raises(InvalidParams):
            integrate_flow(v, 1, "re", t_final, dt)

    def test_zero_time(self):
        v = random_verblunsky(4, RngStream(5))
        traj = integrate_flow(v, 1, "re", 0.0, 1e-2)
        assert len(traj.states) == 1 and traj.times[0] == 0.0

    def test_trajectory_rejects_mixed_boundaries(self):
        from cmvkit.alflows import Trajectory

        a = VerblunskySet([0.1, 1.0])
        b = VerblunskySet([0.1, -1.0])
        with pytest.raises(InvalidParams):
            Trajectory(np.array([0.0, 1.0]), (a, b), np.zeros(2), np.zeros(2))

    def test_trajectory_reports_drift_between_spectra(self):
        # the second spectrum moves one angle onto the Cayley pole that the
        # first spectrum's largest gap fixes, keeping the angle sum (and so
        # the boundary coefficient)
        from cmvkit.alflows import Trajectory

        base = np.array([-2.5, -1.0, 0.2, 1.0, 2.0])
        moved = base.copy()
        moved[-1] = float(gap_rotation(base)) + np.pi
        moved[1] -= moved[-1] - base[-1]
        weights = np.full(5, 0.2)
        matrices = [build_cmv(verblunsky_from_measure(SpectralMeasureCircle(t, weights))) for t in (base, moved)]
        traj = Trajectory.from_states([0.0, 1.0], matrices)
        a, b = (eigvals_angles(C.entries) for C in matrices)
        d = np.abs(b - a)
        expected = np.minimum(d, 2.0 * np.pi - d).max()
        assert traj.eig_drift[0] == 0.0 and abs(traj.eig_drift[1] - expected) <= 1e-12
        assert expected > 0.5

    def test_single_site_constant(self):
        v = VerblunskySet([np.exp(0.3j)])
        traj = integrate_flow(v, 1, "re", 0.5, 1e-2)
        assert all(abs(s.alpha[0] - v.alpha[0]) < 1e-15 for s in traj.states)

    def test_boundary_exactly_fixed(self):
        v = random_verblunsky(5, RngStream(6))
        traj = integrate_flow(v, 2, "im", 0.5, 1e-2)
        assert all(s.alpha[-1] == v.alpha[-1] for s in traj.states)

    def test_reality_preserved_under_im_flows(self):
        v = VerblunskySet(np.array([0.2, -0.4, 0.3, 0.15, -1.0], dtype=complex))
        traj = integrate_flow(v, 1, "im", 1.0, 1e-2)
        worst = max(np.abs(s.alpha.imag).max() for s in traj.states)
        assert worst <= 1e-12

    def test_isospectral_diagnostics(self):
        v = random_verblunsky(5, RngStream(7), radius=0.6)
        traj = integrate_flow(v, 1, "re", 1.0, 1e-3)
        assert traj.eig_drift.max() <= 1e-10
        assert traj.unitarity.max() <= 1e-12

    def test_det_invariant(self):
        v = random_verblunsky(5, RngStream(8), radius=0.6)
        traj = integrate_flow(v, 2, "re", 1.0, 1e-2)
        d0 = np.linalg.det(np.asarray(build_cmv(traj.states[0]).entries))
        d1 = np.linalg.det(np.asarray(build_cmv(traj.states[-1]).entries))
        assert abs(d1 - d0) <= 1e-10

    def test_matches_spectral_endpoint(self):
        v = random_verblunsky(5, RngStream(9), radius=0.6, min_separation=0.25)
        traj = integrate_flow(v, 1, "re", 1.0, 1e-3)
        ham = FlowHamiltonian.matching_lax_flow(1, "re")
        spectral = flow_via_spectral(v, ham, 1.0)
        assert np.abs(traj.states[-1].alpha - spectral.alpha).max() <= 1e-8

    def test_flows_commute(self):
        v = random_verblunsky(5, RngStream(10), radius=0.55)
        s = 0.1

        def chain(first, then):
            mid = integrate_flow(v, *first, s, 1e-3).states[-1]
            return integrate_flow(mid, *then, s, 1e-3).states[-1]

        ab = chain((1, "re"), (2, "re"))
        ba = chain((2, "re"), (1, "re"))
        assert np.abs(ab.alpha - ba.alpha).max() <= 1e-6


class TestExactPropagation:
    def test_zero_time(self):
        v = random_verblunsky(4, RngStream(11))
        mu = unitary_eigensystem(build_cmv(v))
        out = exact_propagate(mu, FlowHamiltonian.trace_power(1, "re"), 0.0)
        assert np.abs(out.weights - mu.weights).max() < 1e-15
        assert np.array_equal(out.theta, mu.theta)

    def test_constant_rate_is_stationary(self):
        v = random_verblunsky(4, RngStream(12), min_separation=0.3)
        mu = unitary_eigensystem(build_cmv(v))
        coeffs = fit_hamiltonian_with_rates(mu.theta, np.full(mu.n, 0.7))
        ham = FlowHamiltonian(coeffs)
        out = exact_propagate(mu, ham, 3.0)
        assert np.abs(out.weights - mu.weights).max() < 1e-12

    def test_log_derivative_identity(self):
        v = random_verblunsky(5, RngStream(13), min_separation=0.25)
        mu = unitary_eigensystem(build_cmv(v))
        ham = FlowHamiltonian([0.3 + 0.2j, -0.1j])
        h = 1e-6
        up = exact_propagate(mu, ham, h)
        down = exact_propagate(mu, ham, -h)
        dlog = (np.log(up.weights) - np.log(down.weights)) / (2 * h)
        rate = ham.growth_rate(mu.theta)
        expected = rate - np.sum(rate * mu.weights)
        assert np.abs(dlog - expected).max() <= 1e-8

    def test_long_time_no_overflow(self):
        v = random_verblunsky(4, RngStream(14), min_separation=0.3)
        mu = unitary_eigensystem(build_cmv(v))
        out = exact_propagate(mu, FlowHamiltonian.trace_power(1, "im"), 150.0)
        assert np.isfinite(out.weights).all()
        assert out.weights.max() > 0.5

    def test_spectral_round_trip_at_zero(self):
        v = random_verblunsky(6, RngStream(15), radius=0.7, min_separation=0.2)
        back = flow_via_spectral(v, FlowHamiltonian.trace_power(1, "re"), 0.0)
        assert np.abs(back.alpha - v.alpha).max() <= 1e-8

    def test_isospectrality_of_spectral_flow(self):
        v = random_verblunsky(5, RngStream(16), radius=0.6, min_separation=0.25)
        ham = FlowHamiltonian.matching_lax_flow(2, "im")
        moved = flow_via_spectral(v, ham, 2.0)
        t0 = np.sort(unitary_eigensystem(build_cmv(v)).theta)
        t1 = np.sort(unitary_eigensystem(build_cmv(moved)).theta)
        assert np.abs(t0 - t1).max() <= 1e-9


class TestSpectralTrajectory:
    def test_bit_identical_to_flow_via_spectral(self):
        v = random_verblunsky(6, RngStream(17), radius=0.6)
        ham = FlowHamiltonian.matching_lax_flow(2, "re")
        traj = spectral_trajectory(v, ham, 0.05, 1e-2)
        assert traj.states[0] is v
        for t, state in zip(traj.times[1:], traj.states[1:]):
            assert np.array_equal(state.alpha, flow_via_spectral(v, ham, t).alpha)

    def test_one_eigensolve_per_trajectory(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        v = random_verblunsky(5, RngStream(18), radius=0.6)
        spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), 0.1, 1e-2)
        assert len(calls) == 1

    def test_same_grid_and_diagnostics_as_rk4(self):
        v = random_verblunsky(5, RngStream(19), radius=0.6, min_separation=0.25)
        rk4 = integrate_flow(v, 1, "re", 1.0, 0.3)
        spectral = spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), 1.0, 0.3)
        assert np.array_equal(rk4.times, spectral.times) and rk4.times.size == 5
        assert spectral.eig_drift[0] == 0.0 and spectral.eig_drift.max() <= 1e-10
        assert spectral.unitarity.max() <= 1e-12

    @pytest.mark.parametrize("t_final, dt", [(1.0, 0.0), (1.0, -0.1), (-1.0, 0.1)])
    def test_invalid_grid_rejected(self, t_final, dt):
        v = random_verblunsky(3, RngStream(1))
        with pytest.raises(InvalidParams):
            spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), t_final, dt)


def assert_identical_trajectory(a, b):
    assert a.times.tobytes() == b.times.tobytes()
    assert a.alpha_matrix().tobytes() == b.alpha_matrix().tobytes()
    assert a.eig_drift.tobytes() == b.eig_drift.tobytes()
    assert a.unitarity.tobytes() == b.unitarity.tobytes()


def record_calls(monkeypatch, module, name):
    """Wrap module.name so that every call's positional arguments are kept."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def assert_every_state_validated_and_checked(monkeypatch, flow):
    """flow(v) on a 301-state n = 6 grid: check_cmv runs once per
    trajectory block, on reported states only, and covers all of them."""
    import cmvkit.alflows as alflows
    import cmvkit.core as core

    validated, checked = set(), set()
    post_init = core.VerblunskySet.__post_init__

    def counted_post_init(self):
        post_init(self)
        validated.add(self.alpha.tobytes())

    monkeypatch.setattr(core.VerblunskySet, "__post_init__", counted_post_init)
    checks = record_calls(monkeypatch, alflows, "check_cmv")
    traj = flow(random_verblunsky(6, RngStream(40), radius=0.6))
    for entries, alpha in checks:
        checked.update(a.tobytes() for a in alpha)
    assert len(traj.states) == 301 and len(validated) >= 301
    assert len(checks) == -(-301 // (ANGLE_BLOCK // 36)) == 3
    assert sum(len(alpha) for _, alpha in checks) == 301
    assert all(s.alpha.tobytes() in validated and s.alpha.tobytes() in checked for s in traj.states)


class TestStackedTimeAxis:
    """spectral_trajectory stacks its grid times; every output must equal
    the per-time loop in tests/oracles.py bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 64])
    @pytest.mark.parametrize("t_final, m, part", [(1e-3, 1, "re"), (0.1, 2, "im"), (0.1, 1, "re")])
    def test_matches_the_per_time_loop(self, n, t_final, m, part):
        # 2- and 101-state grids
        v = random_verblunsky(n, RngStream(30 + n), radius=0.6)
        ham = FlowHamiltonian.matching_lax_flow(m, part)
        traj = spectral_trajectory(v, ham, t_final, 1e-3)
        assert_identical_trajectory(traj, oracles.spectral_trajectory_loop(v, ham, t_final, 1e-3))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_matches_the_per_time_loop_on_5001_states(self, n):
        # the README grid; a non-contiguous weight stack moved thousands of
        # its states in the last bit
        v = random_verblunsky(n, RngStream(3), radius=0.6)
        ham = FlowHamiltonian.matching_lax_flow(1, "re")
        traj = spectral_trajectory(v, ham, 5.0, 1e-3)
        assert len(traj.states) == 5001
        assert_identical_trajectory(traj, oracles.spectral_trajectory_loop(v, ham, 5.0, 1e-3))

    def test_zero_time(self):
        v = random_verblunsky(4, RngStream(5))
        traj = spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), 0.0, 1e-2)
        assert traj.states == (v,) and traj.eig_drift.tolist() == [0.0]

    def test_every_state_validated_and_checked(self, monkeypatch):
        ham = FlowHamiltonian.matching_lax_flow(1, "re")
        assert_every_state_validated_and_checked(monkeypatch, lambda v: spectral_trajectory(v, ham, 0.3, 1e-3))

    def test_every_rk4_state_validated_and_checked(self, monkeypatch):
        assert_every_state_validated_and_checked(monkeypatch, lambda v: integrate_flow(v, 1, "re", 0.3, 1e-3))

    @pytest.mark.parametrize("n, t_final", [(3, 0.5), (6, 0.3), (64, 0.004)])
    @pytest.mark.parametrize("method", ["rk4", "spectral"])
    def test_angle_reads_stay_within_the_block(self, monkeypatch, n, t_final, method):
        import cmvkit.alflows as alflows

        calls = record_calls(monkeypatch, alflows, "unitary_angles")
        v = random_verblunsky(n, RngStream(41), radius=0.6)
        if method == "rk4":
            traj = integrate_flow(v, 1, "re", t_final, 1e-3)
        else:
            traj = spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), t_final, 1e-3)
        sizes = [np.asarray(args[0]).size for args in calls]
        assert sum(sizes) == len(traj.states) * n * n
        assert max(sizes) <= max(ANGLE_BLOCK, n * n)
        # the first state alone, then full blocks of the rest
        per = max(ANGLE_BLOCK // (n * n), 1)
        assert len(calls) == 1 + -(-len(traj.states) // per)


class TestGauge:
    def test_initial_state_unchanged(self):
        v = random_verblunsky(4, RngStream(17), radius=0.5)
        traj = integrate_flow(v, 1, "re", 0.2, 1e-3)
        beta = gauge_transform(traj)
        assert np.abs(beta[0] - v.alpha).max() == 0.0

    def test_moduli_preserved(self):
        v = random_verblunsky(4, RngStream(18), radius=0.5)
        traj = integrate_flow(v, 1, "re", 0.3, 1e-3)
        beta = gauge_transform(traj)
        assert np.abs(np.abs(beta) - np.abs(traj.alpha_matrix())).max() < 1e-14

    def test_stationary_frame_equation(self):
        # -i d(beta_k)/dt = rho_k^2 (beta_{k+1} + beta_{k-1}) - 2 beta_k,
        # with the time derivative taken by a fourth-order stencil so the
        # differencing error stays below the contract
        v = random_verblunsky(5, RngStream(19), radius=0.5)
        traj = integrate_flow(v, 1, "re", 0.5, 1e-3)
        beta = gauge_transform(traj)
        t = traj.times
        h = t[1] - t[0]
        mid = slice(2, -2)
        dbeta = (
            -beta[4:, :-1] + 8.0 * beta[3:-1, :-1] - 8.0 * beta[1:-3, :-1] + beta[:-4, :-1]
        ) / (12.0 * h)
        rho2 = 1.0 - np.abs(beta[mid, :-1]) ** 2
        left = np.concatenate(
            [(-np.exp(-2j * t[mid]))[:, None], beta[mid, :-2]], axis=1
        )
        right = beta[mid, 1:]
        residual = -1j * dbeta - (rho2 * (right + left) - 2.0 * beta[mid, :-1])
        assert np.abs(residual).max() <= 1e-6


class TestAsymptotics:
    def _instance(self, seed, k, n=5):
        gen = RngStream(seed).generator()
        v = random_verblunsky(n, gen, radius=0.55, min_separation=0.5)
        mu = unitary_eigensystem(build_cmv(v))
        gaps = gen.uniform(8.2, 8.8, n - 1)
        gaps[k:] = gen.uniform(11.5, 12.5, n - 1 - k)
        gaps[k - 1] = gen.uniform(15.5, 16.5)
        gaps /= 20.0
        lam = np.concatenate([[0.0], -np.cumsum(gaps)])
        targets = np.empty(n)
        targets[gen.permutation(n)] = lam
        ham = FlowHamiltonian(fit_hamiltonian_with_rates(mu.theta, targets))
        return v, ham

    def test_limit_is_unimodular_product(self):
        v, ham = self._instance(0, 2)
        limit, rate, xi = predicted_asymptotics(v, ham, 2)
        assert abs(abs(limit) - 1.0) < 1e-12
        assert rate > 0.0
        mu = unitary_eigensystem(build_cmv(v))
        lam = ham.growth_rate(mu.theta)
        order = np.argsort(-lam)
        z = mu.points[order]
        assert abs(limit - (-1.0) * np.conj(z[0] * z[1])) < 1e-12

    def test_empty_product_for_first_coefficient(self):
        v, ham = self._instance(1, 1)
        mu = unitary_eigensystem(build_cmv(v))
        lam = ham.growth_rate(mu.theta)
        order = np.argsort(-lam)
        _, _, xi = predicted_asymptotics(v, ham, 1)
        z = mu.points[order]
        w = mu.weights[order]
        assert abs(xi - (z[0] * np.conj(z[1]) - 1.0) * w[1] / w[0]) < 1e-12

    def test_fit_recovers_prediction(self):
        v, ham = self._instance(2, 3)
        rep = asymptotic_report(v, ham, 3, np.linspace(5.0, 20.0, 40), fit_window=(0.5, 0.88))
        assert abs(rep.fitted_limit - rep.predicted_limit) <= 1e-6
        assert abs(rep.fitted_rate - rep.predicted_rate) <= 0.01 * rep.predicted_rate
        assert abs(np.angle(rep.fitted_xi / rep.xi)) <= 0.01
        assert abs(abs(rep.fitted_limit) - 1.0) < 1e-12

    def test_report_diagonalizes_once(self, monkeypatch):
        v, ham = self._instance(2, 3)
        calls = count_eigensolves(monkeypatch)
        asymptotic_report(v, ham, 3, np.linspace(5.0, 20.0, 8), fit_window=(0.5, 0.88))
        assert len(calls) == 1

    def test_mass_slope(self):
        v, ham = self._instance(3, 2)
        mu = unitary_eigensystem(build_cmv(v))
        lam = ham.growth_rate(mu.theta)
        order = np.argsort(-lam)
        target = lam[order][0] - lam[order][2]
        ts = np.linspace(12.0, 20.0, 9)
        logs = [np.log(exact_propagate(mu, ham, t).weights[order][2]) for t in ts]
        slope = np.polyfit(ts, logs, 1)[0]
        assert abs(-slope - target) <= 0.01 * target

    def test_degenerate_rates_rejected(self):
        v = random_verblunsky(4, RngStream(20), min_separation=0.3)
        mu = unitary_eigensystem(build_cmv(v))
        ham = FlowHamiltonian(fit_hamiltonian_with_rates(mu.theta, [0.0, 0.0, -1.0, -2.0]))
        with pytest.raises(NonDistinctLambda):
            predicted_asymptotics(v, ham, 1)

    def test_bad_k_rejected(self):
        v, ham = self._instance(4, 1)
        with pytest.raises(InvalidParams):
            predicted_asymptotics(v, ham, 5)
