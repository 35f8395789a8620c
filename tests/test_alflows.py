import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvkit.alflows import (
    MAX_ORDER,
    MODULUS_CEILING,
    NEWTON_BLOCK,
    RHO_FLOOR,
    FlowHamiltonian,
    Trajectory,
    _band_indices,
    _trajectory,
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
from cmvkit.brackets import hamiltonian_gradients
from cmvkit.core import SpectralMeasureCircle, VerblunskySet, build_cmv, build_jacobi, circular_gaps, coefficient_rho
from cmvkit.ensembles import RngStream, random_verblunsky
from cmvkit.errors import InvalidParams, NonDistinctLambda, RhoTooSmall
from cmvkit.opuc import (
    DRIFT_TRUST,
    gap_rotation,
    newton_angle_steps,
    unitary_angles,
    unitary_eigensystem,
    verblunsky_from_measure,
)

import oracles
from oracles import (
    UNITARITY_AGREEMENT,
    ceiling_draws,
    dense_lax_field,
    dense_rk4_endpoint,
    eigvals_angles,
    fit_hamiltonian_with_rates,
    rk4_trajectory,
    separated_verblunsky,
)
from strategies import verblunsky_sets


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


# a modulus 5e-9 inside the flow ceiling
CEILING_START = 1.0 - 1.5e-8


class TestVectorFields:
    def test_stack_rejected(self):
        # the field is of one coefficient set; a stack is named, not indexed past
        stack = VerblunskySet(np.stack([random_verblunsky(4, RngStream(s)).alpha for s in (1, 2)]))
        with pytest.raises(InvalidParams, match=re.escape("one coefficient set, got a stack of shape (2, 4)")):
            al_vector_field(stack, 2, "im")

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

    @pytest.mark.parametrize("m", [0, MAX_ORDER + 1])
    def test_order_outside_the_domain_rejected(self, m):
        v = random_verblunsky(3, RngStream(1))
        for call in (
            lambda: al_vector_field(v, m),
            lambda: integrate_flow(v, m, "re", 0.01, 1e-3),
            lambda: FlowHamiltonian.trace_power(m, "re"),
            lambda: hamiltonian_gradients(v, (1, m)),
        ):
            with pytest.raises(InvalidParams):
                call()

    def test_largest_order_runs(self):
        v = random_verblunsky(5, RngStream(2), radius=0.6)
        field = al_vector_field(v, MAX_ORDER, "im")
        assert relative_gap(field, dense_lax_field(v, MAX_ORDER, "im")) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_band_tables_stop_at_the_matrix(self, n):
        # a product reads C^j only inside the matrix, so no band passes
        # half-width n + 1 and the tables stop growing with m
        products = _band_indices(n, MAX_ORDER)[0]
        assert len(products) == MAX_ORDER - 1
        assert max(index.shape[-1] for index in products) <= 2 * (n + 1) + 1

    def test_rho_guard(self):
        # modulus above the flow ceiling 1 - 1e-8 stops the integrator
        v = VerblunskySet([1.0 - 1e-9, 1.0])
        with pytest.raises(RhoTooSmall):
            integrate_flow(v, 1, "re", 0.1, 1e-2)

    @pytest.mark.parametrize("h", [0.2, 1.0])
    def test_rho_guard_on_an_intermediate_stage(self, h):
        # alpha_0 = -i r with alpha_1 = -1 moves outward at rate 2 rho^2,
        # so one long step from inside the ceiling puts the input of k2
        # past it (h = 0.2) or past the circle, where rho is nan (h = 1)
        v = VerblunskySet([-1j * CEILING_START, -1.0])
        assert abs(v.alpha[0]) < MODULUS_CEILING
        k2_input = v.alpha[0] + 0.5 * h * al_vector_field(v, 1, "re")[0]
        assert abs(k2_input) > MODULUS_CEILING
        with pytest.raises(RhoTooSmall, match=re.escape(f"coefficient modulus {abs(k2_input):.12g} reached")):
            integrate_flow(v, 1, "re", h, h)

    def test_start_below_the_ceiling_completes(self):
        v = VerblunskySet([-1j * CEILING_START, -1.0])
        traj = integrate_flow(v, 1, "re", 0.01, 1e-3)
        assert traj.alpha.shape == (11, 2)
        moduli = np.abs(traj.alpha[1:, 0])
        assert (moduli > CEILING_START).all() and (moduli <= MODULUS_CEILING).all()


def relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def scaled_gap(a, oracle):
    """|a - oracle| relative to max(max|oracle|, 1), as
    tests/test_brackets.py::relative_gap scales a row: a field that
    cancels far below 1 is held absolutely, not relative to its size."""
    return np.abs(a - oracle).max() / max(np.abs(oracle).max(), 1.0)


def first_flow_closed_form(v, part):
    """(1, re): i rho_j^2 (alpha_{j-1} + alpha_{j+1}); (1, im):
    -rho_j^2 (alpha_{j+1} - alpha_{j-1}); both with alpha_{-1} = -1."""
    ext = np.concatenate([[-1.0], v.alpha])
    if part == "re":
        return 1j * v.rho**2 * (ext[:-2] + ext[2:])
    return -(v.rho**2) * (ext[2:] - ext[:-2])


class TestLaxVelocity:
    """The banded, division-free bracket field against the dense
    commutator of the Lax form and the closed forms of the first flows."""

    @pytest.mark.parametrize("n", [*range(1, 10), 16, 63, 64])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_matches_the_dense_commutator(self, n, m, part):
        gen = RngStream(100 * n + m).generator()
        for _ in range(3):
            v = random_verblunsky(n, gen, radius=0.6)
            field = al_vector_field(v, m, part)
            assert field.shape == (n - 1,)
            if n > 1:
                assert relative_gap(field, dense_lax_field(v, m, part)) <= 1e-13

    @pytest.mark.parametrize("n", [3, 4, 6, 9, 16, 64])
    def test_matches_the_closed_form_at_the_ceiling(self, n):
        # the dense field's rho_dot chain divides by rho and is off by up
        # to 3e-7 on these draws; the banded field divides by nothing
        for v in ceiling_draws(n, n):
            assert relative_gap(al_vector_field(v, 1, "re"), first_flow_closed_form(v, "re")) <= 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(verblunsky_sets(min_n=2, max_n=12), st.sampled_from(["re", "im"]))
    def test_first_flows_closed_form(self, v, part):
        expected = first_flow_closed_form(v, part)
        if np.abs(expected).max() > 0.0:
            assert relative_gap(al_vector_field(v, 1, part), expected) <= 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(verblunsky_sets(min_n=2, max_n=12, radius=0.6), st.integers(1, 4), st.sampled_from(["re", "im"]))
    def test_higher_flows_dense(self, v, m, part):
        assert scaled_gap(al_vector_field(v, m, part), dense_lax_field(v, m, part)) <= 1e-13


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


DRIFT_NOISE = 1e-13  # the dense angle reads and the Newton steps each err by up to about 5e-14


def assert_drift_near_oracle(traj, oracle_drift):
    """traj.eig_drift against a dense oracle's drift: within DRIFT_NOISE
    plus the second-order error of one Newton step, 2 K x^2 for a drift
    x, with K = (n - 1) / (smallest chord of the first spectrum) bounding
    each sum over k != j of 1 / |z_j - z_k| (eigenvalue_drift)."""
    theta = eigvals_angles(build_cmv(VerblunskySet(traj.alpha[0])).entries)
    chord = 2.0 * np.sin(min(circular_gaps(theta).min(), np.pi) / 2.0)
    bound = DRIFT_NOISE + 2.0 * (theta.size - 1) / chord * oracle_drift**2
    assert traj.eig_drift[0] == 0.0
    assert np.all(np.abs(traj.eig_drift - oracle_drift) <= bound)


def assert_same_trajectory(a, oracle):
    # the package takes the drift from Newton steps and the unitarity
    # from the band of C, the oracle both from the dense matrix; times
    # and states must match bit for bit
    assert np.array_equal(a.times, oracle.times)
    assert np.array_equal(a.alpha, oracle.alpha)
    assert_drift_near_oracle(a, oracle.eig_drift)
    assert np.abs(a.unitarity - oracle.unitarity).max() <= UNITARITY_AGREEMENT


def count_spectrum_reads(monkeypatch):
    """Record every np.linalg.eig call and every dense Cayley read
    (opuc.unitary_angles, as the forward map christoffel_measure calls it)
    from here on."""
    import cmvkit.opuc as opuc

    return record_calls(monkeypatch, np.linalg, "eig"), record_calls(monkeypatch, opuc, "unitary_angles")


def rk4_to_the_ceiling(v, h, steps):
    """Plain RK4 of the (1, re) flow over al_vector_field that holds every
    stage input to RHO_FLOOR as integrate_flow does, up to the first stage
    input that fails: the interiors of the states that passed, and that
    input's RhoTooSmall message."""

    def field(x):
        return al_vector_field(VerblunskySet(np.concatenate([x, v.alpha[-1:]])), 1, "re")

    def failed(x):
        return not np.minimum.reduce(coefficient_rho(x), initial=1.0) >= RHO_FLOOR

    states = [v.interior]
    for _ in range(steps):
        y, ks = states[-1], []
        for weight in (0.0, 0.5 * h, 0.5 * h, h):
            stage = y + weight * ks[-1] if ks else y
            if failed(stage):
                return states[:-1] if not ks else states, f"coefficient modulus {np.abs(stage).max():.12g} reached the circle"
            ks.append(field(stage))
        k1, k2, k3, k4 = ks
        states.append(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    raise AssertionError(f"no stage of {steps} steps reached the ceiling")


# sizes, orders and parts of the in-place stages against plain RK4
RK4_GRID = [(n, m, part, 0.05 if n < 64 else 0.004) for n in (1, 2, 6, 17, 64) for m in (1, 2, 3, 5) for part in ("re", "im")]


class TestIntegrateFlow:
    @pytest.mark.parametrize("n, m, part, t_final", RK4_GRID)
    def test_bit_identical_to_plain_rk4(self, n, m, part, t_final):
        v = random_verblunsky(n, RngStream(n + m), radius=0.6)
        traj = integrate_flow(v, m, part, t_final, 1e-3)
        assert_same_trajectory(traj, rk4_trajectory(v, m, part, t_final, 1e-3))

    @pytest.mark.parametrize("n, m, part, t_final", RK4_GRID)
    def test_bit_identical_to_plain_rk4_near_the_circle(self, n, m, part, t_final):
        v = random_verblunsky(n, RngStream(n + m), radius=0.95)
        traj = integrate_flow(v, m, part, t_final, 1e-3)
        assert_same_trajectory(traj, rk4_trajectory(v, m, part, t_final, 1e-3))

    def test_rho_guard_at_the_same_stage_as_plain_rk4(self):
        # alpha_0 moves outward at rate 2 rho^2 and reaches the ceiling
        # after many steps; the first stage input past it stops the run
        # with its modulus, pinned as a literal, and the states before that
        # step are those of plain RK4 (the step a power of 2, so that the
        # shorter grids keep it)
        v, h = VerblunskySet([-0.9j, -1.0]), 0.0625
        states, message = rk4_to_the_ceiling(v, h, 96)
        assert message == "coefficient modulus 0.999999990786 reached the circle"
        with pytest.raises(RhoTooSmall, match=re.escape(message)):
            integrate_flow(v, 1, "re", 96 * h, h)
        traj = integrate_flow(v, 1, "re", (len(states) - 1) * h, h)
        assert traj.alpha[:, :-1].tobytes() == np.array(states).tobytes()
        with pytest.raises(RhoTooSmall, match=re.escape(message)):
            integrate_flow(v, 1, "re", len(states) * h, h)

    def test_rho_guard_on_the_last_state(self):
        # one long step of the same flow, from the other side of the origin:
        # the state overshoots the ceiling while all four stage inputs of
        # its step lie inside it (plain RK4 stops at the next step's first
        # stage input, the state itself), so on a one-step grid only the
        # check of the last state stops the run
        v, h = VerblunskySet([0.63189517j, -1.0]), 1.25
        states, message = rk4_to_the_ceiling(v, h, 2)
        assert len(states) == 1
        assert message == "coefficient modulus 0.99999999724 reached the circle"
        with pytest.raises(RhoTooSmall, match=re.escape(message)):
            integrate_flow(v, 1, "re", h, h)

    def test_gather_tables_looked_up_once_per_trajectory(self, monkeypatch):
        # _gradient_tables reads both band tables and the layout of L and M
        # once, the one chunk of check_cmv_band the layout once more,
        # however many stages the grid runs
        import cmvkit.alflows as alflows

        v = random_verblunsky(6, RngStream(43), radius=0.6)
        integrate_flow(v, 2, "re", 1e-3, 1e-3)  # the band tables are cached
        counts = []
        for t_final in (1e-3, 0.01, 0.1):
            bands = record_calls(monkeypatch, alflows, "_band_indices")
            layouts = record_calls(monkeypatch, alflows, "lm_band_indices")
            integrate_flow(v, 2, "re", t_final, 1e-3)
            counts.append((len(bands), len(layouts)))
            monkeypatch.undo()
        assert counts == [(2, 2)] * 3

    def test_every_state_keeps_v0s_boundary(self):
        # the boundary rule is a fixed point, so the states carry v0's
        # boundary as it is, and v0 rebuilt from its alpha is v0; long
        # steps let any last-bit change of the boundary reach the states
        gen = RngStream(20).generator()
        for _ in range(20):
            v = random_verblunsky(6, gen, radius=0.6)
            assert VerblunskySet(v.alpha).alpha.tobytes() == v.alpha.tobytes()
            traj = integrate_flow(v, 2, "re", 0.5, 0.25)
            assert (traj.alpha[:, -1] == v.alpha[-1]).all()
            assert_same_trajectory(traj, rk4_trajectory(v, 2, "re", 0.5, 0.25))

    @pytest.mark.parametrize("n, t_final", [(6, 0.3), (64, 0.01)])
    @pytest.mark.parametrize("m, part", [(1, "re"), (2, "im")])
    def test_agrees_with_rk4_over_the_dense_field(self, n, t_final, m, part):
        v = random_verblunsky(n, RngStream(50 + n), radius=0.6)
        endpoint = integrate_flow(v, m, part, t_final, 1e-3).alpha[-1]
        assert np.abs(endpoint - dense_rk4_endpoint(v, m, part, t_final, 1e-3).alpha).max() <= 1e-12

    def test_stages_build_no_matrix_and_no_coefficient_set(self, monkeypatch):
        import cmvkit.core as core

        created = []
        post_init = core.VerblunskySet.__post_init__

        def counted_post_init(self):
            post_init(self)
            created.append(self)

        v = random_verblunsky(6, RngStream(42), radius=0.6)
        monkeypatch.setattr(core.VerblunskySet, "__post_init__", counted_post_init)
        factors = record_factor_builds(monkeypatch)
        traj = integrate_flow(v, 2, "re", 0.1, 1e-3)
        assert not created and [a.shape for a in factors] == [(6,)]
        assert traj.alpha.shape == (101, 6) and traj.alpha[0].tobytes() == v.alpha.tobytes()

    @pytest.mark.parametrize(
        "t_final, dt",
        [(1.0, 0.0), (1.0, -0.1), (-1.0, 0.1), (float("nan"), 0.1), (1.0, float("inf")), (1.0, 0.99e-7), (1.0, 5e-324)],
    )
    def test_invalid_grid_rejected(self, t_final, dt):
        v = random_verblunsky(3, RngStream(1))
        with pytest.raises(InvalidParams):
            integrate_flow(v, 1, "re", t_final, dt)

    def test_zero_time(self):
        v = random_verblunsky(4, RngStream(5))
        traj = integrate_flow(v, 1, "re", 0.0, 1e-2)
        assert traj.alpha.shape == (1, 4) and traj.times[0] == 0.0

    def test_trajectory_rejects_mixed_boundaries(self):
        with pytest.raises(InvalidParams):
            Trajectory(np.array([0.0, 1.0]), [[0.1, 1.0], [0.1, -1.0]], np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("times, rows, drift, unit", [(2, 1, 2, 2), (2, 2, 1, 2), (2, 2, 2, 3), (0, 0, 0, 0)])
    def test_trajectory_needs_one_state_and_diagnostic_per_time(self, times, rows, drift, unit):
        with pytest.raises(InvalidParams, match="per time stamp"):
            Trajectory(np.arange(float(times)), np.tile([0.1, 1.0], (rows, 1)), np.zeros(drift), np.zeros(unit))

    def test_trajectory_reports_drift_between_spectra(self):
        # the second spectrum moves one angle onto the Cayley pole that the
        # first spectrum's largest gap fixes, keeping the angle sum (and so
        # the boundary coefficient)
        base = np.array([-2.5, -1.0, 0.2, 1.0, 2.0])
        moved = base.copy()
        moved[-1] = float(gap_rotation(base)) + np.pi
        moved[1] -= moved[-1] - base[-1]
        weights = np.full(5, 0.2)
        matrices = [build_cmv(verblunsky_from_measure(SpectralMeasureCircle(t, weights))) for t in (base, moved)]
        theta = unitary_angles(matrices[0])
        traj = _trajectory(np.array([0.0, 1.0]), np.stack([C.source.alpha for C in matrices]), theta)
        a, b = (eigvals_angles(C.entries) for C in matrices)
        d = np.abs(b - a)
        expected = np.minimum(d, 2.0 * np.pi - d).max()
        assert traj.eig_drift[0] == 0.0 and abs(traj.eig_drift[1] - expected) <= 1e-12
        assert expected > 0.5

    def test_single_site_constant(self):
        v = VerblunskySet([np.exp(0.3j)])
        traj = integrate_flow(v, 1, "re", 0.5, 1e-2)
        assert np.abs(traj.alpha[:, 0] - v.alpha[0]).max() < 1e-15

    def test_boundary_exactly_fixed(self):
        v = random_verblunsky(5, RngStream(6))
        traj = integrate_flow(v, 2, "im", 0.5, 1e-2)
        assert np.all(traj.alpha[:, -1] == v.alpha[-1])

    def test_reality_preserved_under_im_flows(self):
        v = VerblunskySet(np.array([0.2, -0.4, 0.3, 0.15, -1.0], dtype=complex))
        traj = integrate_flow(v, 1, "im", 1.0, 1e-2)
        worst = np.abs(traj.alpha.imag).max()
        assert worst <= 1e-12

    def test_isospectral_diagnostics(self):
        v = random_verblunsky(5, RngStream(7), radius=0.6)
        traj = integrate_flow(v, 1, "re", 1.0, 1e-3)
        assert traj.eig_drift.max() <= 1e-10
        assert traj.unitarity.max() <= 1e-12

    def test_det_invariant(self):
        v = random_verblunsky(5, RngStream(8), radius=0.6)
        traj = integrate_flow(v, 2, "re", 1.0, 1e-2)
        d0, d1 = (np.linalg.det(build_cmv(VerblunskySet(a)).entries) for a in traj.alpha[[0, -1]])
        assert abs(d1 - d0) <= 1e-10

    def test_matches_spectral_endpoint(self):
        v = separated_verblunsky(5, RngStream(9), radius=0.6, min_separation=0.25)
        traj = integrate_flow(v, 1, "re", 1.0, 1e-3)
        ham = FlowHamiltonian.matching_lax_flow(1, "re")
        spectral = flow_via_spectral(v, ham, 1.0)
        assert np.abs(traj.alpha[-1] - spectral.alpha).max() <= 1e-8

    def test_flows_commute(self):
        v = random_verblunsky(5, RngStream(10), radius=0.55)
        s = 0.1

        def chain(first, then):
            mid = VerblunskySet(integrate_flow(v, *first, s, 1e-3).alpha[-1])
            return integrate_flow(mid, *then, s, 1e-3).alpha[-1]

        ab = chain((1, "re"), (2, "re"))
        ba = chain((2, "re"), (1, "re"))
        assert np.abs(ab - ba).max() <= 1e-6


class TestExactPropagation:
    def test_zero_time(self):
        v = random_verblunsky(4, RngStream(11))
        mu = unitary_eigensystem(build_cmv(v))
        out = exact_propagate(mu, FlowHamiltonian.trace_power(1, "re"), 0.0)
        assert np.abs(out.weights - mu.weights).max() < 1e-15
        assert np.array_equal(out.theta, mu.theta)

    def test_constant_rate_is_stationary(self):
        v = separated_verblunsky(4, RngStream(12), min_separation=0.3)
        mu = unitary_eigensystem(build_cmv(v))
        coeffs = fit_hamiltonian_with_rates(mu.theta, np.full(mu.n, 0.7))
        ham = FlowHamiltonian(coeffs)
        out = exact_propagate(mu, ham, 3.0)
        assert np.abs(out.weights - mu.weights).max() < 1e-12

    def test_log_derivative_identity(self):
        v = separated_verblunsky(5, RngStream(13), min_separation=0.25)
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
        v = separated_verblunsky(4, RngStream(14), min_separation=0.3)
        mu = unitary_eigensystem(build_cmv(v))
        out = exact_propagate(mu, FlowHamiltonian.trace_power(1, "im"), 150.0)
        assert np.isfinite(out.weights).all()
        assert out.weights.max() > 0.5

    def test_spectral_round_trip_at_zero(self):
        v = separated_verblunsky(6, RngStream(15), radius=0.7, min_separation=0.2)
        back = flow_via_spectral(v, FlowHamiltonian.trace_power(1, "re"), 0.0)
        assert np.abs(back.alpha - v.alpha).max() <= 1e-8

    def test_isospectrality_of_spectral_flow(self):
        v = separated_verblunsky(5, RngStream(16), radius=0.6, min_separation=0.25)
        ham = FlowHamiltonian.matching_lax_flow(2, "im")
        moved = flow_via_spectral(v, ham, 2.0)
        t0 = np.sort(unitary_eigensystem(build_cmv(v)).theta)
        t1 = np.sort(unitary_eigensystem(build_cmv(moved)).theta)
        assert np.abs(t0 - t1).max() <= 1e-9


class TestForwardMap:
    def test_round_trip_at_zero_on_benchmark_draws(self):
        # the t = 0 round trip through the flows' forward map
        # (christoffel_measure) on the n = 64 draw of `cmv flow --random`
        # (radius 0.6): 300 seeds, then five whose rk4 and spectral
        # endpoints lay 1.2e-9 to 7.9e-9 apart when the initial weights
        # came from np.linalg.eig.  Worst measured: 2.1e-13
        ham = FlowHamiltonian.trace_power(1, "re")
        for seed in [*range(300), 1611952284, 833461670, 491802124, 1456459891, 292076413]:
            v = random_verblunsky(64, RngStream(seed), radius=0.6)
            assert np.abs(flow_via_spectral(v, ham, 0.0).alpha - v.alpha).max() <= 1e-12, seed


class TestSpectralTrajectory:
    def test_bit_identical_to_flow_via_spectral(self):
        v = random_verblunsky(6, RngStream(17), radius=0.6)
        ham = FlowHamiltonian.matching_lax_flow(2, "re")
        traj = spectral_trajectory(v, ham, 0.05, 1e-2)
        assert traj.alpha[0].tobytes() == v.alpha.tobytes()
        for t, state in zip(traj.times[1:], traj.alpha[1:]):
            assert state.tobytes() == flow_via_spectral(v, ham, t).alpha.tobytes()

    def test_one_eigensolve_per_trajectory(self, monkeypatch):
        # the forward map's one dense read is also the drift's reference
        eigs, passes = count_spectrum_reads(monkeypatch)
        v = random_verblunsky(5, RngStream(18), radius=0.6)
        spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), 0.1, 1e-2)
        assert not eigs and len(passes) == 1

    def test_same_grid_and_diagnostics_as_rk4(self):
        v = separated_verblunsky(5, RngStream(19), radius=0.6, min_separation=0.25)
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


def assert_matches_the_loop(a, b):
    """Times and states bit for bit; the banded unitarity within
    UNITARITY_AGREEMENT of the loop's dense residuals and the Newton drift
    within its bound of the loop's dense drift."""
    assert a.times.tobytes() == b.times.tobytes()
    assert a.alpha.tobytes() == b.alpha.tobytes()
    assert np.abs(a.unitarity - b.unitarity).max() <= UNITARITY_AGREEMENT
    assert_drift_near_oracle(a, b.eig_drift)


def record_calls(monkeypatch, module, name):
    """Wrap module.name so that every call's positional arguments are kept."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def record_factor_builds(monkeypatch):
    """Record the coefficients of every core.lm_factors call, each the
    build of the L and M factors of dense CMV matrices."""
    import cmvkit.core as core

    calls = []
    original = core.lm_factors

    def recorded(v):
        calls.append(v.alpha)
        return original(v)

    monkeypatch.setattr(core, "lm_factors", recorded)
    return calls


def assert_every_state_validated_and_checked(monkeypatch, flow):
    """flow(v) on a 301-state n = 6 grid: its rows are validated as one
    array before the diagnostics and again by Trajectory, check_cmv_band
    runs once (one chunk of NEWTON_BLOCK coefficients) on exactly the
    reported states, and no state becomes a VerblunskySet."""
    import cmvkit.alflows as alflows
    import cmvkit.core as core

    created = []
    post_init = core.VerblunskySet.__post_init__

    def counted_post_init(self):
        post_init(self)
        created.append(self)

    v = random_verblunsky(6, RngStream(40), radius=0.6)
    monkeypatch.setattr(core.VerblunskySet, "__post_init__", counted_post_init)
    validated = record_calls(monkeypatch, alflows, "check_coefficient_rows")
    checks = record_calls(monkeypatch, alflows, "check_cmv_band")
    traj = flow(v)
    assert traj.alpha.shape == (301, 6) and not created
    assert len(validated) == 2 and all(a.tobytes() == traj.alpha.tobytes() for (a,) in validated)
    assert len(checks) == 1 and checks[0][0].tobytes() == traj.alpha.tobytes()


class TestStackedTimeAxis:
    """spectral_trajectory stacks its grid times; every output must equal
    the per-time loop in tests/oracles.py bit for bit, except the drift,
    which the loop reads densely at every state."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 64])
    @pytest.mark.parametrize("t_final, m, part", [(1e-3, 1, "re"), (0.1, 2, "im"), (0.1, 1, "re")])
    def test_matches_the_per_time_loop(self, n, t_final, m, part):
        # 2- and 101-state grids
        v = random_verblunsky(n, RngStream(30 + n), radius=0.6)
        ham = FlowHamiltonian.matching_lax_flow(m, part)
        traj = spectral_trajectory(v, ham, t_final, 1e-3)
        assert_matches_the_loop(traj, oracles.spectral_trajectory_loop(v, ham, t_final, 1e-3))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_matches_the_per_time_loop_on_5001_states(self, n):
        # the README grid; a non-contiguous weight stack moved thousands of
        # its states in the last bit
        v = random_verblunsky(n, RngStream(3), radius=0.6)
        ham = FlowHamiltonian.matching_lax_flow(1, "re")
        traj = spectral_trajectory(v, ham, 5.0, 1e-3)
        assert len(traj.alpha) == 5001
        assert_matches_the_loop(traj, oracles.spectral_trajectory_loop(v, ham, 5.0, 1e-3))

    def test_zero_time(self):
        v = random_verblunsky(4, RngStream(5))
        traj = spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), 0.0, 1e-2)
        assert traj.alpha.tobytes() == v.alpha.tobytes() and traj.eig_drift.tolist() == [0.0]

    def test_every_state_validated_and_checked(self, monkeypatch):
        ham = FlowHamiltonian.matching_lax_flow(1, "re")
        assert_every_state_validated_and_checked(monkeypatch, lambda v: spectral_trajectory(v, ham, 0.3, 1e-3))

    def test_every_rk4_state_validated_and_checked(self, monkeypatch):
        assert_every_state_validated_and_checked(monkeypatch, lambda v: integrate_flow(v, 1, "re", 0.3, 1e-3))

    @pytest.mark.parametrize("n, t_final", [(3, 0.5), (6, 0.3), (64, 0.004)])
    @pytest.mark.parametrize("method", ["rk4", "spectral"])
    def test_one_dense_matrix_per_trajectory(self, monkeypatch, n, t_final, method):
        # every state is trusted here: the first state's matrix is the
        # only one built, for its eigensystem (spectral) and its angles
        factors = record_factor_builds(monkeypatch)
        v = random_verblunsky(n, RngStream(41), radius=0.6)
        if method == "rk4":
            integrate_flow(v, 1, "re", t_final, 1e-3)
        else:
            spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), t_final, 1e-3)
        assert len(factors) == 1 and factors[0].tobytes() == v.alpha.tobytes()

    @pytest.mark.parametrize("n, t_final", [(3, 0.5), (6, 0.3), (64, 0.004)])
    @pytest.mark.parametrize("method", ["rk4", "spectral"])
    def test_angle_reads_stay_within_the_block(self, monkeypatch, n, t_final, method):
        # one dense read per trajectory, of the first state (by the
        # spectral flow's forward map in opuc); every state is trusted
        # here, so the Newton chunks read no matrix
        import cmvkit.alflows as alflows
        import cmvkit.opuc as opuc

        flow_reads = record_calls(monkeypatch, alflows, "unitary_angles")
        map_reads = record_calls(monkeypatch, opuc, "unitary_angles")
        chunks = record_calls(monkeypatch, alflows, "newton_angle_steps")
        v = random_verblunsky(n, RngStream(41), radius=0.6)
        if method == "rk4":
            traj = integrate_flow(v, 1, "re", t_final, 1e-3)
        else:
            traj = spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), t_final, 1e-3)
        reads = flow_reads + map_reads
        assert len(reads) == 1 and reads[0][0].entries.shape == (n, n)
        assert np.array_equal(reads[0][0].entries, build_cmv(v).entries)
        rows = [len(alpha) for alpha, _ in chunks]
        assert sum(rows) == len(traj.alpha) and max(rows) == min(len(traj.alpha), NEWTON_BLOCK // n)

    @pytest.mark.parametrize("side", [0.5, 2.0])
    def test_both_sides_of_the_trust_rule(self, monkeypatch, side):
        # two n = 5 spectra, the second with the angle at 2.0 moved by x and
        # the one at -1.0 by -x (the angle sum, and so the boundary, kept):
        # a Newton reach of about 5 x either side of the limit.  Inside, the
        # step is the drift within the 0.23 relative error the rule
        # guarantees and no matrix is read; outside, the state gets its own
        # dense read, matched to the first spectrum in circular order
        import cmvkit.alflows as alflows

        base = np.array([-2.5, -1.0, 0.2, 1.0, 2.0])
        limit = DRIFT_TRUST * 2.0 * np.sin(circular_gaps(base).min() / 2.0)
        x = side * limit / 5
        weights = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        first, moved = (
            build_cmv(verblunsky_from_measure(SpectralMeasureCircle(t, weights)))
            for t in (base, base + [0.0, -x, 0.0, 0.0, x])
        )
        theta = unitary_angles(first)
        reads = record_calls(monkeypatch, alflows, "unitary_angles")
        traj = _trajectory(np.array([0.0, 1.0]), np.stack([first.source.alpha, moved.source.alpha]), theta)
        reach = newton_angle_steps(moved.source.alpha, theta)[1]
        assert (reach.max() <= limit) == (side < 1.0)
        assert traj.eig_drift[0] == 0.0
        if side < 1.0:
            assert not reads
            assert abs(traj.eig_drift[1] - x) <= 0.23 * x and traj.eig_drift[1] != x
        else:
            assert len(reads) == 1 and reads[0][0].entries.shape == (1, 5, 5)
            assert abs(traj.eig_drift[1] - x) <= 1e-12

    @pytest.mark.parametrize(
        "n, radius", [(n, r) for n in (1, 2, 3, 6, 17, 64) for r in (0.6, 0.9, 0.95, "ceiling") if n > 2 or r != "ceiling"]
    )
    def test_newton_drift_matches_the_dense_read(self, n, radius):
        # each draw beside its spectrum turned by s = 1e-12: alpha_k ->
        # e^(-i (k + 1) s) alpha_k, so every eigenvalue moves by s; the
        # Newton drift, the dense read and s agree within the angle noise
        # (ceiling draws need two interior coefficients)
        if radius == "ceiling":
            draws = list(ceiling_draws(n, 60 + n, count=5))
        else:
            gen = RngStream(60 + n).generator()
            draws = [random_verblunsky(n, gen, radius=radius) for _ in range(5)]
        s = 1e-12
        for v in draws:
            turned = VerblunskySet(v.alpha * np.exp(-1j * s * np.arange(1, n + 1)))
            matrices = [build_cmv(v), build_cmv(turned)]
            theta = unitary_angles(matrices[0])
            traj = _trajectory(np.array([0.0, 1.0]), np.stack([v.alpha, turned.alpha]), theta)
            dense = oracles.cyclic_drift(*(eigvals_angles(C.entries) for C in matrices))
            assert abs(traj.eig_drift[1] - dense) <= DRIFT_NOISE
            assert abs(traj.eig_drift[1] - s) <= DRIFT_NOISE


class TestBranchCut:
    """A measure with a point at pi: its eigenvalue's principal angle
    changes branch along the flow.  Sorted principal angles compared
    index by index reported a drift of one spectral gap (1.642)."""

    THETA = [-2.0, -0.7, 0.4, 1.5, np.pi]
    WEIGHTS = [0.1, 0.3, 0.2, 0.25, 0.15]

    @pytest.mark.parametrize("method", ["rk4", "spectral"])
    def test_no_false_drift_at_the_cut(self, method):
        v = verblunsky_from_measure(SpectralMeasureCircle(self.THETA, self.WEIGHTS))
        if method == "rk4":
            traj = integrate_flow(v, 1, "re", 0.05, 1e-3)
        else:
            traj = spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), 0.05, 1e-3)
        angles = np.array([eigvals_angles(build_cmv(VerblunskySet(a)).entries) for a in traj.alpha])
        # the eigenvalue at pi is read on both branches along the flow
        assert (angles[:, 0] < -3.0).any() and (angles[:, -1] > 3.0).any()
        assert traj.eig_drift.max() <= 1e-10


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
        assert np.abs(np.abs(beta) - np.abs(traj.alpha)).max() < 1e-14

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
        v = separated_verblunsky(n, gen, radius=0.55, min_separation=0.5)
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
        eigs, passes = count_spectrum_reads(monkeypatch)
        asymptotic_report(v, ham, 3, np.linspace(5.0, 20.0, 8), fit_window=(0.5, 0.88))
        assert not eigs and len(passes) == 1

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
        v = separated_verblunsky(4, RngStream(20), min_separation=0.3)
        mu = unitary_eigensystem(build_cmv(v))
        ham = FlowHamiltonian(fit_hamiltonian_with_rates(mu.theta, [0.0, 0.0, -1.0, -2.0]))
        with pytest.raises(NonDistinctLambda):
            predicted_asymptotics(v, ham, 1)

    def test_bad_k_rejected(self):
        v, ham = self._instance(4, 1)
        with pytest.raises(InvalidParams):
            predicted_asymptotics(v, ham, 5)
