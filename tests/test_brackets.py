"""The exact bracket layer, and the finite-difference engine that is its
oracle (tests/oracles.py).  TestCoordinates, TestCoordinateBrackets and
TestSpectralObservables check the oracle (and the package's one-row
`coordinate_gradient`) on brackets known in closed form; the other
classes hold the exact gradients to closed forms and to the oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cmvkit.alflows import al_vector_field, trace_hamiltonian
from cmvkit.brackets import (
    Observable,
    bracket_matrix,
    chart_jacobian,
    coordinate_gradient,
    cotangent_residual,
    hamiltonian_gradients,
    interior_coordinates,
    jacobian_prediction,
    spectral_gradients,
    spectral_to_verblunsky_jacobian,
    with_coordinates,
)
from cmvkit.core import SpectralMeasureCircle, VerblunskySet, build_cmv
from cmvkit.ensembles import RngStream, random_verblunsky
from cmvkit.errors import DegenerateSpectrum, NonDifferentiable, RhoTooSmall
from cmvkit.verify import HAMILTONIAN_DEGREES, MIN_N, SUITES, probe_separation, random_measure
from oracles import SpectralObservables, coordinate_jacobian

fd_bracket_matrix = oracles.bracket_matrix


def coordinates(w, *js):
    """[u_j, v_j for j in js] at w."""
    return [part for j in js for part in (w.alpha[j].real, w.alpha[j].imag)]


def re_k(m):
    """Re K_m as a function of a coefficient set."""
    return lambda w: trace_hamiltonian(build_cmv(w), m).real


@pytest.fixture(scope="module")
def probe():
    return random_verblunsky(4, RngStream(100), radius=0.6, min_separation=0.4)


class TestCoordinates:
    def test_round_trip(self, probe):
        x = interior_coordinates(probe)
        again = with_coordinates(probe, x)
        assert np.array_equal(again.alpha, probe.alpha)

    def test_gradient_of_linear_observable(self, probe):
        obs = Observable("u_1", lambda w: w.alpha[1].real)
        grad, g1, g2 = coordinate_gradient(obs, probe)
        expected = np.zeros(2 * (probe.n - 1))
        expected[2] = 1.0
        assert np.abs(grad - expected).max() < 1e-10

    def test_nondifferentiable_detected(self, probe):
        kink = probe.alpha[0].real + 1e-6

        def fn(w):
            return abs(w.alpha[0].real - kink)

        def smooth_then_kink(w):
            return [w.alpha[1].imag, fn(w)]

        # a scalar observable, and a vector one whose second component kinks:
        # the error names the offending component
        cases = [
            (lambda: coordinate_gradient(Observable("kink", fn), probe), "^kink:"),
            (lambda: coordinate_jacobian(smooth_then_kink, probe), "^component 1:"),
            (lambda: coordinate_jacobian(smooth_then_kink, probe, names=("v_1", "kink")), "^kink:"),
        ]
        for call, name in cases:
            with pytest.raises(NonDifferentiable, match=name):
                call()

    def test_nan_component_fails_the_guard(self, probe):
        # NaN compares false against the agreement bound; it must still raise
        def nan_second(w):
            return [w.alpha[1].imag, np.nan]

        with pytest.raises(NonDifferentiable, match="^broken:"):
            coordinate_jacobian(nan_second, probe, names=("v_1", "broken"))

    def test_jacobian_rows_are_the_scalar_gradients(self, probe):
        obs = [Observable("u_1", lambda w: w.alpha[1].real), Observable("Re K_2", re_k(2))]
        rows = coordinate_jacobian(lambda w: [o(w) for o in obs], probe)
        for r, o in enumerate(obs):
            for got, want in zip(rows, coordinate_gradient(o, probe)):
                assert np.array_equal(got[r], want)

    def test_jacobian_without_interior_coordinates(self):
        v = random_verblunsky(1, RngStream(3))
        for part in coordinate_jacobian(lambda w: [1.0, 2.0, 3.0], v):
            assert part.shape == (3, 0)

    def test_constant_observable_is_fine(self, probe):
        grad, *_ = coordinate_gradient(Observable("const", lambda w: 1.0), probe)
        assert np.abs(grad).max() == 0.0


class TestCoordinateBrackets:
    def test_bracket_matrix_is_exactly_antisymmetric(self, probe):
        obs = SpectralObservables(probe)
        B, error = fd_bracket_matrix(lambda w: np.concatenate(obs.values(w)), probe)
        assert B.shape == error.shape == (2 * probe.n, 2 * probe.n)
        assert np.array_equal(B, -B.T) and not np.diag(B).any()

    def test_conjugate_pair(self, probe):
        B, error = fd_bracket_matrix(lambda w: coordinates(w, 1), probe)
        assert abs(B[0, 1] - probe.rho[1] ** 2) <= 1e-9
        assert error[0, 1] <= 1e-9

    def test_disjoint_coordinates_commute(self, probe):
        B = fd_bracket_matrix(lambda w: coordinates(w, 0, 2), probe)[0]
        assert np.abs(B[:2, 2:]).max() <= 1e-10

    def test_antisymmetry(self, probe):
        # two separate sweeps, with the components in opposite orders
        a = fd_bracket_matrix(lambda w: coordinates(w, 0), probe)[0][0, 1]
        b = fd_bracket_matrix(lambda w: coordinates(w, 0)[::-1], probe)[0][0, 1]
        assert abs(a + b) <= 1e-10

    def test_complex_reconstruction(self, probe):
        # {a_k, conj(a_k)} = -2 i rho_k^2 from the four real brackets
        for k in range(probe.n - 1):
            (uu, uv), (vu, vv) = fd_bracket_matrix(lambda w: coordinates(w, k), probe)[0]
            same = complex(uu + vv, vu - uv)
            assert abs(same - (-2j * probe.rho[k] ** 2)) <= 1e-9

    def test_leibniz_rule(self, probe):
        # rows: u0 u1, u0, v0, u1; {u0 u1, v0} = u0 {u1, v0} + u1 {u0, v0}
        def values(w):
            return [w.alpha[0].real * w.alpha[1].real, *coordinates(w, 0), w.alpha[1].real]

        B = fd_bracket_matrix(values, probe)[0]
        u0, u1 = probe.alpha[0].real, probe.alpha[1].real
        assert abs(B[0, 2] - (u0 * B[3, 2] + u1 * B[1, 2])) <= 1e-5

    def test_probe_too_close_to_circle(self):
        # the stencil would leave the disk
        v = VerblunskySet([1.0 - 1e-9, 1.0])
        with pytest.raises(RhoTooSmall):
            fd_bracket_matrix(lambda w: coordinates(w, 0), v)


class TestSpectralObservables:
    def test_total_mass_is_casimir(self, probe):
        obs = SpectralObservables(probe)
        B = fd_bracket_matrix(lambda w: [w.alpha[0].real, obs.values(w)[1].sum()], probe)[0]
        assert abs(B[0, 1]) <= 1e-9

    def test_angles_commute(self, probe):
        obs = SpectralObservables(probe)
        B = fd_bracket_matrix(lambda w: obs.values(w)[0][[0, 2]], probe)[0]
        assert abs(B[0, 1]) <= 1e-6

    def test_canonical_pairing(self, probe):
        # {theta_l, (1/2) log(mu_j / mu_n)} = delta_jl for j, l < n
        obs = SpectralObservables(probe)
        n = probe.n

        def values(w):
            theta, weights = obs.values(w)
            return np.concatenate([theta[: n - 1], 0.5 * np.log(weights[: n - 1] / weights[n - 1])])

        B = fd_bracket_matrix(values, probe)[0]
        assert np.abs(B[: n - 1, n - 1 :] - np.eye(n - 1)).max() <= 1e-5

    def test_bracket_with_hamiltonian_reproduces_flow(self, probe):
        # {f, Re K_m} equals the chain-rule derivative of f along the flow
        d = 2 * (probe.n - 1)
        B = fd_bracket_matrix(lambda w: [*coordinates(w, *range(probe.n - 1)), re_k(2)(w)], probe)[0]
        field = al_vector_field(probe, 2, "re")
        assert np.abs(B[0:d:2, d] - field.real).max() <= 1e-6
        assert np.abs(B[1:d:2, d] - field.imag).max() <= 1e-6

    def test_first_flow_closed_form(self, probe):
        d = 2 * (probe.n - 1)
        B = fd_bracket_matrix(lambda w: [*coordinates(w, *range(probe.n - 1)), re_k(1)(w)], probe)[0]
        rho2 = probe.rho**2
        ext = np.concatenate([[-1.0 + 0j], probe.alpha])
        expected = 1j * rho2 * (ext[:-2] + ext[2:])
        assert np.abs(B[0:d:2, d] + 1j * B[1:d:2, d] - expected).max() <= 1e-7

    def test_degenerate_base_rejected(self):
        v = VerblunskySet([0.0, 1.0])  # angles 0 and pi, fine
        # squeeze two eigenvalues together: a nearly unimodular interior
        # coefficient nearly decouples the matrix; build a direct degenerate case
        with pytest.raises(DegenerateSpectrum):
            SpectralMeasureCircle([0.0, 1e-12], [0.5, 0.5])

    def test_single_interior_bracket_vanishes(self):
        v = random_verblunsky(1, RngStream(3))
        # n = 1: no interior coordinates, brackets of anything vanish
        B = fd_bracket_matrix(lambda w: [abs(w.alpha[0]), w.alpha[0].real], v)[0]
        assert B.shape == (2, 2) and not B.any()

    def test_matching_ambiguous_far_from_base(self):
        base = random_verblunsky(4, RngStream(0).generator(), radius=0.6, min_separation=0.3)
        obs = SpectralObservables(base)
        far = random_verblunsky(4, RngStream(1004).generator(), radius=0.6)
        probe = base.replace_interior(far.interior)
        with pytest.raises(oracles.MatchingAmbiguous):
            obs.values(probe)


class TestCotangent:
    def test_residual_small(self):
        gen = RngStream(5).generator()
        for _ in range(5):
            v = random_verblunsky(3, gen, radius=0.55, min_separation=0.5)
            assert abs(cotangent_residual(v)) <= 1e-5

    def test_relabeling_invariance(self):
        v = random_verblunsky(4, RngStream(6), radius=0.55, min_separation=0.5)
        base = cotangent_residual(v, (0, 1, 2))
        for labels in [(1, 2, 0), (2, 0, 1)]:
            assert abs(cotangent_residual(v, labels) - base) <= 1e-6

    def test_any_triple_of_larger_spectrum(self):
        v = random_verblunsky(5, RngStream(7), radius=0.5, min_separation=0.45)
        for labels in [(0, 1, 2), (0, 2, 4), (1, 3, 4)]:
            assert abs(cotangent_residual(v, labels)) <= 1e-5

    def test_needs_three_points(self):
        v = random_verblunsky(2, RngStream(8))
        with pytest.raises(Exception):
            cotangent_residual(v)


class TestJacobian:
    def test_single_point_exact(self):
        mu = SpectralMeasureCircle([0.4], [1.0])
        det = spectral_to_verblunsky_jacobian(mu)
        assert abs(det - (-1.0)) <= 1e-12
        assert jacobian_prediction(mu) == -1.0

    def test_two_point_formula(self):
        mu = SpectralMeasureCircle([-1.1, 0.7], [0.35, 0.65])
        det = spectral_to_verblunsky_jacobian(mu)
        pred = jacobian_prediction(mu)
        assert abs(det - pred) <= 1e-6 * abs(pred)

    def test_random_instances(self):
        gen = RngStream(9).generator()
        for n in (2, 3, 4):
            mu = random_measure(n, gen)
            det = spectral_to_verblunsky_jacobian(mu)
            pred = jacobian_prediction(mu)
            assert abs(det - pred) <= 1e-6 * abs(pred), (n, det, pred)

    def test_two_point_value_depends_only_on_angles(self):
        # at two support points the rho^2 factor equals
        # 2 w_1 w_2 (1 - cos(dtheta)), so the mass product cancels exactly
        mu = SpectralMeasureCircle([-1.1, 0.7], [0.35, 0.65])
        bumped = SpectralMeasureCircle(mu.theta, np.array([0.7, 0.65]) / 1.35)
        expected = -(1.0 - np.cos(mu.theta[1] - mu.theta[0]))
        assert jacobian_prediction(mu) == pytest.approx(expected, rel=1e-12)
        assert jacobian_prediction(bumped) == pytest.approx(expected, rel=1e-12)

    def test_weight_scaling_tracks_the_formula(self):
        # doubling one weight before renormalizing moves the value through
        # the mass and rho products; the numeric determinant must follow
        mu = SpectralMeasureCircle([-1.4, 0.2, 1.7], [0.3, 0.3, 0.4])
        bumped = SpectralMeasureCircle(mu.theta, np.array([0.6, 0.3, 0.4]) / 1.3)
        predicted_ratio = jacobian_prediction(bumped) / jacobian_prediction(mu)
        numeric_ratio = spectral_to_verblunsky_jacobian(bumped) / spectral_to_verblunsky_jacobian(mu)
        assert abs(predicted_ratio - 1.0) > 0.01
        assert numeric_ratio == pytest.approx(predicted_ratio, rel=1e-6)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_matches_the_column_loop(self, n):
        # the exact determinant against the hand-written finite-difference
        # column loop, with its phase unwrap, within the loop's accuracy
        gen = RngStream(200 + n).generator()
        for _ in range(3):
            mu = random_measure(n, gen)
            loop = oracles.spectral_jacobian_loop(mu)
            assert abs(spectral_to_verblunsky_jacobian(mu) - loop) <= 1e-6 * abs(loop)
            assert np.linalg.det(oracles.chart_jacobian_fd(mu)) == loop

    def test_branch_proximity(self):
        # differencing arg(alpha_{n-1}) needs a margin from the cut; the
        # exact phase row Im(dalpha / alpha) does not
        mu = SpectralMeasureCircle([np.pi - 0.05], [1.0])
        with pytest.raises(oracles.BranchProximity):
            oracles.chart_jacobian_fd(mu)
        assert spectral_to_verblunsky_jacobian(mu) == pytest.approx(-1.0, abs=1e-15)


def stratified_measure(n, gen):
    """n angles one per arc of 2 pi / n, jittered by a quarter arc and
    rotated, with weights drawn from [0.5, 1.5] and normalized."""
    theta = gen.uniform(-np.pi, np.pi) + (np.arange(n) + 0.5 + gen.uniform(-0.25, 0.25, n)) * 2.0 * np.pi / n
    weights = gen.uniform(0.5, 1.5, n)
    return SpectralMeasureCircle(theta, weights / weights.sum())


def relative_gap(exact, fd):
    """Worst row of |exact - fd|, each row relative to max(its fd scale, 1)."""
    scale = np.maximum(np.abs(fd).max(axis=1), 1.0)
    return float((np.abs(exact - fd).max(axis=1) / scale).max())


class TestExactBrackets:
    @pytest.mark.parametrize("n", [2, 4, 7])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_hamiltonian_bracket_is_the_lax_flow(self, n, m, part):
        # {alpha_k, Re K_m} and {alpha_k, Im K_m} are the (m, re) and (m, im)
        # flows of the hierarchy, field for field
        v = random_verblunsky(n, RngStream(100 + n), radius=0.6)
        d = 2 * (n - 1)
        grad = hamiltonian_gradients(v, (m,))[0]
        B = bracket_matrix(np.vstack([np.eye(d), grad.real if part == "re" else grad.imag]), v)
        field = al_vector_field(v, m, part)
        assert np.abs(B[0:d:2, d] + 1j * B[1:d:2, d] - field).max() <= 1e-14 * max(np.abs(field).max(), 1.0)

    def test_only_the_asked_degrees(self, probe):
        all_rows = hamiltonian_gradients(probe, (1, 2, 3))
        assert np.array_equal(hamiltonian_gradients(probe, (3, 1)), all_rows[[2, 0]])
        assert hamiltonian_gradients(probe, (2,)).shape == (1, 2 * (probe.n - 1))

    def test_unit_rows_give_the_coordinate_brackets(self, probe):
        # {u_k, v_k} = rho_k^2 and every other pair commutes, exactly
        d = 2 * (probe.n - 1)
        B = bracket_matrix(np.eye(d), probe)
        expected = np.zeros((d, d))
        expected[0::2, 1::2] = np.diag(probe.rho * probe.rho)
        assert np.array_equal(B, expected - expected.T)

    def test_spectral_rows_exactly_antisymmetric(self, probe):
        mu, dtheta, dlog = spectral_gradients(probe)
        B = bracket_matrix(np.vstack([dtheta, dlog]), probe)
        assert B.shape == (2 * probe.n, 2 * probe.n)
        assert np.array_equal(B, -B.T) and not np.diag(B).any()

    def test_total_mass_is_casimir(self, probe):
        # sum_j mu_j dlog mu_j = d(sum_j mu_j) = 0
        mu, _, dlog = spectral_gradients(probe)
        assert np.abs(mu.weights @ dlog).max() <= 1e-14

    def test_one_eigensolve_labels_by_angle(self, probe):
        mu, dtheta, dlog = spectral_gradients(probe)
        assert np.all(np.diff(mu.theta) > 0)
        assert dtheta.shape == dlog.shape == (probe.n, 2 * (probe.n - 1))


def suite_rows(suite, n, gen):
    """Exact gradient rows (or chart Jacobian) and their finite-difference
    oracle at one probe drawn as the suite draws it."""
    if suite == "jacobian":
        mu = random_measure(n, gen)
        return chart_jacobian(mu), oracles.chart_jacobian_fd(mu)
    if suite == "brackets":
        v = random_verblunsky(n, gen, radius=0.65)
        d = 2 * (n - 1)
        ham = hamiltonian_gradients(v, HAMILTONIAN_DEGREES)
        exact = np.vstack([np.eye(d), np.stack([ham.real, ham.imag], axis=1).reshape(-1, d)])

        def values(w):
            C = build_cmv(w)
            parts = [(k.real, k.imag) for k in (trace_hamiltonian(C, m) for m in HAMILTONIAN_DEGREES)]
            return np.concatenate([interior_coordinates(w), np.ravel(parts)])

        return exact, coordinate_jacobian(values, v)[0]
    gap, radius = (0.35, 0.6) if suite == "canonical" else (0.5, 0.55)
    v = random_verblunsky(n, gen, radius=radius, min_separation=probe_separation(gap, n))
    obs = SpectralObservables(v)
    _, dtheta, dlog = spectral_gradients(v)
    if suite == "canonical":
        exact = np.vstack([dtheta, dlog[: n - 1] - dlog[n - 1]])

        def values(w):
            theta, weights = obs.values(w)
            return np.concatenate([theta, np.log(weights[: n - 1] / weights[n - 1])])

        return exact, coordinate_jacobian(values, v)[0]
    i, j, k = gen.permutation(n)[:3]

    def ratios(w):
        weights = obs.values(w)[1]
        return np.log(weights[[j, k]] / weights[i])

    return dlog[[j, k]] - dlog[i], coordinate_jacobian(ratios, v)[0]


class TestExactAgainstTheOracle:
    @pytest.mark.parametrize(
        "suite,n",
        [(suite, n) for suite in SUITES for n in (1, 2, 3, 4, 6, 9, 12, 17) if n >= MIN_N[suite]],
    )
    def test_gradients_match_finite_differences(self, suite, n):
        # wherever the finite-difference engine passes (n <= 17)
        gen = RngStream(200 + n).generator()
        for _ in range(2):
            exact, fd = suite_rows(suite, n, gen)
            assert exact.shape == fd.shape
            assert relative_gap(exact, fd) <= 1e-6

    def test_suite_residuals_below_the_oracles(self):
        # same probe, same identity: the exact defect is at rounding level
        v = random_verblunsky(5, RngStream(12).generator(), radius=0.55, min_separation=0.5)
        exact = abs(cotangent_residual(v, (0, 2, 4)))
        fd = abs(oracles.cotangent_residual_scalar(v, (0, 2, 4)))
        assert exact <= 1e-12 < fd <= 1e-5


class TestExactJacobian:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64])
    def test_matches_the_closed_form(self, n):
        gen = RngStream(400 + n).generator()
        for _ in range(3):
            mu = stratified_measure(n, gen)
            pred = jacobian_prediction(mu)
            assert abs(spectral_to_verblunsky_jacobian(mu) - pred) <= 1e-12 * abs(pred)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=40).flatmap(lambda n: st.tuples(
        st.floats(min_value=-np.pi, max_value=np.pi),
        st.lists(st.floats(min_value=-0.25, max_value=0.25), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=n, max_size=n),
    )))
    def test_closed_form_on_separated_measures(self, case):
        shift, jitter, weights = case
        n = len(jitter)
        theta = shift + (np.arange(n) + 0.5 + np.array(jitter)) * 2.0 * np.pi / n
        mu = SpectralMeasureCircle(theta, np.array(weights) / np.sum(weights))
        pred = jacobian_prediction(mu)
        assert abs(spectral_to_verblunsky_jacobian(mu) - pred) <= 1e-12 * abs(pred)

    def test_chart_order(self):
        # columns (theta_1, mu_1, theta_2): rotating every angle by t moves
        # alpha_k by e^{-i (k + 1) t}, so only phi sees the angle sum
        mu = SpectralMeasureCircle([-1.1, 0.7], [0.35, 0.65])
        jac = chart_jacobian(mu)
        rotation = jac[:, 0] + jac[:, 2]
        alpha = oracles.szego_loop(mu, 2)
        assert rotation[:2] == pytest.approx([(-1j * alpha[0]).real, (-1j * alpha[0]).imag], abs=1e-15)
        assert rotation[2] == pytest.approx(-2.0, abs=1e-15)
