import numpy as np
import pytest

import reference
from cmvkit.alflows import al_vector_field
from cmvkit.brackets import (
    Observable,
    al_bracket,
    bracket_matrix,
    coordinate_gradient,
    coordinate_jacobian,
    coordinate_observables,
    cotangent_residual,
    hamiltonian_observables,
    interior_coordinates,
    jacobian_prediction,
    spectral_observables,
    spectral_to_verblunsky_jacobian,
    with_coordinates,
)
from cmvkit.core import SpectralMeasureCircle, VerblunskySet
from cmvkit.ensembles import RngStream, random_verblunsky
from cmvkit.errors import BranchProximity, DegenerateSpectrum, NonDifferentiable, RhoTooSmall
from cmvkit.verify import random_measure


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
        obs = [Observable("u_1", lambda w: w.alpha[1].real), hamiltonian_observables(probe, 2)[0]]
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
        obs = spectral_observables(probe)
        B, error = bracket_matrix(lambda w: np.concatenate(obs.values(w)), probe)
        assert B.shape == error.shape == (2 * probe.n, 2 * probe.n)
        assert np.array_equal(B, -B.T) and not np.diag(B).any()

    def test_al_bracket_reads_the_bracket_matrix(self, probe):
        u, v = coordinate_observables(probe, 1)
        B, error = bracket_matrix(lambda w: [u(w), v(w)], probe)
        rep = al_bracket(u, v, probe)
        assert (rep.value, rep.error) == (B[0, 1], error[0, 1])

    def test_conjugate_pair(self, probe):
        u, v = coordinate_observables(probe, 1)
        rep = al_bracket(u, v, probe)
        assert abs(rep.value - probe.rho[1] ** 2) <= 1e-9
        assert rep.error <= 1e-9

    def test_disjoint_coordinates_commute(self, probe):
        u0, v0 = coordinate_observables(probe, 0)
        u2, v2 = coordinate_observables(probe, 2)
        for f, g in [(u0, u2), (u0, v2), (v0, u2), (v0, v2)]:
            assert abs(al_bracket(f, g, probe).value) <= 1e-10

    def test_antisymmetry(self, probe):
        u, v = coordinate_observables(probe, 0)
        a = al_bracket(u, v, probe).value
        b = al_bracket(v, u, probe).value
        assert abs(a + b) <= 1e-10

    def test_complex_reconstruction(self, probe):
        # {a_k, conj(a_k)} = -2 i rho_k^2 from the four real brackets
        for k in range(probe.n - 1):
            u, v = coordinate_observables(probe, k)
            uu = al_bracket(u, u, probe).value
            uv = al_bracket(u, v, probe).value
            vu = al_bracket(v, u, probe).value
            vv = al_bracket(v, v, probe).value
            same = complex(uu + vv, vu - uv)
            assert abs(same - (-2j * probe.rho[k] ** 2)) <= 1e-9

    def test_leibniz_rule(self, probe):
        u0, v0 = coordinate_observables(probe, 0)
        u1, _ = coordinate_observables(probe, 1)
        fg = Observable("u0*u1", lambda w: w.alpha[0].real * w.alpha[1].real)
        lhs = al_bracket(fg, v0, probe).value
        rhs = u0(probe) * al_bracket(u1, v0, probe).value + u1(probe) * al_bracket(u0, v0, probe).value
        assert abs(lhs - rhs) <= 1e-5

    def test_probe_too_close_to_circle(self):
        # the stencil would leave the disk
        v = VerblunskySet([1.0 - 1e-9, 1.0])
        with pytest.raises(RhoTooSmall):
            al_bracket(*coordinate_observables(v, 0), v)


class TestSpectralObservables:
    def test_total_mass_is_casimir(self, probe):
        obs = spectral_observables(probe)
        u0, _ = coordinate_observables(probe, 0)
        rep = al_bracket(u0, obs.total_mass(), probe)
        assert abs(rep.value) <= 1e-9

    def test_angles_commute(self, probe):
        obs = spectral_observables(probe)
        rep = al_bracket(obs.theta(0), obs.theta(2), probe)
        assert abs(rep.value) <= 1e-6

    def test_canonical_pairing(self, probe):
        obs = spectral_observables(probe)
        n = probe.n
        for j in range(n - 1):
            for l in range(n - 1):
                half_log = Observable(
                    "half_log", lambda w, j=j: 0.5 * obs.log_mass_ratio(j, n - 1).fn(w)
                )
                val = al_bracket(obs.theta(l), half_log, probe).value
                assert abs(val - (1.0 if j == l else 0.0)) <= 1e-5

    def test_bracket_with_hamiltonian_reproduces_flow(self, probe):
        # {f, Re K_m} equals the chain-rule derivative of f along the flow
        re_k2, _ = hamiltonian_observables(probe, 2)
        field = al_vector_field(probe, 2, "re")
        for j in range(probe.n - 1):
            u, v = coordinate_observables(probe, j)
            assert abs(al_bracket(u, re_k2, probe).value - field[j].real) <= 1e-6
            assert abs(al_bracket(v, re_k2, probe).value - field[j].imag) <= 1e-6

    def test_first_flow_closed_form(self, probe):
        re_k1, _ = hamiltonian_observables(probe, 1)
        rho2 = probe.rho**2
        ext = np.concatenate([[-1.0 + 0j], probe.alpha])
        expected = 1j * rho2 * (ext[:-2] + ext[2:])
        for j in range(probe.n - 1):
            u, v = coordinate_observables(probe, j)
            got = complex(al_bracket(u, re_k1, probe).value, al_bracket(v, re_k1, probe).value)
            assert abs(got - expected[j]) <= 1e-7

    def test_degenerate_base_rejected(self):
        v = VerblunskySet([0.0, 1.0])  # angles 0 and pi, fine
        # squeeze two eigenvalues together: a nearly unimodular interior
        # coefficient nearly decouples the matrix; build a direct degenerate case
        with pytest.raises(DegenerateSpectrum):
            SpectralMeasureCircle([0.0, 1e-12], [0.5, 0.5])

    def test_single_interior_bracket_vanishes(self):
        v = random_verblunsky(1, RngStream(3))
        # n = 1: no interior coordinates, brackets of anything vanish
        obs = Observable("const", lambda w: abs(w.alpha[0]))
        rep = al_bracket(obs, obs, v)
        assert rep.value == 0.0

    def test_matching_ambiguous_far_from_base(self):
        from cmvkit.errors import MatchingAmbiguous

        base = random_verblunsky(4, RngStream(0).generator(), radius=0.6, min_separation=0.3)
        obs = spectral_observables(base)
        far = random_verblunsky(4, RngStream(1004).generator(), radius=0.6)
        probe = base.replace_interior(far.interior)
        with pytest.raises(MatchingAmbiguous):
            obs.theta(0).fn(probe)


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
        # the offset-chart stencil against the hand-written column loop,
        # with its phase unwrap, bit for bit
        gen = RngStream(200 + n).generator()
        for _ in range(3):
            mu = random_measure(n, gen)
            assert spectral_to_verblunsky_jacobian(mu) == reference.spectral_jacobian_loop(mu)

    def test_branch_proximity(self):
        mu = SpectralMeasureCircle([np.pi - 0.05], [1.0])
        with pytest.raises(BranchProximity):
            spectral_to_verblunsky_jacobian(mu)
