import numpy as np
import pytest
from hypothesis import given, settings

from cmvkit.core import (
    SpectralMeasureCircle,
    VerblunskySet,
    batched_lm_factors,
    build_cmv,
    build_jacobi,
    circle_weights,
)
from cmvkit.ensembles import RngStream, sample_circular_beta
from cmvkit.errors import (
    IllConditioned,
    InvalidBoundary,
    NotSymmetric,
    OutOfRange,
    SupportAtRealAxis,
    SupportTooSmall,
)
from cmvkit.opuc import (
    geronimus,
    geronimus_entries,
    jacobi_eigensystem,
    szego_coefficients,
    szego_project,
    szego_rows,
    szego_tangents,
    unitary_angles,
    unitary_eigensystem,
    verblunsky_from_measure,
    verblunsky_rows,
)

from oracles import eigvals_angles, geronimus_loop, monic_opuc, reversed_poly, szego_loop
from strategies import verblunsky_sets
from test_core import random_set


class TestEigensystems:
    def test_free_two_site(self):
        mu = unitary_eigensystem(build_cmv(VerblunskySet([0.0, 1.0])))
        assert np.abs(mu.theta - [0.0, np.pi]).max() < 1e-12 or np.abs(np.sort(np.abs(mu.theta)) - [0.0, np.pi]).max() < 1e-12
        assert np.abs(mu.weights - 0.5).max() < 1e-12

    def test_single_site(self):
        psi = 1.3
        mu = unitary_eigensystem(build_cmv(VerblunskySet([np.exp(1j * psi)])))
        assert abs(mu.theta[0] + psi) < 1e-14
        assert mu.weights[0] == 1.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        v = random_set(rng, 9, radius=0.9)
        mu = unitary_eigensystem(build_cmv(v))
        assert abs(mu.weights.sum() - 1.0) <= 1e-15

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(3)
        v = random_set(rng, 10, radius=0.9)
        c = np.asarray(build_cmv(v).entries)
        import scipy.linalg

        t, q = scipy.linalg.schur(c, output="complex")
        lam = np.diag(t)
        resid = np.abs(c @ q - q @ np.diag(lam)).max()
        assert resid <= 1e-11

    def test_jacobi_single(self):
        nu = jacobi_eigensystem(build_jacobi([1.5], []))
        assert nu.x[0] == 1.5 and nu.weights[0] == 1.0

    def test_jacobi_two_site(self):
        nu = jacobi_eigensystem(build_jacobi([0.0, 0.0], [1.0]))
        assert np.abs(nu.x - [-1.0, 1.0]).max() < 1e-14
        assert np.abs(nu.weights - 0.5).max() < 1e-14

    def test_jacobi_weights_positive(self):
        rng = np.random.default_rng(11)
        j = build_jacobi(rng.normal(size=6), rng.uniform(0.2, 1.5, 5))
        nu = jacobi_eigensystem(j)
        assert nu.weights.min() > 0.0
        assert abs(nu.weights.sum() - 1.0) <= 1e-15


def circular_stack(n, beta, count, seed):
    gen = RngStream(seed).generator()
    alpha = np.array([sample_circular_beta(n, beta, gen).alpha for _ in range(count)])
    L, M = batched_lm_factors(alpha)
    return L @ M


def circular_distance(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 2.0 * np.pi - d).max()


class TestUnitaryAngles:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 64])
    def test_agrees_with_eigvals(self, n, beta):
        U = circular_stack(n, beta, 20 if n == 64 else 300, n + int(beta))
        theta = unitary_angles(U)
        assert circular_distance(theta, eigvals_angles(U)) <= 1e-12
        assert np.all(theta > -np.pi) and np.all(theta <= np.pi)
        assert np.all(np.diff(theta, axis=-1) >= 0.0)

    @pytest.mark.parametrize("n, count", [(2, 3000), (6, 400), (64, 12)])
    def test_stack_equals_single_matrices(self, n, count):
        # (2, 3000) spans several blocks; every size includes matrices
        # that need the second pass
        U = circular_stack(n, 2.0, count, 40 + n)
        theta = unitary_angles(U)
        assert np.array_equal(theta, np.array([unitary_angles(u) for u in U]))
        assert np.array_equal(unitary_angles(U.reshape(2, count // 2, n, n)), theta.reshape(2, count // 2, n))

    @pytest.mark.parametrize("alpha", [[-1.0], [0.0, 0.0, 0.0, 1.0]])
    def test_eigenvalue_at_pole(self, alpha):
        # I + C is exactly singular for both
        C = build_cmv(VerblunskySet(alpha)).entries
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.eye(len(alpha)) + C)
        theta = unitary_angles(C)
        assert circular_distance(theta, eigvals_angles(C)) <= 1e-12
        assert theta[-1] == np.pi

    def test_never_returns_minus_pi(self):
        # exp(-i pi) has a tiny negative imaginary part, so np.angle gives -pi
        U = np.diag(np.exp(1j * np.array([-np.pi, 0.5])))
        assert eigvals_angles(U)[0] == -np.pi
        theta = unitary_angles(U)
        assert theta[0] > -np.pi and np.abs(theta - [0.5, np.pi]).max() <= 1e-15

    @pytest.mark.parametrize("phi", [0.7, -2.0, np.pi, 5.0])
    def test_rotation_does_not_change_angles(self, phi):
        U = circular_stack(6, 1.0, 50, 9)
        assert circular_distance(unitary_angles(U, phi), eigvals_angles(U)) <= 1e-12

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (0, 0)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(OutOfRange):
            unitary_angles(np.zeros(shape))


def evaluate(c, z):
    """The polynomial with ascending coefficients c at the points z."""
    return np.polyval(np.asarray(c)[::-1], z)


class TestMonicPolynomials:
    """The Gram-Schmidt oracle that test_recurrence_links_both_routes
    checks the Szego recursion against."""

    def test_symmetric_two_point(self):
        mu = SpectralMeasureCircle([0.0, np.pi], [0.5, 0.5])
        polys = monic_opuc(mu, 1)
        assert np.abs(polys[1] - [0.0, 1.0]).max() < 1e-15

    def test_top_degree_vanishes_on_support(self):
        rng = np.random.default_rng(5)
        v = random_set(rng, 6, radius=0.8)
        mu = unitary_eigensystem(build_cmv(v))
        top = monic_opuc(mu, mu.n)[-1]
        expected = np.poly(mu.points)[::-1]  # ascending monic coefficients
        assert np.abs(top - expected).max() < 1e-8
        assert np.abs(evaluate(top, mu.points)).max() < 1e-10

    def test_orthogonality(self):
        rng = np.random.default_rng(9)
        v = random_set(rng, 8, radius=0.85)
        mu = unitary_eigensystem(build_cmv(v))
        polys = monic_opuc(mu, mu.n - 1)
        assert all(c.size == k + 1 and c[-1] == 1.0 for k, c in enumerate(polys))
        vals = [evaluate(c, mu.points) for c in polys]
        for i in range(len(vals)):
            for j in range(i):
                inner = np.sum(mu.weights * vals[i] * np.conj(vals[j]))
                ni = np.sqrt(np.sum(mu.weights * np.abs(vals[i]) ** 2))
                nj = np.sqrt(np.sum(mu.weights * np.abs(vals[j]) ** 2))
                assert abs(inner) / (ni * nj) <= 1e-8

    def test_first_polynomial_recovers_first_coefficient(self):
        mu = unitary_eigensystem(build_cmv(VerblunskySet([0.0, 1.0])))
        phi1 = monic_opuc(mu, 1)[1]
        assert abs(-np.conj(phi1[0]) - 0.0) < 1e-14

    def test_support_too_small(self):
        mu = SpectralMeasureCircle([0.0, np.pi], [0.5, 0.5])
        with pytest.raises(SupportTooSmall):
            monic_opuc(mu, 3)


class TestReversedPoly:
    def test_linear(self):
        assert np.array_equal(reversed_poly([0.0, 1.0]), [1.0, 0.0])

    def test_hand_example(self):
        p = np.array([2j, 1 + 1j, 1.0])
        assert np.abs(reversed_poly(p) - np.array([1.0, 1 - 1j, -2j])).max() == 0.0

    def test_constant_term_of_reversal(self):
        p = np.array([0.5 - 0.2j, 0.1j, 1.0])
        assert reversed_poly(p)[-1] == np.conj(p[0])
        assert reversed_poly(p)[0] == 1.0  # conj of the leading coefficient

    def test_reversal_identity_on_circle(self):
        # Phi*(z) = z^k conj(Phi(1/conj(z))) on |z| = 1
        p = np.array([0.3 + 0.1j, -0.4j, 1.0])
        z = np.exp(1j * np.linspace(-3.0, 3.0, 11))
        lhs = evaluate(reversed_poly(p), z)
        rhs = z ** (p.size - 1) * np.conj(evaluate(p, 1.0 / np.conj(z)))
        assert np.abs(lhs - rhs).max() < 1e-14

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(verblunsky_sets(min_n=2, max_n=6, radius=0.8))
    def test_involution(self, v):
        mu = unitary_eigensystem(build_cmv(v))
        for c in monic_opuc(mu, min(mu.n, 3)):
            twice = np.conj(reversed_poly(c)[::-1])
            assert np.array_equal(twice, c)


class TestInverseSpectralMap:
    def test_two_point_symmetric(self):
        mu = SpectralMeasureCircle([0.0, np.pi], [0.5, 0.5])
        v = verblunsky_from_measure(mu)
        assert np.abs(v.alpha - [0.0, 1.0]).max() < 1e-14

    def test_single_point(self):
        theta = -0.8
        v = verblunsky_from_measure(SpectralMeasureCircle([theta], [1.0]))
        assert abs(v.alpha[0] - np.exp(-1j * theta)) < 1e-14

    def test_boundary_coefficient_formula(self):
        rng = np.random.default_rng(13)
        v = random_set(rng, 7, radius=0.85)
        mu = unitary_eigensystem(build_cmv(v))
        got = verblunsky_from_measure(mu).alpha[-1]
        expected = (-1.0) ** (mu.n - 1) * np.conj(np.prod(mu.points))
        assert abs(got - expected) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            v = random_set(rng, n, radius=0.9)
            mu = unitary_eigensystem(build_cmv(v))
            v2 = verblunsky_from_measure(mu)
            assert np.abs(v.alpha - v2.alpha).max() <= 1e-8

    def test_recurrence_links_both_routes(self):
        # Gram-Schmidt polynomials must satisfy the coefficient recursion
        # with the coefficients recovered by the Szego recursion.
        rng = np.random.default_rng(21)
        v = random_set(rng, 7, radius=0.8)
        mu = unitary_eigensystem(build_cmv(v))
        polys = monic_opuc(mu, mu.n)
        alphas = szego_coefficients(mu, mu.n)
        z = mu.points
        for k in range(mu.n):
            lhs = evaluate(polys[k + 1], z)
            rhs = z * evaluate(polys[k], z) - np.conj(alphas[k]) * evaluate(reversed_poly(polys[k]), z)
            scale = max(np.abs(z * evaluate(polys[k], z)).max(), 1e-30)
            assert np.abs(lhs - rhs).max() / scale <= 1e-8

    def test_ill_conditioned_tiny_weight(self):
        mu = SpectralMeasureCircle([0.0, 1.0, 2.0], [1.0 - 2e-14, 1e-14, 1e-14])
        with pytest.raises(IllConditioned):
            verblunsky_from_measure(mu)

    def test_partial_recursion_matches_full(self):
        rng = np.random.default_rng(4)
        v = random_set(rng, 6, radius=0.8)
        mu = unitary_eigensystem(build_cmv(v))
        partial = szego_coefficients(mu, 3)
        assert np.abs(partial - verblunsky_from_measure(mu).alpha[:3]).max() < 1e-12


class TestStackedSzego:
    @staticmethod
    def weight_stack(n, rows=9):
        rng = np.random.default_rng(n)
        mu0 = unitary_eigensystem(build_cmv(random_set(rng, n, radius=0.7)))
        w = mu0.weights * rng.uniform(0.5, 1.5, (rows, n))
        return mu0.theta, w / w.sum(axis=1, keepdims=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16, 64])
    def test_rows_equal_single_measures(self, n):
        theta, w = self.weight_stack(n)
        t, rows = circle_weights(theta, w)
        alphas = szego_rows(t, rows, n)
        states = verblunsky_rows(t, rows)
        for i in range(w.shape[0]):
            mu = SpectralMeasureCircle(theta, w[i])
            assert alphas[i].tobytes() == szego_loop(mu, n).tobytes()
            assert alphas[i].tobytes() == szego_coefficients(mu, n).tobytes()
            assert states[i].alpha.tobytes() == verblunsky_from_measure(mu).alpha.tobytes()

    def test_partial_rows(self):
        t, rows = circle_weights(*self.weight_stack(6))
        assert np.array_equal(szego_rows(t, rows, 3), szego_rows(t, rows, 6)[:, :3])

    def test_one_collapsed_row_raises(self):
        t, rows = circle_weights([0.0, 1.0, 2.0], [[0.2, 0.3, 0.5], [1.0 - 2e-14, 1e-14, 1e-14]])
        with pytest.raises(IllConditioned):
            szego_rows(t, rows, 3)
        with pytest.raises(SupportTooSmall):
            szego_rows(t, rows, 4)


class TestSzegoTangents:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16, 64])
    def test_alpha_is_szego_coefficients(self, n):
        theta, rows = TestStackedSzego.weight_stack(n, rows=3)
        for w in rows:
            mu = SpectralMeasureCircle(theta, w)
            alpha, dalpha = szego_tangents(mu.theta, mu.weights)
            assert alpha.tobytes() == szego_coefficients(mu, n).tobytes()
            assert dalpha.shape == (n, 2 * n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16])
    def test_tangents_match_central_differences(self, n):
        # direction 2j moves theta_j, direction 2j + 1 moves weight j against weight n
        t, rows = circle_weights(*TestStackedSzego.weight_stack(n, rows=1))
        w = rows[0]
        h = 1e-6
        fd = np.empty((n, 2 * n - 1), dtype=complex)
        for d in range(2 * n - 1):
            step_t, step_w = np.zeros(n), np.zeros(n)
            if d % 2 == 0:
                step_t[d // 2] = h
            else:
                step_w[d // 2], step_w[-1] = h, -h
            plus = szego_rows(t + step_t, w + step_w, n)
            minus = szego_rows(t - step_t, w - step_w, n)
            fd[:, d] = (plus - minus) / (2.0 * h)
        dalpha = szego_tangents(t, w)[1]
        assert np.abs(dalpha - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)

    def test_collapsed_measure_raises(self):
        t, rows = circle_weights([0.0, 1.0, 2.0], [[1.0 - 2e-14, 1e-14, 1e-14]])
        with pytest.raises(IllConditioned):
            szego_tangents(t, rows[0])


class TestGeronimus:
    def test_free_coefficients(self):
        j = geronimus(VerblunskySet([0.0, 0.0, 0.0, 0.0, 0.0, -1.0]))
        assert np.abs(j.b).max() == 0.0
        assert np.abs(j.a - [np.sqrt(2.0), 1.0]).max() < 1e-15

    def test_single_site(self):
        j = geronimus(VerblunskySet([0.4, -1.0]))
        assert j.n == 1
        assert abs(j.b[0] - 0.8) < 1e-15

    def test_off_diagonal_positive(self):
        rng = np.random.default_rng(6)
        al = rng.uniform(-0.9, 0.9, 7)
        j = geronimus(VerblunskySet(np.concatenate([al, [-1.0]]).astype(complex)))
        assert j.a.min() > 0.0

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_stack_bit_identical_to_loop(self, m):
        rng = np.random.default_rng(m)
        al = np.concatenate([rng.uniform(-0.9, 0.9, (3, 4, 2 * m - 1)), np.full((3, 4, 1), -1.0)], axis=-1)
        b, a = geronimus_entries(al)
        assert b.shape == (3, 4, m) and a.shape == (3, 4, m - 1)
        for idx in np.ndindex(3, 4):
            b0, a0 = geronimus_loop(al[idx])
            assert np.array_equal(b[idx], b0) and np.array_equal(a[idx], a0)
            j = geronimus(VerblunskySet(al[idx].astype(complex)))
            assert np.array_equal(j.b, b0) and np.array_equal(j.a, a0)

    def test_wrong_boundary(self):
        with pytest.raises(InvalidBoundary):
            geronimus(VerblunskySet([0.1, 1.0]))

    def test_complex_coefficients_rejected(self):
        with pytest.raises(InvalidBoundary):
            geronimus(VerblunskySet([0.1j, 0.0, 0.2, -1.0]))

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidBoundary):
            geronimus(VerblunskySet([0.1, 0.2, -1.0]))

    def test_spectral_correspondence(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            al = rng.uniform(-0.85, 0.85, 2 * m - 1)
            v = VerblunskySet(np.concatenate([al, [-1.0]]).astype(complex))
            mu = unitary_eigensystem(build_cmv(v))
            jac = geronimus(v)
            lam = np.sort(np.linalg.eigvalsh(jac.to_dense()))
            folded = np.sort(2.0 * np.cos(np.abs(mu.theta)))[::2]
            assert np.abs(lam - folded).max() <= 1e-9
            nu_push = szego_project(mu)
            nu_spec = jacobi_eigensystem(jac)
            assert np.abs(nu_push.x - nu_spec.x).max() <= 1e-8
            assert np.abs(nu_push.weights - nu_spec.weights).max() <= 1e-8


class TestSzegoProject:
    def test_pair_at_imaginary_axis(self):
        mu = SpectralMeasureCircle([np.pi / 2, -np.pi / 2], [0.5, 0.5])
        nu = szego_project(mu)
        assert abs(nu.x[0]) < 1e-15 and nu.weights[0] == 1.0

    def test_two_pairs(self):
        mu = SpectralMeasureCircle(
            [np.pi / 3, -np.pi / 3, 2 * np.pi / 3, -2 * np.pi / 3], [0.25] * 4
        )
        nu = szego_project(mu)
        assert np.abs(nu.x - [-1.0, 1.0]).max() < 1e-14
        assert np.abs(nu.weights - 0.5).max() < 1e-15

    def test_mass_preserved(self):
        rng = np.random.default_rng(10)
        th = rng.uniform(0.3, np.pi - 0.3, 4)
        w = rng.uniform(0.5, 1.5, 8)
        mu = SpectralMeasureCircle(np.concatenate([th, -th]), w / w.sum())
        assert abs(szego_project(mu).weights.sum() - 1.0) < 1e-15

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            szego_project(SpectralMeasureCircle([0.5, -0.4], [0.5, 0.5]))

    def test_support_at_axis(self):
        with pytest.raises(SupportAtRealAxis):
            szego_project(SpectralMeasureCircle([1e-9, 1.0, -1.0], [0.4, 0.3, 0.3]))
