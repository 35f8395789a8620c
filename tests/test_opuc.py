import numpy as np
import pytest
from hypothesis import given, settings

from cmvkit.core import (
    SpectralMeasureCircle,
    VerblunskySet,
    build_cmv,
    build_jacobi,
)
from cmvkit.ensembles import EnsembleSpec, RngStream, coefficient_samples, random_verblunsky, sample_circular_beta
from cmvkit import opuc
from cmvkit.errors import (
    CmvError,
    IllConditioned,
    InvalidBoundary,
    InvalidParams,
    NotSymmetric,
    SupportAtRealAxis,
    SupportTooSmall,
)
from cmvkit.opuc import (
    christoffel_measure,
    gap_rotation,
    geronimus,
    geronimus_entries,
    jacobi_eigensystem,
    newton_angle_steps,
    szego_coefficients,
    szego_project,
    szego_rows,
    szego_tangents,
    unitary_angles,
    unitary_eigensystem,
    verblunsky_from_measure,
    verblunsky_rows,
)

from oracles import (
    ceiling_draws,
    christoffel_kernel_mp,
    christoffel_measure_mp,
    eigvals_angles,
    geronimus_loop,
    monic_opuc,
    paraorthogonal_zeros_mp,
    reversed_poly,
    schur_eigensystem,
    szego_loop,
    tridiagonal_eigensystem,
)
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

    @pytest.mark.parametrize("radius", [0.6, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 10, 64])
    def test_moments_are_powers_of_the_matrix(self, n, radius):
        # spectral theorem for the measure of e_1: sum_j w_j z_j^k = (C^k)[0, 0]
        for seed in range(4):
            C = build_cmv(random_set(np.random.default_rng(seed), n, radius=radius))
            mu = unitary_eigensystem(C)
            z = np.exp(1j * mu.theta)
            power = np.eye(n, dtype=complex)
            for k in range(n + 2):
                assert abs((mu.weights * z**k).sum() - power[0, 0]) <= 4e-15 * n
                power = power @ C.entries

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


def clustered_measure(n, gap, seed):
    """n uniform angles with the first two moved gap apart, and weights
    uniform on [0.1, 1]."""
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(-np.pi, np.pi, n))
    theta[1] = theta[0] + gap
    w = rng.uniform(0.1, 1.0, n)
    return SpectralMeasureCircle(theta, w / w.sum())


class TestAgainstScipyOracles:
    @pytest.mark.parametrize("radius", [0.6, 0.9, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64])
    def test_circle_measure_matches_schur(self, n, radius):
        for seed in range(4):
            C = build_cmv(random_set(np.random.default_rng(seed), n, radius=radius))
            mu, ref = unitary_eigensystem(C), schur_eigensystem(C)
            assert np.abs(mu.theta - ref.theta).max() <= 1e-14
            assert np.abs(mu.weights - ref.weights).max() <= 1e-13

    @pytest.mark.parametrize("gap", [1e-4, 1e-5, 1e-6, 1e-7])
    @pytest.mark.parametrize("n", [6, 12, 32])
    def test_clustered_spectrum_matches_schur(self, n, gap):
        # eig's unit vectors in a cluster are orthogonal only to about
        # eps / gap; without the renormalization their weights fail the
        # measure's sum check on most of these draws
        compared = 0
        for seed in range(10):
            try:
                C = build_cmv(verblunsky_from_measure(clustered_measure(n, gap, seed)))
                ref = schur_eigensystem(C)
            except CmvError:
                continue
            mu = unitary_eigensystem(C)
            assert np.abs(mu.theta - ref.theta).max() <= 1e-14
            assert np.abs(mu.weights - ref.weights).max() <= 1e-15 / gap
            compared += 1
        assert compared > 0

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_line_measure_matches_tridiagonal_solver(self, n):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            J = build_jacobi(rng.normal(size=n), rng.uniform(0.2, 1.5, n - 1))
            nu, ref = jacobi_eigensystem(J), tridiagonal_eigensystem(J)
            assert np.abs(nu.x - ref.x).max() <= 1e-14
            assert np.abs(nu.weights - ref.weights).max() <= 1e-14


def circular_stack(n, beta, count, seed):
    """The CMV matrices of count circular beta draws, as one stacked CMVMatrix."""
    gen = RngStream(seed).generator()
    alpha = np.array([sample_circular_beta(n, beta, gen).alpha for _ in range(count)])
    return build_cmv(VerblunskySet(alpha))


def circular_distance(a, b):
    d = np.abs(a - b)
    return np.minimum(d, 2.0 * np.pi - d).max()


def first_pass(C, phi=0.0):
    """The angles and max|eig H| of the first Cayley pass over the matrices of C."""
    stack = C.entries.reshape(-1, C.n, C.n)
    return opuc._cayley_pass(stack, np.full(len(stack), float(phi)))


def coarse_rows(C, phi=0.0):
    """The matrices of C whose first Cayley pass takes the Newton step."""
    lam_max = first_pass(C, phi)[1]
    return np.flatnonzero((lam_max > opuc.POLE_LIMIT) & (lam_max <= opuc.GAP_TRUST))


class TestUnitaryAngles:
    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 64])
    def test_agrees_with_eigvals(self, n, beta):
        C = circular_stack(n, beta, 20 if n == 64 else 300, n + int(beta))
        theta = unitary_angles(C)
        assert circular_distance(theta, eigvals_angles(C.entries)) <= 1e-12
        assert np.all(theta > -np.pi) and np.all(theta <= np.pi)
        assert np.all(np.diff(theta, axis=-1) >= 0.0)

    @pytest.mark.parametrize("n, count", [(2, 3000), (6, 400), (64, 12)])
    def test_stack_equals_single_matrices(self, n, count):
        # (2, 3000) spans several blocks; every size includes matrices
        # that take the Newton step
        C = circular_stack(n, 2.0, count, 40 + n)
        assert coarse_rows(C).size
        theta = unitary_angles(C)
        alpha = C.source.alpha
        assert np.array_equal(theta, np.array([unitary_angles(build_cmv(VerblunskySet(a))) for a in alpha]))
        halves = build_cmv(VerblunskySet(alpha.reshape(2, count // 2, n)))
        assert np.array_equal(unitary_angles(halves), theta.reshape(2, count // 2, n))

    @pytest.mark.parametrize("n, beta", [(n, b) for n in (2, 6, 17, 64) for b in (0.5, 2.0)])
    def test_refined_rows_reach_the_zeros(self, n, beta):
        # the first pass errs by up to about 7e-15 on these rows, which a
        # second dense pass only halves; one step lands within rounding of
        # the 40-digit zeros of Phi_n
        C = circular_stack(n, beta, 8 if n == 64 else 40, 90 + n)
        rows = coarse_rows(C)[: 2 if n == 64 else 6]
        assert rows.size
        theta = unitary_angles(C)
        for i in rows:
            exact = paraorthogonal_zeros_mp(C.source.alpha[i], theta[i])
            assert circular_distance(theta[i], exact) <= 1e-15

    def test_refined_ceiling_draws_reach_the_zeros(self):
        # the pole 1e-3 from the smallest eigenvalue puts every draw on the
        # Newton step (max|eig H| about 2e3), and every step is kept
        for v in ceiling_draws(64, 95, count=2):
            C = build_cmv(v)
            phi = unitary_angles(C)[0] + np.pi - 1e-3
            assert coarse_rows(C, phi).size == 1
            theta = unitary_angles(C, phi)
            assert theta.tobytes() != opuc._cayley_pass(C.entries[None], gap_rotation(first_pass(C, phi)[0]))[0].tobytes()
            assert circular_distance(theta, paraorthogonal_zeros_mp(v.alpha, theta)) <= 1e-15

    @pytest.mark.parametrize("distance", [1e-2, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_coarse_rows_reach_the_zeros_or_take_the_gap_pass(self, distance):
        # the pole `distance` from an eigenvalue: max|eig H| about 2 /
        # distance, and a first pass off by up to about 1e-3 eps max|eig H|^2.
        # A step that would leave more than rounding is not kept; its row
        # gets the second dense pass, bit for bit
        alpha = coefficient_samples(EnsembleSpec("circular", 17, 2.0), 2, RngStream(417))
        refined = 0
        for row in alpha:
            C = build_cmv(VerblunskySet(row))
            phi = unitary_angles(C)[8] + np.pi - distance
            assert coarse_rows(C, phi).size == 1
            theta = unitary_angles(C, phi)
            gap_pass = opuc._cayley_pass(C.entries[None], gap_rotation(first_pass(C, phi)[0]))[0][0]
            if theta.tobytes() != gap_pass.tobytes():
                refined += 1
                assert circular_distance(theta, paraorthogonal_zeros_mp(row, theta)) <= 1e-15
            assert circular_distance(theta, eigvals_angles(C.entries)) <= 1e-12
        # at 1e-4 the first passes are off by 2.2e-10 and 1.3e-9: one step
        # is kept and one is not
        assert refined == {1e-2: 2, 1e-4: 1}.get(distance, 0)

    def test_untrusted_rows_take_the_gap_pass(self, monkeypatch):
        # with no step trusted, each coarse row gets the second dense pass
        # with the pole in its largest gap, as it did before the step
        C = circular_stack(6, 2.0, 400, 46)
        rows = coarse_rows(C)
        assert rows.size
        monkeypatch.setattr(opuc, "DRIFT_TRUST", -1.0)
        theta = unitary_angles(C)
        coarse = first_pass(C)[0][rows]
        gap_pass = opuc._cayley_pass(C.entries[rows], gap_rotation(coarse))[0]
        assert np.array_equal(theta[rows], gap_pass)
        assert circular_distance(theta, eigvals_angles(C.entries)) <= 1e-12

    def test_single_site_near_the_pole(self):
        # the one eigenvalue conj(alpha_0), 1e-3 from the pole -1; the
        # step is trusted, since n = 1 allows any reach up to 2 DRIFT_TRUST
        for d in (1e-3, -1e-3):
            v = VerblunskySet([-np.exp(1j * d)])
            C = build_cmv(v)
            assert coarse_rows(C).size == 1
            assert circular_distance(unitary_angles(C), np.angle(np.conj(v.alpha))) <= 1e-15

    @pytest.mark.parametrize("alpha", [[-1.0], [0.0, 0.0, 0.0, 1.0]])
    def test_eigenvalue_at_pole(self, alpha):
        # I + C is exactly singular for both
        C = build_cmv(VerblunskySet(alpha))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.eye(len(alpha)) + C.entries)
        theta = unitary_angles(C)
        assert circular_distance(theta, eigvals_angles(C.entries)) <= 1e-12
        assert theta[-1] == np.pi

    def test_never_returns_minus_pi(self):
        # exp(i pi) has a tiny positive imaginary part, so the matrix entry
        # conj(alpha_0) has a tiny negative one and np.angle gives -pi
        C = build_cmv(VerblunskySet([np.exp(1j * np.pi)]))
        assert eigvals_angles(C.entries)[0] == -np.pi
        theta = unitary_angles(C)
        assert theta[0] > -np.pi and abs(theta[0] - np.pi) <= 1e-15

    @pytest.mark.parametrize("phi", [0.7, -2.0, np.pi, 5.0])
    def test_rotation_does_not_change_angles(self, phi):
        C = circular_stack(6, 1.0, 50, 9)
        assert circular_distance(unitary_angles(C, phi), eigvals_angles(C.entries)) <= 1e-12

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (0, 0), (3, 3)])
    def test_rejects_non_square(self, shape):
        # any plain array, square or not: the Newton step needs the
        # coefficients that only a CMVMatrix carries
        with pytest.raises(InvalidParams, match="CMVMatrix"):
            unitary_angles(np.zeros(shape))


class TestNewtonAngleSteps:
    @pytest.mark.parametrize(
        "n, radius", [(n, r) for n in (1, 2, 5, 17) for r in (0.6, 0.95, "ceiling") if n > 2 or r != "ceiling"]
    )
    def test_one_step_from_the_dense_angles_reaches_the_zeros(self, n, radius):
        # the dense angles err by up to about 5e-14; one step lands within
        # rounding of the 40-digit zeros of Phi_n, and the disk of the
        # reach holds the zero
        if radius == "ceiling":
            draws = list(ceiling_draws(n, 70 + n, count=3))
        else:
            gen = RngStream(70 + n).generator()
            draws = [random_set(gen, n, radius) for _ in range(3)]
        for v in draws:
            theta = unitary_angles(build_cmv(v))
            steps, reach, _ = newton_angle_steps(v.alpha, theta)
            exact = paraorthogonal_zeros_mp(v.alpha, theta)
            offset = np.angle(np.exp(1j * (exact - theta)))
            assert np.abs(steps - offset).max() <= 1e-15
            assert np.all(np.abs(offset) <= reach * (1.0 + 1e-6) + 1e-16)

    def test_rows_do_not_depend_on_each_other(self):
        gen = RngStream(77).generator()
        alpha = np.array([random_set(gen, 9, 0.9).alpha for _ in range(7)])
        theta = unitary_angles(build_cmv(VerblunskySet(alpha[0])))
        stacked = newton_angle_steps(alpha, theta)
        for i, row in enumerate(alpha):
            one = newton_angle_steps(row, theta)
            assert all(np.array_equal(a, b[i]) for a, b in zip(one, stacked))
        again = newton_angle_steps(alpha.reshape(7, 1, 9), theta)
        assert all(np.array_equal(a[:, 0], b) for a, b in zip(again, stacked))

    def test_one_row_of_angles_per_row(self):
        # a (7, 9) theta pairs row i of the angles with row i of alpha
        gen = RngStream(78).generator()
        alpha = np.array([random_set(gen, 9, 0.9).alpha for _ in range(7)])
        theta = unitary_angles(build_cmv(VerblunskySet(alpha)))
        paired = newton_angle_steps(alpha, theta)
        for i, row in enumerate(alpha):
            one = newton_angle_steps(row, theta[i])
            assert all(np.array_equal(a, b[i]) for a, b in zip(one, paired))


# The flows' forward map against 50-digit Christoffel weights at 50-digit
# zeros of Phi_n: largest relative weight error allowed, by (n, radius) of
# the test_core.random_set draws; measured values were at most a tenth of
# these.  At n = 64 and radius 0.9 or more the smallest weights lie below
# 1e-20 and the forward recursion loses part of their relative accuracy
# (7e-12, 6e-7 and 3e-2 measured at 0.9, 0.95 and the ceiling), but the
# inverse map raises IllConditioned there, so no flow reads them.  A
# coefficient at 1 - 1e-8 fixes rho only to about eps / 2e-8 relative,
# which no map of the double coefficients recovers: eig weights err as
# much (3.7e-9 measured).
CHRISTOFFEL_REL = 1e-14  # n <= 6, every radius
CHRISTOFFEL_REL_17 = 1e-13
CHRISTOFFEL_REL_64 = {0.6: 1e-12, 0.9: 1e-10, 0.95: 1e-5}
CEILING_REL, CEILING_ABS = 2e-8, 1e-14
# perfbench flow draws (--random --n 64, radius 0.6) whose spectral endpoint
# missed the rk4 one by 7.9e-9 and 1.2e-9 when the weights came from eig
MISS_SEEDS = (1611952284, 833461670)


def christoffel_draws(n, radius, count):
    if radius == "ceiling":
        return list(ceiling_draws(n, 110 + n, count=count))
    gen = RngStream(110 + n).generator()
    return [random_set(gen, n, radius) for _ in range(count)]


class TestChristoffelMeasure:
    """christoffel_measure: Cayley angles, one Newton step, then the
    Christoffel weights 1 / K at the refined angles."""

    @pytest.mark.parametrize(
        "n, radius", [(n, r) for n in (1, 2, 3, 6, 17) for r in (0.6, 0.9, 0.95, "ceiling") if n > 2 or r != "ceiling"]
    )
    def test_matches_mpmath(self, n, radius):
        for v in christoffel_draws(n, radius, 3):
            mu = christoffel_measure(build_cmv(v))
            theta, weights = christoffel_measure_mp(v.alpha, mu.theta)
            assert np.abs(mu.theta - theta).max() <= 1e-15
            rel = np.abs(mu.weights / weights - 1.0).max()
            if radius == "ceiling":
                assert rel <= CEILING_REL and np.abs(mu.weights - weights).max() <= CEILING_ABS
            else:
                assert rel <= (CHRISTOFFEL_REL_17 if n == 17 else CHRISTOFFEL_REL)

    @pytest.mark.parametrize("radius", [0.6, 0.9, 0.95, "ceiling"])
    def test_matches_mpmath_at_64(self, radius):
        (v,) = christoffel_draws(64, radius, 1)
        mu = christoffel_measure(build_cmv(v))
        theta, weights = christoffel_measure_mp(v.alpha, mu.theta)
        assert np.abs(mu.theta - theta).max() <= 1e-15
        if radius != 0.6:
            with pytest.raises(IllConditioned):
                verblunsky_from_measure(mu)
        if radius != "ceiling":
            assert np.abs(mu.weights / weights - 1.0).max() <= CHRISTOFFEL_REL_64[radius]

    @pytest.mark.parametrize("seed", MISS_SEEDS)
    def test_benchmark_misses_match_mpmath(self, seed):
        # smallest weights 3.2e-16 and 3.8e-14; one step from the Cayley
        # angles reaches the zeros within rounding
        v = random_verblunsky(64, RngStream(seed), radius=0.6)
        mu = christoffel_measure(build_cmv(v))
        theta, weights = christoffel_measure_mp(v.alpha, mu.theta)
        assert np.abs(mu.theta - theta).max() <= 1e-15
        assert np.abs(mu.weights / weights - 1.0).max() <= 1e-12

    @pytest.mark.parametrize(
        "n, radius", [(n, r) for n in (1, 2, 6, 17, 64) for r in (0.6, 0.9, "ceiling") if n > 2 or r != "ceiling"]
    )
    def test_kernel_matches_the_summed_oracle(self, n, radius):
        # anywhere on the circle, not only at zeros; measured at most
        # 4e-14 relative (5e-9 at the ceiling, rho's own error)
        gen = RngStream(120 + n).generator()
        for v in christoffel_draws(n, radius, 2):
            theta = gen.uniform(-np.pi, np.pi, 8)
            kernel = newton_angle_steps(v.alpha, theta)[2]
            bound = CEILING_REL if radius == "ceiling" else 1e-12
            assert np.abs(kernel / christoffel_kernel_mp(v.alpha, theta) - 1.0).max() <= bound


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
        # a measure's angles and weight rows in its order are canonical as they are
        theta, w = self.weight_stack(n)
        alphas = szego_rows(theta, w, n)
        states = verblunsky_rows(theta, w)
        assert states.shape == (w.shape[0], n)
        for i in range(w.shape[0]):
            mu = SpectralMeasureCircle(theta, w[i])
            assert alphas[i].tobytes() == szego_loop(mu, n).tobytes()
            assert alphas[i].tobytes() == szego_coefficients(mu, n).tobytes()
            assert states[i].tobytes() == verblunsky_from_measure(mu).alpha.tobytes()

    def test_partial_rows(self):
        t, rows = self.weight_stack(6)
        assert np.array_equal(szego_rows(t, rows, 3), szego_rows(t, rows, 6)[:, :3])

    def test_one_collapsed_row_raises(self):
        t, rows = np.array([0.0, 1.0, 2.0]), np.array([[0.2, 0.3, 0.5], [1.0 - 2e-14, 1e-14, 1e-14]])
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
        t, rows = TestStackedSzego.weight_stack(n, rows=1)
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
        with pytest.raises(IllConditioned):
            szego_tangents(np.array([0.0, 1.0, 2.0]), np.array([1.0 - 2e-14, 1e-14, 1e-14]))


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
