import numpy as np
import pytest
from hypothesis import given, settings

from cmvkit.core import (
    CMVMatrix,
    SpectralMeasureCircle,
    SpectralMeasureLine,
    VerblunskySet,
    batched_lm_factors,
    build_cmv,
    build_cmv_stack,
    build_jacobi,
    check_cmv,
    circle_weights,
    lm_factors,
    principal_angle,
    verblunsky_block,
)
from cmvkit.errors import DegenerateSpectrum, NonPositiveOffDiagonal, OutOfRange

from reference import cmv_pattern, lm_factors_loop
from strategies import verblunsky_sets


def random_set(rng, n, radius=0.99):
    mods = radius * np.sqrt(rng.random(n - 1))
    args = rng.uniform(-np.pi, np.pi, n)
    interior = mods * np.exp(1j * args[:-1])
    return VerblunskySet(np.concatenate([interior, [np.exp(1j * args[-1])]]))


class TestVerblunskySet:
    def test_rho_cached(self):
        v = VerblunskySet([0.3 + 0.4j, 1.0])
        assert v.rho.shape == (1,)
        assert abs(v.rho[0] ** 2 + abs(v.alpha[0]) ** 2 - 1.0) < 1e-14

    def test_boundary_renormalized(self):
        v = VerblunskySet([0.0, (1.0 + 5e-13) * np.exp(0.3j)])
        assert abs(abs(v.alpha[-1]) - 1.0) == 0.0

    def test_interior_too_large_rejected(self):
        with pytest.raises(OutOfRange):
            VerblunskySet([1.0 - 1e-13, 1.0])

    def test_boundary_off_circle_rejected(self):
        with pytest.raises(OutOfRange):
            VerblunskySet([0.0, 0.5])

    def test_immutable(self):
        v = VerblunskySet([0.1, 1.0])
        with pytest.raises(ValueError):
            v.alpha[0] = 0.0

    def test_replace_interior(self):
        v = VerblunskySet([0.1, 0.2, -1.0])
        w = v.replace_interior([0.3j, 0.0])
        assert w.alpha[-1] == v.alpha[-1]
        assert w.alpha[0] == 0.3j


class TestBlocks:
    def test_zero_coefficient(self):
        assert np.array_equal(verblunsky_block(0.0), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_unimodular_coefficient(self):
        assert np.array_equal(verblunsky_block(1.0), np.array([[1, 0], [0, -1]], dtype=complex))

    def test_hand_value(self):
        # rho = sqrt(1 - 0.36) = 0.8
        expected = np.array([[-0.6j, 0.8], [0.8, -0.6j]])
        assert np.abs(verblunsky_block(0.6j) - expected).max() < 1e-15

    def test_block_unitary(self):
        b = verblunsky_block(0.3 - 0.5j)
        assert np.abs(b.conj().T @ b - np.eye(2)).max() < 1e-15


class TestLMFactors:
    def test_n2_free(self):
        L, M = lm_factors(VerblunskySet([0.0, 1.0]))
        assert np.array_equal(L, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(M, np.eye(2, dtype=complex))

    def test_n1_degenerate(self):
        psi = 0.77
        L, M = lm_factors(VerblunskySet([np.exp(1j * psi)]))
        assert np.allclose(L, [[np.exp(-1j * psi)]])
        assert np.array_equal(M, np.array([[1.0 + 0j]]))

    def test_n3_block_layout(self):
        L, M = lm_factors(VerblunskySet([0.0, 0.0, 1.0]))
        expected_L = np.zeros((3, 3), dtype=complex)
        expected_L[:2, :2] = [[0, 1], [1, 0]]
        expected_L[2, 2] = 1.0
        expected_M = np.zeros((3, 3), dtype=complex)
        expected_M[0, 0] = 1.0
        expected_M[1:, 1:] = [[0, 1], [1, 0]]
        assert np.array_equal(L, expected_L)
        assert np.array_equal(M, expected_M)

    @pytest.mark.parametrize("n", [*range(1, 10), 64])
    def test_bit_identical_to_block_loop(self, n):
        v = random_set(np.random.default_rng(n), n)
        L, M = lm_factors(v)
        L0, M0 = lm_factors_loop(v.alpha)
        assert np.array_equal(L, L0) and np.array_equal(M, M0)
        assert np.array_equal(build_cmv(v).entries, L0 @ M0)
        assert np.abs(L @ M - cmv_pattern(v)).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_stack_matches_block_loop(self, n):
        rng = np.random.default_rng(100 + n)
        sets = [random_set(rng, n) for _ in range(7)]
        L, M = batched_lm_factors(np.array([v.alpha for v in sets]))
        assert L.shape == M.shape == (7, n, n)
        for i, v in enumerate(sets):
            L0, M0 = lm_factors_loop(v.alpha)
            assert np.array_equal(L[i], L0) and np.array_equal(M[i], M0)

    def test_stack_rejects_coefficient_outside_disk(self):
        with pytest.raises(OutOfRange):
            batched_lm_factors(np.array([[0.1, 1.0], [1.1j, 1.0]]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(verblunsky_sets(max_n=9))
    def test_factors_unitary_and_symmetric(self, v):
        for f in lm_factors(v):
            assert np.abs(f.conj().T @ f - np.eye(v.n)).max() <= 1e-12
            assert np.abs(f - f.T).max() <= 1e-12


class TestBuildCMV:
    def test_n2_free_case(self):
        c = build_cmv(VerblunskySet([0.0, 1.0]))
        assert np.array_equal(c.entries, np.array([[0, 1], [1, 0]], dtype=complex))

    @pytest.mark.parametrize("psi", [0.0, 0.9, -2.4])
    def test_n2_eigenvalues(self, psi):
        # C = [[0, conj(a1)], [1, 0]] has eigenvalues +-exp(-i psi / 2)
        c = build_cmv(VerblunskySet([0.0, np.exp(1j * psi)]))
        lam = np.sort_complex(np.linalg.eigvals(np.asarray(c.entries)))
        expected = np.sort_complex(np.array([np.exp(-0.5j * psi), -np.exp(-0.5j * psi)]))
        assert np.abs(lam - expected).max() < 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(verblunsky_sets(max_n=10))
    def test_matches_entry_pattern(self, v):
        c = build_cmv(v)
        assert np.abs(c.entries - cmv_pattern(v)).max() <= 1e-14

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(verblunsky_sets(max_n=10))
    def test_rebuild_is_bit_deterministic(self, v):
        a = build_cmv(v).entries
        b = build_cmv(v).entries
        assert np.array_equal(a, b)

    def test_structure_sweep(self):
        rng = np.random.default_rng(20240817)
        for _ in range(250):
            n = int(rng.integers(2, 17))
            v = random_set(rng, n)
            c = build_cmv(v)  # construction re-checks all type invariants
            entries = np.asarray(c.entries)
            assert np.abs(entries.conj().T @ entries - np.eye(n)).max() <= 1e-12
            det = np.linalg.det(entries)
            assert abs(det - (-1.0) ** (n - 1) * np.conj(v.alpha[-1])) <= 1e-10

    def test_unitarity_residual_kept(self):
        c = build_cmv(random_set(np.random.default_rng(5), 7))
        e = c.entries
        assert c.unitarity == float(np.abs(e.conj().T @ e - np.eye(7)).max())

    def test_invalid_entries_rejected(self):
        v = VerblunskySet([0.0, 1.0])
        with pytest.raises(OutOfRange):
            CMVMatrix(np.eye(2) * 0.5, v)


class TestStackedCheck:
    @staticmethod
    def states(n=6, k=5):
        rng = np.random.default_rng(n)
        states = [random_set(rng, n, radius=0.8) for _ in range(k)]
        if n >= 2:
            # alpha_{n-2} = 0 keeps the trace identity blind to the boundary phase
            states[2] = states[2].replace_interior(np.concatenate([states[2].interior[:-1], [0.0]]))
        return states

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 17, 64])
    def test_stack_equals_cmv_matrices(self, n):
        states = self.states(n)
        entries, unitarity = build_cmv_stack(states)
        for v, e, u in zip(states, entries, unitarity):
            c = build_cmv(v)
            assert e.tobytes() == c.entries.tobytes()
            assert u.tobytes() == np.float64(c.unitarity).tobytes()
            assert u == np.abs(e.conj().T @ e - np.eye(n)).max()

    @pytest.mark.parametrize("invariant, message", [
        ("unitarity", "unitarity residual"),
        ("band", "five-diagonal band"),
        ("trace", "trace identity"),
        ("determinant", "determinant identity"),
    ])
    def test_one_bad_matrix_raises_as_cmv_matrix_does(self, invariant, message):
        states = self.states()
        entries, _ = build_cmv_stack(states)
        alpha = np.array([v.alpha for v in states])
        j = 2
        if invariant == "unitarity":
            entries[j] *= 1.0 + 1e-9
        elif invariant == "band":
            entries[j, 0, -1] = 1e-14
        elif invariant == "trace":
            alpha[j, 0] += 0.01
        else:
            alpha[j, -1] *= np.exp(0.5j)
        with pytest.raises(OutOfRange) as stacked:
            check_cmv(entries, alpha)
        with pytest.raises(OutOfRange) as single:
            CMVMatrix(entries[j], VerblunskySet(alpha[j]))
        assert message in str(stacked.value) and str(stacked.value) == str(single.value)


class TestJacobi:
    def test_single_entry(self):
        j = build_jacobi([0.0], [])
        assert j.to_dense().shape == (1, 1)

    def test_two_site_eigenvalues(self):
        j = build_jacobi([0.0, 0.0], [1.0])
        lam = np.linalg.eigvalsh(j.to_dense())
        assert np.abs(lam - [-1.0, 1.0]).max() < 1e-14

    def test_nonpositive_offdiagonal(self):
        with pytest.raises(NonPositiveOffDiagonal):
            build_jacobi([0.0, 0.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(OutOfRange):
            build_jacobi([0.0, 0.0], [1.0, 1.0])


class TestCircleWeights:
    def test_rows_equal_measures(self):
        rng = np.random.default_rng(3)
        theta = rng.permutation(np.linspace(-3.0, 3.0, 7))
        w = rng.uniform(0.5, 1.5, (9, 7))
        w /= w.sum(axis=1, keepdims=True)
        t, rows = circle_weights(theta, w)
        assert rows.flags.c_contiguous
        for row, wi in zip(rows, w):
            mu = SpectralMeasureCircle(theta, wi)
            assert t.tobytes() == mu.theta.tobytes() and row.tobytes() == mu.weights.tobytes()

    def test_any_bad_row_rejected(self):
        w = np.full((3, 4), 0.25)
        w[1, 0] = 0.5
        with pytest.raises(OutOfRange, match="sum to 1.25"):
            circle_weights([0.0, 1.0, 2.0, 3.0], w)


class TestMeasures:
    def test_circle_sorted_and_normalized(self):
        mu = SpectralMeasureCircle([2.0, -1.0], [0.25, 0.75])
        assert np.array_equal(mu.theta, [-1.0, 2.0])
        assert abs(mu.weights.sum() - 1.0) == 0.0
        assert np.array_equal(mu.weights, [0.75, 0.25])

    def test_circle_wraps_to_principal_branch(self):
        mu = SpectralMeasureCircle([np.pi + 0.5], [1.0])
        assert -np.pi < mu.theta[0] <= np.pi

    @pytest.mark.parametrize("theta", [np.pi, -np.pi])
    def test_pi_and_minus_pi_map_to_pi(self, theta):
        assert principal_angle(theta) == np.pi
        assert np.array_equal(principal_angle(np.array([theta, 0.5])), [np.pi, 0.5])

    @pytest.mark.parametrize("theta", [3 * np.pi, -3 * np.pi])
    def test_odd_multiples_of_pi_stay_in_branch(self, theta):
        # 3 pi is not a float; its nearest double lands within an ulp of +-pi
        t = principal_angle(theta)
        assert -np.pi < t <= np.pi and np.pi - abs(t) <= 1e-15

    def test_circle_point_at_minus_pi_stored_as_pi(self):
        mu = SpectralMeasureCircle([-np.pi, 0.5], [0.5, 0.5])
        assert np.array_equal(mu.theta, [0.5, np.pi])

    def test_circle_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            SpectralMeasureCircle([0.0, 1e-11], [0.5, 0.5])

    def test_circle_wraparound_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            SpectralMeasureCircle([np.pi - 1e-12, -np.pi + 1e-12], [0.5, 0.5])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(OutOfRange):
            SpectralMeasureCircle([0.0, 1.0], [0.5, 0.6])

    def test_line_sorted(self):
        nu = SpectralMeasureLine([3.0, -1.0], [0.5, 0.5])
        assert np.array_equal(nu.x, [-1.0, 3.0])

    def test_line_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            SpectralMeasureLine([0.0, 5e-11], [0.5, 0.5])
