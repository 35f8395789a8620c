import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmvkit.core import (
    CMVMatrix,
    SpectralMeasureCircle,
    SpectralMeasureLine,
    VerblunskySet,
    build_cmv,
    build_jacobi,
    check_coefficient_rows,
    circular_gaps,
    coefficient_rho,
    factor_entries,
    lm_band_indices,
    lm_factors,
    principal_angle,
    renormalize_boundary,
    tridiagonal,
)
from cmvkit.alflows import FlowHamiltonian, Trajectory, _trace_gradient_blocks, check_cmv_band, propagated_weights
from cmvkit.ensembles import RngStream, random_verblunsky
from cmvkit.errors import DegenerateSpectrum, InvalidParams, NonPositiveOffDiagonal, OutOfRange
from cmvkit.opuc import christoffel_measure, jacobi_eigensystem, unitary_eigensystem, verblunsky_from_measure
from cmvkit.verify import random_measure

import oracles
from oracles import UNITARITY_AGREEMENT, ceiling_draws, check_cmv, cmv_pattern, lm_factors_loop
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(verblunsky_sets(min_n=2))
    def test_rho_is_the_kernels_rho(self, v):
        # bit for bit the rho of the factors and of the bracket kernel
        n, (L, M) = v.n, lm_factors(v)
        factors = np.array([(L if k % 2 == 0 else M)[k, k + 1] for k in range(n - 1)])
        kernel = _trace_gradient_blocks(v.alpha, (1,))[0]
        assert v.rho.tobytes() == factors.real.tobytes() == np.ascontiguousarray(kernel).tobytes()
        assert v.rho.tobytes() == coefficient_rho(v.interior).tobytes()


def first_block(a):
    """The 2x2 block of coefficient a: the L factor of [a, 1] is that block alone."""
    return lm_factors(VerblunskySet([a, 1.0]))[0]


class TestBlocks:
    def test_zero_coefficient(self):
        assert np.array_equal(first_block(0.0), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_unimodular_coefficient(self):
        # no interior coefficient of a VerblunskySet reaches the circle; the
        # layout's block there is diag(conj(a), -a), with rho = 0
        L = band_view_as_dense(np.array([1.0, 1.0], dtype=complex))[0]
        assert np.array_equal(L, np.array([[1, 0], [0, -1]], dtype=complex))

    def test_hand_value(self):
        # rho = sqrt(1 - 0.36) = 0.8
        expected = np.array([[-0.6j, 0.8], [0.8, -0.6j]])
        assert np.abs(first_block(0.6j) - expected).max() < 1e-15

    def test_block_unitary(self):
        b = first_block(0.3 - 0.5j)
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
        L, M = lm_factors(VerblunskySet(np.array([v.alpha for v in sets])))
        assert L.shape == M.shape == (7, n, n)
        for i, v in enumerate(sets):
            L0, M0 = lm_factors_loop(v.alpha)
            assert np.array_equal(L[i], L0) and np.array_equal(M[i], M0)

    def test_stack_rejects_coefficient_outside_disk(self):
        with pytest.raises(OutOfRange):
            lm_factors(VerblunskySet(np.array([[0.1, 1.0], [1.1j, 1.0]])))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(verblunsky_sets(max_n=9))
    def test_factors_unitary_and_symmetric(self, v):
        for f in lm_factors(v):
            assert np.abs(f.conj().T @ f - np.eye(v.n)).max() <= 1e-12
            assert np.abs(f - f.T).max() <= 1e-12


def band_view_as_dense(alpha):
    """The dense L and M of rows alpha (..., n), written entry by entry
    from the band view factor_entries(alpha)[..., lm_band_indices(n)]."""
    n = alpha.shape[-1]
    band = factor_entries(alpha)[..., lm_band_indices(n)]
    dense = np.zeros(alpha.shape[:-1] + (2, n, n), dtype=complex)
    for f in range(2):
        for i in range(n):
            for p in (-1, 0, 1):
                if 0 <= i + p < n:
                    dense[..., f, i, i + p] = band[..., f, 1 + i, 1 + p]
                else:
                    assert (band[..., f, 1 + i, 1 + p] == 0.0).all()
    assert (band[..., :, [0, n + 1], :] == 0.0).all()
    return dense[..., 0, :, :], dense[..., 1, :, :]


class TestSharedTable:
    """lm_band_indices is the one layout of L and M: the band view the
    kernels gather and the dense factors agree entry for entry."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 17, 64])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_band_view_is_the_dense_factors(self, n, stacked):
        alpha = draw_stack(n, 0.95, k=5 if stacked else 1)
        if not stacked:
            alpha = alpha[0]
        L, M = lm_factors(VerblunskySet(alpha))
        Lb, Mb = band_view_as_dense(alpha)
        assert L.tobytes() == Lb.tobytes() and M.tobytes() == Mb.tobytes()
        for row, (l0, m0) in zip(np.atleast_2d(alpha), zip(np.reshape(L, (-1, n, n)), np.reshape(M, (-1, n, n)))):
            Lo, Mo = lm_factors_loop(row)
            assert l0.tobytes() == Lo.tobytes() and m0.tobytes() == Mo.tobytes()

    def test_table_is_read_only_and_cached(self):
        table = lm_band_indices(6)
        assert table is lm_band_indices(6) and table.shape == (2, 8, 3)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1


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
            c = build_cmv(v)
            entries = np.asarray(c.entries)
            assert np.abs(entries.conj().T @ entries - np.eye(n)).max() <= 1e-12
            det = np.linalg.det(entries)
            assert abs(det - (-1.0) ** (n - 1) * np.conj(v.alpha[-1])) <= 1e-10

    def test_entries_derived_from_source(self):
        v = random_set(np.random.default_rng(5), 7)
        c = CMVMatrix(v)
        L, M = lm_factors(v)
        assert c.source is v and c.entries.tobytes() == (L @ M).tobytes()
        assert not c.entries.flags.writeable

    def test_invalid_entries_rejected(self):
        # entries are derived, never handed in
        v = VerblunskySet([0.0, 1.0])
        with pytest.raises(TypeError):
            CMVMatrix(np.eye(2) * 0.5, v)


def grid_sets():
    """Coefficient sets on the edges of the domain: interior moduli 0, 0.5
    and 1 - 2e-12 (each alone, then cycled), boundary phases 0, +-pi/2, pi
    and a random one."""
    rng = np.random.default_rng(13)
    for n in [*range(1, 9), 16, 17, 32, 63, 64]:
        for psi in (0.0, np.pi / 2, -np.pi / 2, np.pi, rng.uniform(-np.pi, np.pi)):
            for mods in ([0.0], [0.5], [1.0 - 2e-12], [0.0, 0.5, 1.0 - 2e-12]):
                interior = np.resize(mods, n - 1) * np.exp(1j * rng.uniform(-np.pi, np.pi, n - 1))
                yield VerblunskySet(np.concatenate([interior, [np.exp(1j * psi)]]))


def assert_cmv_invariants(v):
    """build_cmv(v) passes the dense check, whose residual is the dense one,
    and the banded check agrees with it."""
    c = build_cmv(v).entries
    resid = check_cmv(c[None], v.alpha[None])
    assert resid[0] == np.abs(c.conj().T @ c - np.eye(v.n)).max() <= 1e-12
    assert abs(check_cmv_band(v.alpha[None])[0] - resid[0]) <= UNITARITY_AGREEMENT


class TestInvariants:
    """The CMV invariants are theorems about the builder; these tests are
    where they are checked for single matrices."""

    def test_domain_grid(self):
        for v in grid_sets():
            assert_cmv_invariants(v)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(verblunsky_sets(max_n=12))
    def test_random_sets(self, v):
        assert_cmv_invariants(v)


def draw_stack(n, radius, k=8):
    if radius == "ceiling":
        return np.array([v.alpha for v in ceiling_draws(n, 70 + n, count=k)])
    gen = RngStream(70 + n).generator()
    return np.array([random_verblunsky(n, gen, radius=radius).alpha for _ in range(k)])


class TestStackedCheck:
    """The dense oracle check_cmv on stacks: its residuals are the dense
    ones, and a stack raises at its bad matrix as that matrix alone does."""

    @staticmethod
    def stack(n=6, k=5):
        rng = np.random.default_rng(n)
        states = [random_set(rng, n, radius=0.8) for _ in range(k)]
        if n >= 2:
            # alpha_{n-2} = 0 keeps the trace identity blind to the boundary phase
            states[2] = states[2].replace_interior(np.concatenate([states[2].interior[:-1], [0.0]]))
        alpha = np.array([v.alpha for v in states])
        return np.stack([build_cmv(v).entries for v in states]), alpha

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 17, 64])
    def test_stack_equals_cmv_matrices(self, n):
        entries, alpha = self.stack(n)
        L, M = lm_factors(VerblunskySet(alpha))
        assert (L @ M).tobytes() == entries.tobytes()
        unitarity = check_cmv(entries, alpha)
        for e, a, u in zip(entries, alpha, unitarity):
            assert u.tobytes() == check_cmv(e[None], a[None]).tobytes()
            assert u == np.abs(e.conj().T @ e - np.eye(n)).max()

    @pytest.mark.parametrize("invariant, message", [
        ("unitarity", "unitarity residual"),
        ("band", "five-diagonal band"),
        ("trace", "trace identity"),
        ("determinant", "determinant identity"),
    ])
    def test_one_bad_matrix_raises_as_cmv_matrix_does(self, invariant, message):
        # a stack raises the message of its bad matrix checked alone
        entries, alpha = self.stack()
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
            check_cmv(entries[j][None], alpha[j][None])
        assert message in str(stacked.value) and str(stacked.value) == str(single.value)


class TestBandCheck:
    """alflows.check_cmv_band, the O(n) check every flow state gets, held
    to the dense oracle check_cmv: residuals within UNITARITY_AGREEMENT
    and the same verdict, on stacks as on single rows."""

    @pytest.mark.parametrize(
        "n, radius", [(n, r) for n in (1, 2, 3, 6, 17, 64) for r in (0.6, 0.9, 0.95, "ceiling") if n > 2 or r != "ceiling"]
    )
    def test_residuals_match_the_dense_check(self, n, radius):
        alpha = draw_stack(n, radius)
        L, M = lm_factors(VerblunskySet(alpha))
        band = check_cmv_band(alpha)
        dense = check_cmv(L @ M, alpha)
        assert np.abs(band - dense).max() <= UNITARITY_AGREEMENT
        assert band.max() <= 1e-12
        for a, u in zip(alpha, band):
            assert u.tobytes() == check_cmv_band(a[None]).tobytes()

    @pytest.mark.parametrize("invariant, message", [
        ("UNITARITY_TOL", "unitarity residual"),
        ("TRACE_TOL", "trace identity"),
        ("DET_TOL", "determinant identity"),
    ])
    def test_each_invariant_raises_as_the_dense_check_does(self, monkeypatch, invariant, message):
        # a negative tolerance fails that invariant on every matrix; the
        # ones checked before it still pass
        alpha = draw_stack(6, 0.9)
        L, M = lm_factors(VerblunskySet(alpha))
        monkeypatch.setattr(f"cmvkit.alflows.{invariant}", -1.0)
        monkeypatch.setattr(f"oracles.{invariant}", -1.0)
        with pytest.raises(OutOfRange, match=message):
            check_cmv_band(alpha)
        with pytest.raises(OutOfRange, match=message):
            check_cmv(L @ M, alpha)

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9])
    def test_a_boundary_off_the_circle_fails_both(self, scale):
        # the only way rows can break the identities: C's last column
        # (or row) loses its unit norm
        alpha = draw_stack(6, 0.6)
        alpha[3, -1] *= scale
        L, M = np.array([lm_factors_loop(a) for a in alpha]).swapaxes(0, 1)
        with pytest.raises(OutOfRange, match="unitarity residual") as banded:
            check_cmv_band(alpha)
        with pytest.raises(OutOfRange, match="unitarity residual") as dense:
            check_cmv(L @ M, alpha)
        assert str(banded.value) == str(dense.value)


EPS = np.finfo(float).eps


class TestBoundaryRule:
    """renormalize_boundary is the package's one boundary rule, and a fixed
    point: a rebuilt VerblunskySet is the set it was rebuilt from, bit for
    bit, on single rows and stacks alike."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.floats(-0.999e-12, 0.999e-12), st.floats(-np.pi, np.pi)), min_size=1, max_size=6),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_rebuild_is_a_fixed_point(self, boundaries, n, seed):
        # boundaries anywhere within 1e-12 of the circle
        gen = np.random.default_rng(seed)
        alpha = np.array([random_set(gen, n).alpha for _ in boundaries])
        alpha[:, -1] = [(1.0 + off) * np.exp(1j * phase) for off, phase in boundaries]
        v = VerblunskySet(alpha)
        last = v.alpha[:, -1]
        assert (np.abs(np.hypot(last.real, last.imag) - 1.0) <= EPS).all()
        assert VerblunskySet(v.alpha).alpha.tobytes() == v.alpha.tobytes()
        assert renormalize_boundary(v.alpha.copy()).tobytes() == v.alpha.tobytes()
        for row, a in zip(v.alpha, alpha):
            single = VerblunskySet(a)
            assert single.alpha.tobytes() == row.tobytes()
            assert VerblunskySet(single.alpha).alpha.tobytes() == single.alpha.tobytes()
            assert renormalize_boundary(single.alpha.copy()).tobytes() == single.alpha.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_recovered_sets_are_fixed_points(self, n, seed):
        gen = np.random.default_rng(seed)
        mus = [random_measure(n, gen) for _ in range(8)]
        stack = verblunsky_from_measure(SpectralMeasureCircle([m.theta for m in mus], [m.weights for m in mus]))
        assert VerblunskySet(stack.alpha).alpha.tobytes() == stack.alpha.tobytes()
        for mu, row in zip(mus, stack.alpha):
            assert VerblunskySet(row).alpha.tobytes() == row.tobytes()
            v = verblunsky_from_measure(mu)
            assert VerblunskySet(v.alpha).alpha.tobytes() == v.alpha.tobytes()


def assert_rebuilds(mu):
    """SpectralMeasureCircle(mu.theta, mu.weights) holds mu's bits."""
    again = SpectralMeasureCircle(mu.theta, mu.weights)
    assert again.theta.tobytes() == mu.theta.tobytes() and again.weights.tobytes() == mu.weights.tobytes()


class TestMeasureFixedPoint:
    """SpectralMeasureCircle is the package's one canonical rule for circle
    measures, and a fixed point: a measure rebuilt from its own fields is
    the measure, bit for bit, single or stacked, whatever produced it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_raw_angles(self, n, rows, seed, data):
        angle = st.floats(-4.0 * np.pi, 4.0 * np.pi)
        theta = np.array(data.draw(st.lists(st.lists(angle, min_size=n, max_size=n), min_size=rows, max_size=rows)))
        w = np.random.default_rng(seed).uniform(0.1, 1.0, theta.shape)
        w /= w.sum(axis=1, keepdims=True)
        try:
            stack = SpectralMeasureCircle(theta, w)
        except DegenerateSpectrum:
            assume(False)
        assert_rebuilds(stack)
        assert stack.theta.flags.c_contiguous and stack.weights.flags.c_contiguous
        for i in range(rows):
            mu = SpectralMeasureCircle(theta[i], w[i])
            assert mu.theta.tobytes() == stack.theta[i].tobytes() and mu.weights.tobytes() == stack.weights[i].tobytes()
            assert_rebuilds(mu)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_produced_measures(self, n, seed):
        gen = np.random.default_rng(seed)
        sets = VerblunskySet(np.array([random_set(gen, n, radius=0.8).alpha for _ in range(4)]))
        produced = [random_measure(n, gen) for _ in range(8)]
        produced.append(unitary_eigensystem(build_cmv(sets)))
        produced += [unitary_eigensystem(build_cmv(VerblunskySet(a))) for a in sets.alpha]
        produced += [christoffel_measure(build_cmv(VerblunskySet(a))) for a in sets.alpha]
        for mu in produced:
            assert_rebuilds(mu)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_line_measures(self, n, seed):
        gen = np.random.default_rng(seed)
        nu = jacobi_eigensystem(build_jacobi(gen.normal(size=n), gen.uniform(0.2, 2.0, n - 1)))
        again = SpectralMeasureLine(nu.x, nu.weights)
        assert again.x.tobytes() == nu.x.tobytes() and again.weights.tobytes() == nu.weights.tobytes()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_principal_angle_is_idempotent(self, angles):
        t = np.array(angles)
        p = principal_angle(t)
        assert ((p > -np.pi) & (p <= np.pi)).all()
        assert principal_angle(p).tobytes() == p.tobytes()
        # an angle already on the branch comes back as it is, -0.0 as 0.0
        inside = (t > -np.pi) & (t <= np.pi)
        assert p[inside].tobytes() == (t[inside] + 0.0).tobytes()
        assert not np.signbit(p[p == 0.0]).any()


def valid_rows(k=4, n=5):
    gen = RngStream(80).generator()
    return np.array([random_verblunsky(n, gen, radius=0.6).alpha for _ in range(k)])


class TestCoefficientRows:
    """check_coefficient_rows validates a stack of rows as VerblunskySet
    validates each one: the same error type and message."""

    @pytest.mark.parametrize("corrupt", ["nan", "interior", "boundary"])
    def test_rejects_as_the_constructor_does(self, corrupt):
        alpha = valid_rows()
        if corrupt == "nan":
            alpha[2, 1] = complex(np.nan, 0.0)
        elif corrupt == "interior":
            alpha[2, 1] = (1.0 - 5e-13) * np.exp(0.4j)
        else:
            alpha[2, -1] *= 1.0 + 5e-12
        with pytest.raises(OutOfRange) as single:
            VerblunskySet(alpha[2])
        with pytest.raises(OutOfRange) as stacked:
            check_coefficient_rows(alpha)
        with pytest.raises(OutOfRange) as trajectory:
            Trajectory(np.arange(4.0), alpha, np.zeros(4), np.zeros(4))
        assert str(single.value) == str(stacked.value) == str(trajectory.value)

    def test_stacked_renormalization_is_the_scalar_one(self):
        # 2000 boundaries within 1e-13 of the circle: the stack keeps each
        # within one ulp of it and divides the others by np.hypot, bit for
        # bit b / abs(b) on one complex scalar; np.abs on the stack would
        # move a last bit
        gen = RngStream(81).generator()
        alpha = np.zeros((2000, 2), dtype=complex)
        alpha[:, 1] = (1.0 + gen.uniform(-1e-13, 1e-13, 2000)) * np.exp(1j * gen.uniform(-np.pi, np.pi, 2000))
        expected = np.array([b if abs(abs(b) - 1.0) <= EPS else b / abs(b) for b in alpha[:, 1]])
        assert renormalize_boundary(alpha.copy())[:, 1].tobytes() == expected.tobytes()
        assert all(VerblunskySet(a).alpha[1] == b for a, b in zip(alpha, expected))
        assert (alpha[:, 1] / np.abs(alpha[:, 1]) != expected).any()

    def test_trajectory_rejects_rows_with_different_boundaries(self):
        alpha = valid_rows()
        alpha[3, -1] *= np.exp(1e-9j)
        with pytest.raises(InvalidParams, match="share the boundary"):
            Trajectory(np.arange(4.0), alpha, np.zeros(4), np.zeros(4))


class TestJacobi:
    def test_tridiagonal_stack_is_each_to_dense(self):
        gen = np.random.default_rng(5)
        b, a = gen.normal(size=(4, 5)), gen.random((4, 4)) + 0.1
        for m, bi, ai in zip(tridiagonal(b, a), b, a):
            assert m.tobytes() == build_jacobi(bi, ai).to_dense().tobytes()
            assert np.array_equal(m, np.diag(bi) + np.diag(ai, 1) + np.diag(ai, -1))

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


class TestWeightRows:
    def test_any_bad_row_rejected(self):
        w = np.full((3, 4), 0.25)
        w[1, 0] = 0.5
        with pytest.raises(OutOfRange, match="sum to 1.25"):
            SpectralMeasureCircle(np.tile([0.0, 1.0, 2.0, 3.0], (3, 1)), w)

    def test_any_underflowed_propagated_row_rejected(self):
        # the middle time sends a weight below the smallest double
        mu = SpectralMeasureCircle([-2.0, 0.0, 2.0], [0.2, 0.3, 0.5])
        ham = FlowHamiltonian.matching_lax_flow(1, "re")
        assert propagated_weights(mu, ham, [0.0, 1.0]).shape == (2, 3)
        with pytest.raises(OutOfRange, match="finite and positive"):
            propagated_weights(mu, ham, [0.0, 1e3, 1.0])


class TestCircularGaps:
    def test_matches_the_written_out_gaps(self):
        # each row: the n - 1 differences, then (t[0] + 2 pi) - t[-1], bit for bit
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(-np.pi, np.pi, (5, 6)), axis=1)
        gaps = circular_gaps(t)
        for row, g in zip(t, gaps):
            expected = np.concatenate([np.diff(row), [row[0] + 2.0 * np.pi - row[-1]]])
            assert g.tobytes() == expected.tobytes() and np.array_equal(circular_gaps(row), g)

    def test_single_angle(self):
        assert np.array_equal(circular_gaps([0.3]), [2.0 * np.pi])


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
