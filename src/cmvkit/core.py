"""Verblunsky coefficients and the matrices built from them.

A coefficient set alpha_0..alpha_{n-1}, with the interior entries in the
open unit disk and the last one on the unit circle, is equivalent to an
n-point probability measure on the circle and to an n x n unitary
five-diagonal matrix.  This module holds the immutable containers
(coefficients, CMV and Jacobi matrices, finitely supported spectral
measures) together with the structural builders.  The containers are
validated at construction; check_cmv tests the CMV invariants on stacks.

All types are immutable values after construction and safe to share
between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, NonPositiveOffDiagonal, OutOfRange

# Validation tolerances (UNITARITY_TOL, TRACE_TOL and DET_TOL are check_cmv's).
INTERIOR_MARGIN = 1e-12     # interior coefficients must satisfy |a| <= 1 - margin
BOUNDARY_TOL = 1e-12        # allowed deviation of |alpha_{n-1}| from 1 before renormalizing
UNITARITY_TOL = 1e-12
TRACE_TOL = 1e-12
DET_TOL = 1e-10
SEPARATION_TOL = 1e-10      # minimal distance between spectral points
WEIGHT_SUM_TOL = 1e-12

TWO_PI = 2.0 * math.pi


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def principal_angle(theta):
    """Map angles to the principal branch (-pi, pi]."""
    t = np.angle(np.exp(1j * np.asarray(theta, dtype=float)))
    # np.angle returns -pi for a point on the negative real axis with a
    # negative zero or tiny negative imaginary part
    return np.where(t == -math.pi, math.pi, t) + 0.0  # + 0.0 normalizes -0.0


def circular_gaps(theta) -> np.ndarray:
    """The n gaps around the circle of sorted angles theta (..., n):
    theta[k+1] - theta[k] for k < n - 1, then the wrap
    (theta[0] + 2 pi) - theta[-1].  A single angle has the gap 2 pi."""
    t = np.asarray(theta, dtype=float)
    return np.diff(t, axis=-1, append=t[..., :1] + TWO_PI)


@dataclass(frozen=True, eq=False)
class VerblunskySet:
    """Coefficients alpha_0..alpha_{n-1}; the last one is unimodular.

    The interior entries must satisfy |alpha_k| <= 1 - 1e-12; the last is
    renormalized to exact unit modulus provided it starts within 1e-12 of
    the circle.  rho_k = sqrt(1 - |alpha_k|^2) is cached for the n-1
    interior coefficients.
    """

    alpha: np.ndarray
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.array(self.alpha, dtype=complex).reshape(-1)
        if a.size == 0:
            raise OutOfRange("need at least one coefficient")
        if not np.all(np.isfinite(a)):
            raise OutOfRange("coefficients must be finite")
        mods = np.abs(a[:-1])
        if mods.size and mods.max() > 1.0 - INTERIOR_MARGIN:
            raise OutOfRange(
                f"interior coefficient modulus {mods.max():.17g} exceeds 1 - {INTERIOR_MARGIN:g}"
            )
        last = abs(a[-1])
        if abs(last - 1.0) > BOUNDARY_TOL:
            raise OutOfRange(f"|alpha_{a.size - 1}| = {last:.17g}, expected 1 within {BOUNDARY_TOL:g}")
        a[-1] = a[-1] / last
        rho = np.sqrt(1.0 - mods * mods)
        object.__setattr__(self, "alpha", _frozen(a))
        object.__setattr__(self, "rho", _frozen(rho))

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def interior(self) -> np.ndarray:
        """The n-1 coefficients strictly inside the disk."""
        return self.alpha[:-1]

    def replace_interior(self, interior) -> "VerblunskySet":
        """New coefficient set with the same boundary coefficient."""
        interior = np.asarray(interior, dtype=complex).reshape(-1)
        if interior.size != self.n - 1:
            raise OutOfRange(f"expected {self.n - 1} interior coefficients, got {interior.size}")
        return VerblunskySet(np.concatenate([interior, self.alpha[-1:]]))


def batched_lm_factors(alpha) -> tuple[np.ndarray, np.ndarray]:
    """L and M factors of every coefficient vector in a (..., n) array.

    Returns two (..., n, n) arrays laid out as in lm_factors: each 2x2
    block is [[conj(a), rho], [rho, -a]] with rho = sqrt(1 - |a|^2).  The
    last coefficient of each vector is taken as given, not renormalized.
    """
    a = np.asarray(alpha, dtype=complex)
    n = a.shape[-1]
    inner = a[..., :-1]
    mod2 = inner.real * inner.real + inner.imag * inner.imag
    if mod2.size and mod2.max() > 1.0 + 1e-12:
        raise OutOfRange(f"|alpha| = {math.sqrt(mod2.max()):.17g} exceeds 1")
    rho = np.sqrt(np.maximum(1.0 - mod2, 0.0))
    conj, neg = a.conj(), -inner
    LM = np.zeros(a.shape[:-1] + (2, n * n), dtype=complex)
    L, M = LM[..., 0, :], LM[..., 1, :]
    M[..., 0] = 1.0
    # In a flattened n x n matrix, entry (k + i, k + j) sits at
    # k (n + 1) + i n + j, so a stride of 2 (n + 1) visits the same entry
    # of every other 2x2 block: those at even k in L, odd k in M.  Each
    # stride runs past the end of the matrix exactly where the blocks
    # stop, and the diagonal strides also reach the boundary 1x1 block
    # [conj(alpha_{n-1})] in the factor it belongs to.
    step = 2 * (n + 1)
    L[..., ::step] = conj[..., ::2]
    L[..., 1::step] = L[..., n::step] = rho[..., ::2]
    L[..., n + 1 :: step] = neg[..., ::2]
    M[..., n + 1 :: step] = conj[..., 1::2]
    M[..., n + 2 :: step] = M[..., 2 * n + 1 :: step] = rho[..., 1::2]
    M[..., 2 * n + 2 :: step] = neg[..., 1::2]
    shape = a.shape + (n,)
    return L.reshape(shape), M.reshape(shape)


def lm_factors(v: VerblunskySet) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal unitary factors of the CMV matrix.

    L carries the 2x2 blocks at even coefficient indices, M a leading 1x1
    identity block and the blocks at odd indices.  The boundary
    coefficient contributes a 1x1 block [conj(alpha_{n-1})] to whichever
    factor the parity of n-1 assigns it (including n = 1, where L itself
    degenerates to that block).
    """
    return batched_lm_factors(v.alpha)


@dataclass(frozen=True, eq=False)
class CMVMatrix:
    """The dense unitary five-diagonal matrix C = L M of a coefficient set.

    The entries are derived from source and never passed in.  For any
    valid source, unitarity, the band and the identities
        tr C  = conj(alpha_0) - sum_{k>=1} alpha_{k-1} conj(alpha_k)
        det C = (-1)^(n-1) conj(alpha_{n-1})
    hold by construction; check_cmv tests them on stacks of matrices.
    """

    source: VerblunskySet
    entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        L, M = lm_factors(self.source)
        object.__setattr__(self, "entries", _frozen(L @ M))

    @property
    def n(self) -> int:
        return self.source.n


def check_cmv(entries: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The CMV invariants on a (k, n, n) stack and its (k, n) coefficients.

    Checks every matrix for unitarity, the five-diagonal band and the
    trace and determinant identities, in that order, and raises OutOfRange
    at the first invariant that some matrix violates.  Returns the
    unitarity residuals max|C*C - I|.
    """
    n = alpha.shape[-1]
    resid = np.abs(np.swapaxes(entries.conj(), 1, 2) @ entries - np.eye(n)).max(axis=(1, 2))
    worst = resid.max()
    if worst > UNITARITY_TOL:
        raise OutOfRange(f"unitarity residual {worst:.3e} exceeds {UNITARITY_TOL:g}")
    if entries[:, _outside_band(n)].any():
        raise OutOfRange("nonzero entry outside the five-diagonal band")
    tr_expected = alpha[:, 0].conj() - (alpha[:, :-1] * alpha[:, 1:].conj()).sum(axis=1)
    if (np.abs(entries.trace(axis1=1, axis2=2) - tr_expected) > TRACE_TOL).any():
        raise OutOfRange("trace identity violated")
    det_expected = (-1.0) ** (n - 1) * alpha[:, -1].conj()
    if (np.abs(np.linalg.det(entries) - det_expected) > DET_TOL).any():
        raise OutOfRange("determinant identity violated")
    return resid


@functools.lru_cache(maxsize=None)
def _outside_band(n: int) -> np.ndarray:
    """Mask of the n x n entries more than two diagonals off the main one."""
    rows, cols = np.indices((n, n))
    return _frozen(np.abs(rows - cols) > 2)


def build_cmv(v: VerblunskySet) -> CMVMatrix:
    """The CMV matrix L @ M of a coefficient set."""
    return CMVMatrix(v)


@dataclass(frozen=True, eq=False)
class JacobiMatrix:
    """Real symmetric tridiagonal matrix with positive off-diagonal."""

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=float).reshape(-1)
        a = np.array(self.a, dtype=float).reshape(-1)
        if b.size == 0:
            raise OutOfRange("need at least one diagonal entry")
        if a.size != b.size - 1:
            raise OutOfRange(f"expected {b.size - 1} off-diagonal entries, got {a.size}")
        if a.size and a.min() <= 0.0:
            raise NonPositiveOffDiagonal(f"off-diagonal minimum {a.min():.17g} is not positive")
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "a", _frozen(a))

    @property
    def n(self) -> int:
        return self.b.size

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.b)
        if self.a.size:
            m += np.diag(self.a, 1) + np.diag(self.a, -1)
        return m


def build_jacobi(b, a) -> JacobiMatrix:
    """Jacobi matrix from diagonal b and positive off-diagonal a."""
    return JacobiMatrix(np.asarray(b, dtype=float), np.asarray(a, dtype=float))


def _check_weights(w: np.ndarray) -> np.ndarray:
    """Weights renormalized to sum 1 along the last axis, each row checked."""
    if w.shape[-1] == 0:
        raise OutOfRange("measure needs at least one point")
    if not (w.min(initial=np.inf) > 0.0 and w.max(initial=0.0) < np.inf):
        raise OutOfRange("weights must be finite and positive")
    total = w.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0)
    if off.max(initial=0.0) > WEIGHT_SUM_TOL:
        raise OutOfRange(f"weights sum to {total.flat[off.argmax()]:.17g}, expected 1 within {WEIGHT_SUM_TOL:g}")
    return w / total


def circle_weights(theta, weights) -> tuple[np.ndarray, np.ndarray]:
    """The canonical form SpectralMeasureCircle stores, for a (..., n) stack
    of weight vectors on the same n angles.

    Returns the sorted principal angles (n,) and the weights, each vector
    checked and renormalized to sum 1 and reordered with the angles, as a
    C-contiguous array.  Row i equals SpectralMeasureCircle(theta,
    weights[i]).weights bit for bit.
    """
    t = principal_angle(np.array(theta, dtype=float).reshape(-1))
    w = np.asarray(weights, dtype=float)
    if w.shape[-1:] != t.shape:
        raise OutOfRange("points and weights must have equal length")
    w = _check_weights(w)
    order = np.argsort(t)
    # take copies into a new C-contiguous array; w[..., order] need not be
    # one, and products on a strided row round differently in the last bit
    t, w = t[order], w.take(order, axis=-1)
    if t.size > 1 and circular_gaps(t).min() <= SEPARATION_TOL:
        raise DegenerateSpectrum("two support angles closer than 1e-10")
    return t, w


@dataclass(frozen=True, eq=False)
class SpectralMeasureCircle:
    """Finitely supported probability measure on the unit circle.

    Stored canonically: angles on the principal branch (-pi, pi], sorted
    ascending, pairwise angular separation > 1e-10, weights positive and
    renormalized to sum exactly 1.
    """

    theta: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t, w = circle_weights(self.theta, np.asarray(self.weights, dtype=float).reshape(-1))
        object.__setattr__(self, "theta", _frozen(t))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.theta.size

    @property
    def points(self) -> np.ndarray:
        """Support points z_j = exp(i theta_j)."""
        return np.exp(1j * self.theta)


@dataclass(frozen=True, eq=False)
class SpectralMeasureLine:
    """Finitely supported probability measure on the real line."""

    x: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float).reshape(-1)
        w = np.array(self.weights, dtype=float).reshape(-1)
        if x.size != w.size:
            raise OutOfRange("points and weights must have equal length")
        if not np.all(np.isfinite(x)):
            raise OutOfRange("points must be finite")
        w = _check_weights(w)
        order = np.argsort(x)
        x, w = x[order], w[order]
        if x.size > 1 and np.diff(x).min() <= SEPARATION_TOL:
            raise DegenerateSpectrum("two support points closer than 1e-10")
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.x.size
