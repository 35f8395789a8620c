"""Verblunsky coefficients and the matrices built from them.

A coefficient set alpha_0..alpha_{n-1}, with the interior entries in the
open unit disk and the last one on the unit circle, is equivalent to an
n-point probability measure on the circle and to an n x n unitary
five-diagonal matrix.  This module holds the immutable containers
(coefficients, CMV and Jacobi matrices, finitely supported spectral
measures) together with the structural builders.  The containers are
validated at construction (coefficient rows also in stacks, by
check_coefficient_rows); alflows.check_cmv_band tests the CMV invariants.

The layout of C = L M is decided here only: lm_band_indices places the
factor_entries of L and M, which lm_factors scatters and the alflows
kernels gather, all with the one rho of coefficient_rho.  Every dense
CMV matrix comes from a VerblunskySet through lm_factors, and every
boundary coefficient is put on the circle by renormalize_boundary, whose
rule is a fixed point: a modulus within one ulp of 1 is kept.  So is
SpectralMeasureCircle, the only code that canonicalizes a circle
measure: it keeps angles already in (-pi, pi] and weights as given.

All types are immutable values after construction and safe to share
between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpectrum, NonPositiveOffDiagonal, OutOfRange

# Validation tolerances
INTERIOR_MARGIN = 1e-12     # interior coefficients must satisfy |a| <= 1 - margin
BOUNDARY_TOL = 1e-12        # allowed deviation of |alpha_{n-1}| from 1 before renormalizing
BOUNDARY_ULP = float(np.finfo(float).eps)  # a boundary modulus this close to 1 is kept as it is
SEPARATION_TOL = 1e-10      # minimal distance between spectral points
WEIGHT_SUM_TOL = 1e-12

TWO_PI = 2.0 * math.pi


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def principal_angle(theta):
    """Map angles to the principal branch (-pi, pi], as a fixed point: an
    angle already in it is returned as it is (-0.0 as 0.0), any other is
    folded by angle(exp(i theta)), with -pi mapped to pi."""
    t = np.asarray(theta, dtype=float)
    folded = np.angle(np.exp(1j * t))
    # np.angle returns -pi for a point on the negative real axis with a
    # negative zero or tiny negative imaginary part
    folded = np.where(folded == -math.pi, math.pi, folded)
    return np.where((t > -math.pi) & (t <= math.pi), t, folded) + 0.0  # + 0.0 normalizes -0.0


def circular_gaps(theta) -> np.ndarray:
    """The n gaps around the circle of sorted angles theta (..., n):
    theta[k+1] - theta[k] for k < n - 1, then the wrap
    (theta[0] + 2 pi) - theta[-1].  A single angle has the gap 2 pi."""
    t = np.asarray(theta, dtype=float)
    return np.diff(t, axis=-1, append=t[..., :1] + TWO_PI)


def _rows(values, dtype) -> np.ndarray:
    """A fresh array of values: one flat row, or a stack (..., n) as given."""
    a = np.array(values, dtype=dtype)
    return a if a.ndim > 1 else a.reshape(-1)


@dataclass(frozen=True, eq=False)
class VerblunskySet:
    """Coefficients alpha_0..alpha_{n-1}; the last one is unimodular.

    The interior entries must satisfy |alpha_k| <= 1 - 1e-12; the last
    must start within 1e-12 of the circle and is put on it by
    renormalize_boundary, so that its modulus lies within one ulp of 1 and
    VerblunskySet(v.alpha) is v bit for bit.  rho_k = sqrt(1 - |alpha_k|^2)
    (coefficient_rho, the kernels' rho bit for bit) is cached for the n-1
    interior coefficients.

    alpha may also be a stack (..., n) of independent coefficient sets, as
    the identity suites evaluate them; each row is validated and stored as
    it would be alone, and rho and interior carry the same leading axes.
    """

    alpha: np.ndarray
    rho: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = _rows(self.alpha, complex)
        check_coefficient_rows(a)
        renormalize_boundary(a)
        object.__setattr__(self, "alpha", _frozen(a))
        object.__setattr__(self, "rho", _frozen(coefficient_rho(a[..., :-1])))

    @property
    def n(self) -> int:
        return self.alpha.shape[-1]

    @property
    def interior(self) -> np.ndarray:
        """The n-1 coefficients strictly inside the disk."""
        return self.alpha[..., :-1]

    def replace_interior(self, interior) -> "VerblunskySet":
        """New coefficient set with the same boundary coefficient (one set,
        not a stack)."""
        interior = np.asarray(interior, dtype=complex).reshape(-1)
        if interior.size != self.n - 1:
            raise OutOfRange(f"expected {self.n - 1} interior coefficients, got {interior.size}")
        return VerblunskySet(np.concatenate([interior, self.alpha[-1:]]))


def check_coefficient_rows(a: np.ndarray) -> None:
    """Validate every row of a (..., n) complex array as VerblunskySet does
    one, raising the same OutOfRange."""
    if a.shape[-1] == 0:
        raise OutOfRange("need at least one coefficient")
    if not np.isfinite(a).all():
        raise OutOfRange("coefficients must be finite")
    mods = np.abs(a[..., :-1])
    if mods.size and mods.max() > 1.0 - INTERIOR_MARGIN:
        raise OutOfRange(f"interior coefficient modulus {mods.max():.17g} exceeds 1 - {INTERIOR_MARGIN:g}")
    last = np.hypot(a[..., -1].real, a[..., -1].imag)
    off = np.abs(last - 1.0)
    if off.max(initial=0.0) > BOUNDARY_TOL:
        raise OutOfRange(f"|alpha_{a.shape[-1] - 1}| = {last.flat[off.argmax()]:.17g}, expected 1 within {BOUNDARY_TOL:g}")


def renormalize_boundary(a: np.ndarray) -> np.ndarray:
    """The package's one boundary rule: divide the last coefficient of
    every row of a (..., n) complex array by its np.hypot modulus, in
    place, unless that modulus already lies within one ulp (BOUNDARY_ULP)
    of 1; returns a.  One division lands within one ulp (so it did on all
    of 5e7 boundaries drawn within 1e-12 of the circle), so the rule is a
    fixed point: applied twice it moves nothing more.  np.hypot gives the
    modulus bit for bit as abs() does one complex scalar, so each row of a
    stack comes out as it would alone."""
    last = a[..., -1]
    mods = np.hypot(last.real, last.imag)
    np.divide(last, mods, out=last, where=np.abs(mods - 1.0) > BOUNDARY_ULP)
    return a


def coefficient_rho(interior) -> np.ndarray:
    """rho_k = sqrt(1 - |alpha_k|^2) of an array of coefficients in the
    closed disk, |alpha_k|^2 summed as re^2 + im^2.  The one rho of the
    package: the factors, the bracket kernels and VerblunskySet.rho."""
    return np.sqrt(1.0 - (interior.real * interior.real + interior.imag * interior.imag))


def factor_entries(alpha) -> np.ndarray:
    """The (..., 3n) values of L and M for coefficient rows alpha (..., n):
    [conj(alpha), -alpha[:-1], rho, 1, 0], placed by lm_band_indices(n)."""
    a = np.asarray(alpha, dtype=complex)
    n = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (3 * n,), dtype=complex)
    np.conjugate(a, out=out[..., :n])
    np.negative(a[..., :-1], out=out[..., n : 2 * n - 1])
    out[..., 2 * n - 1 : 3 * n - 2] = coefficient_rho(a[..., :-1])
    out[..., 3 * n - 2] = 1.0
    return out


@functools.lru_cache(maxsize=None)
def lm_band_indices(n: int) -> np.ndarray:
    """The layout of L and M: a read-only (2, n + 2, 3) table of indices
    into factor_entries, [f, 1 + i, 1 + p] for entry [i, i + p] of L
    (f = 0) or M (f = 1); padding rows and zero entries read index 3n - 1.
    L holds the blocks [[conj(a_k), rho_k], [rho_k, -a_k]] at even k, M a
    leading 1 and those at odd k, and the factor the parity of n - 1 picks
    ends in the 1x1 block [conj(alpha_{n-1})] (for n = 1, L is that)."""
    k = np.arange(n - 1)
    table = np.full((2, n + 2, 3), 3 * n - 1)
    table[1, 1, 1] = 3 * n - 2
    table[(n - 1) % 2, n, 1] = n - 1
    for col, shift, src in ((1, 0, k), (2, 0, 2 * n - 1 + k), (0, 1, 2 * n - 1 + k), (1, 1, n + k)):
        table[k % 2, 1 + k + shift, col] = src
    return _frozen(table)


@functools.lru_cache(maxsize=None)
def _dense_lm_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of lm_band_indices(n): their indices into
    factor_entries and their flat positions in the (2, n, n) pair [L, M]."""
    f, r, c = np.nonzero(lm_band_indices(n) != 3 * n - 1)
    return lm_band_indices(n)[f, r, c], (f * n + r - 1) * n + r + c - 2


def lm_factors(v: VerblunskySet) -> tuple[np.ndarray, np.ndarray]:
    """Dense block-diagonal unitary factors L and M, (..., n, n) each, of a
    coefficient set or stack: the factor_entries of v.alpha scattered by
    lm_band_indices.  The package's only dense factor builder."""
    a, n = v.alpha, v.n
    src, dst = _dense_lm_positions(n)
    LM = np.zeros(a.shape[:-1] + (2, n, n), dtype=complex)
    LM.reshape(a.shape[:-1] + (2 * n * n,))[..., dst] = factor_entries(a)[..., src]
    return LM[..., 0, :, :], LM[..., 1, :, :]


@dataclass(frozen=True, eq=False)
class CMVMatrix:
    """The dense unitary five-diagonal matrix C = L M of a coefficient set.

    The entries are derived from source and never passed in.  For any
    valid source, unitarity, the band and the identities
        tr C  = conj(alpha_0) - sum_{k>=1} alpha_{k-1} conj(alpha_k)
        det C = (-1)^(n-1) conj(alpha_{n-1})
    hold by construction; alflows.check_cmv_band tests them from the
    band of C, for stacks of coefficient rows.
    """

    source: VerblunskySet
    entries: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        L, M = lm_factors(self.source)
        object.__setattr__(self, "entries", _frozen(L @ M))

    @property
    def n(self) -> int:
        return self.source.n


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
        return tridiagonal(self.b, self.a)


def tridiagonal(b, a) -> np.ndarray:
    """Dense symmetric tridiagonal matrices (..., n, n) with diagonals b
    (..., n) and off-diagonals a (..., n - 1)."""
    b = np.asarray(b, dtype=float)
    n = b.shape[-1]
    m = np.zeros(b.shape + (n,))
    i = np.arange(n)
    m[..., i, i] = b
    m[..., i[:-1], i[1:]] = m[..., i[1:], i[:-1]] = a
    return m


def build_jacobi(b, a) -> JacobiMatrix:
    """Jacobi matrix from diagonal b and positive off-diagonal a."""
    return JacobiMatrix(np.asarray(b, dtype=float), np.asarray(a, dtype=float))


def check_weight_rows(w: np.ndarray) -> None:
    """Validate every row of a (..., n) weight array as a measure does its
    weights (nonempty, finite, positive, summing to 1 within
    WEIGHT_SUM_TOL), raising OutOfRange.  It divides nothing: weights are
    normalized once, by the code that produces them."""
    if w.shape[-1] == 0:
        raise OutOfRange("measure needs at least one point")
    if not (w.min(initial=np.inf) > 0.0 and w.max(initial=0.0) < np.inf):
        raise OutOfRange("weights must be finite and positive")
    total = w.sum(axis=-1)
    off = np.abs(total - 1.0)
    if off.max(initial=0.0) > WEIGHT_SUM_TOL:
        raise OutOfRange(f"weights sum to {total.flat[off.argmax()]:.17g}, expected 1 within {WEIGHT_SUM_TOL:g}")


@dataclass(frozen=True, eq=False)
class SpectralMeasureCircle:
    """Finitely supported probability measure on the unit circle.

    Stored canonically: angles on the principal branch (-pi, pi], sorted
    ascending, pairwise angular separation > 1e-10, weights positive and
    summing to 1 within 1e-12, kept as given and reordered with their
    angles.  The package's one canonical rule for circle measures, and a
    fixed point: SpectralMeasureCircle(mu.theta, mu.weights) is mu bit for
    bit.  theta and weights may also be stacks (..., n) of independent
    measures, each row stored as it would be alone.
    """

    theta: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t, w = _rows(self.theta, float), _rows(self.weights, float)
        if t.shape != w.shape:
            raise OutOfRange("points and weights must have equal length")
        if not np.all(np.isfinite(t)):
            raise OutOfRange("angles must be finite")
        check_weight_rows(w)
        t = principal_angle(t)
        order = np.argsort(t, axis=-1)
        # copies into new C-contiguous arrays: products on a strided row
        # round differently in the last bit
        t, w = np.take_along_axis(t, order, axis=-1), np.take_along_axis(w, order, axis=-1)
        if t.shape[-1] > 1 and circular_gaps(t).min() <= SEPARATION_TOL:
            raise DegenerateSpectrum("two support angles closer than 1e-10")
        object.__setattr__(self, "theta", _frozen(t))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.theta.shape[-1]

    @property
    def points(self) -> np.ndarray:
        """Support points z_j = exp(i theta_j)."""
        return np.exp(1j * self.theta)


@dataclass(frozen=True, eq=False)
class SpectralMeasureLine:
    """Finitely supported probability measure on the real line, stored as
    SpectralMeasureCircle stores one (points sorted and separated by more
    than 1e-10, weights kept as given), and so a fixed point of its fields."""

    x: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float).reshape(-1)
        w = np.array(self.weights, dtype=float).reshape(-1)
        if x.size != w.size:
            raise OutOfRange("points and weights must have equal length")
        if not np.all(np.isfinite(x)):
            raise OutOfRange("points must be finite")
        check_weight_rows(w)
        order = np.argsort(x)
        x, w = x[order], w[order]
        if x.size > 1 and np.diff(x).min() <= SEPARATION_TOL:
            raise DegenerateSpectrum("two support points closer than 1e-10")
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        return self.x.size
