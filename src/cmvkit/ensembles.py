"""Exact sparse matrix models for beta ensembles.

Coefficient distributions:

* circular ensemble: independent alpha_k on the disk with rotation
  invariant density proportional to (1 - |z|^2)^((nu-3)/2), nu = beta(n-k-1)+1;
  the boundary case nu = 1 is uniform on the circle itself.
* Jacobi ensemble: independent real alpha_k on (-1, 1) with density
  proportional to (1-x)^(s-1) (1+x)^(t-1), pushed to a tridiagonal matrix
  through the Geronimus relations.
* Hermite ensemble: Gaussian diagonal, chi off-diagonal over sqrt(2) with
  beta*(n-k) degrees of freedom (the bottom row gets beta).

coefficient_samples is the one place that draws these coefficients; the
per-draw samplers and eigenvalue_samples are views of it.  Samplers are
pure given a generator, and (seed, stream_id) pins a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INTERIOR_MARGIN,
    JacobiMatrix,
    VerblunskySet,
    batched_lm_factors,
    build_cmv,
    build_jacobi,
    circular_gaps,
)
from .errors import (
    DomainViolation,
    EmptySample,
    InvalidNu,
    InvalidParams,
)
from .opuc import geronimus_entries, unitary_angles

TWO_PI = 2.0 * math.pi
MAX_DRAWS = 256           # draws a rejection loop may make before it gives up
JACOBI_EXPONENT_MAX = 1e12  # larger a or b put the interval draws within rounding of -1 or 1
BETA_MAX = 1e12           # likewise for beta, whose shapes also overflow near 1e308
SPECTRA_BLOCK = 2**20     # matrix entries per block of eigenvalue_samples


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: (seed, stream_id) pins the sequence."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise InvalidParams(f"seed and stream id must be nonnegative, got ({self.seed}, {self.stream_id})")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream or a live Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidParams(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from and with which parameters."""

    family: str
    n: int
    beta: float
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.family not in ("circular", "jacobi", "hermite"):
            raise InvalidParams(f"unknown family {self.family!r}")
        if self.n < 1:
            raise InvalidParams("need at least one particle")
        for name in ("beta", "a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 < self.beta <= BETA_MAX:
            raise InvalidParams(f"beta = {self.beta:g} outside (0, {BETA_MAX:g}]")
        for name in ("a", "b") if self.family == "jacobi" else ():
            if not -1.0 < getattr(self, name) <= JACOBI_EXPONENT_MAX:
                raise InvalidParams(f"jacobi exponent {name} = {getattr(self, name):g} outside (-1, {JACOBI_EXPONENT_MAX:g}]")


def _disk_samples(nu: float, size, rng: np.random.Generator) -> np.ndarray:
    """Rotation-invariant disk variates with density ~ (1-|z|^2)^((nu-3)/2).

    Realized as sqrt(s) e^(i phi): phi uniform, and s such that
    (1-s)^((nu-1)/2) is uniform on (0, 1].  For nu = 1 the modulus is
    exactly 1 and only the angle is random.
    """
    if nu < 1.0:
        raise InvalidNu(f"nu = {nu} must be >= 1")
    phase = np.exp(1j * TWO_PI * rng.random(size))
    if nu == 1.0:
        return phase
    u = 1.0 - rng.random(size)  # in (0, 1], keeps the modulus strictly below 1
    s = 1.0 - u ** (2.0 / (nu - 1.0))
    return np.sqrt(s) * phase


def _redrawn(shape, draw, valid, what: str, dtype=float) -> np.ndarray:
    """Array of the given shape whose entries draw(mask) fills where mask is
    set, redrawing the entries that fail valid.  Raises InvalidParams when
    entries still fail after MAX_DRAWS draws."""
    x = np.empty(shape, dtype=dtype)
    bad = np.ones(shape, dtype=bool)
    for _ in range(MAX_DRAWS):
        x[bad] = draw(bad)
        bad = ~valid(x)
        if not bad.any():
            return x
    raise InvalidParams(f"{what} still rejected after {MAX_DRAWS} draws; beta is too small")


def _beta_interval_samples(s: float, t: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """size variates on (-1, 1) with density ~ (1-x)^(s-1) (1+x)^(t-1).

    x = 1 - 2 Y for Y ~ Beta(s, t) built from two gamma draws.  Underflowed
    draws (possible for tiny shapes) are rejected and redrawn so the result
    stays strictly inside the interval.
    """
    if not (s > 0.0 and t > 0.0):
        raise InvalidParams(f"beta parameters must be positive, got ({s}, {t})")

    def draw(bad):
        k = int(np.count_nonzero(bad))
        g1 = rng.gamma(s, size=k)
        g2 = rng.gamma(t, size=k)
        return 1.0 - 2.0 * g1 / (g1 + g2)

    return _redrawn(size, draw, lambda x: np.abs(x) < 1.0, f"interval variates with shapes ({s:g}, {t:g})")


def _circular_nus(n: int, beta: float) -> np.ndarray:
    return beta * (n - 1.0 - np.arange(n)) + 1.0


def _circular_column(nu: float, count: int, gen: np.random.Generator) -> np.ndarray:
    """count disk variates of one circular coefficient; an interior one
    (nu > 1) whose modulus rounds above 1 - INTERIOR_MARGIN is redrawn, so
    every row is a valid VerblunskySet."""
    if nu == 1.0:
        return _disk_samples(nu, count, gen)
    return _redrawn(count, lambda bad: _disk_samples(nu, int(np.count_nonzero(bad)), gen),
                    lambda x: np.abs(x) <= 1.0 - INTERIOR_MARGIN, f"disk variates with nu = {nu:g}", complex)


def _jacobi_shapes(n: int, beta: float, a: float, b: float) -> list[tuple[float, float]]:
    shapes = []
    for k in range(2 * n - 1):
        if k % 2 == 0:
            s = (2 * n - k - 2) * beta / 4.0 + a + 1.0
            t = (2 * n - k - 2) * beta / 4.0 + b + 1.0
        else:
            s = (2 * n - k - 3) * beta / 4.0 + a + b + 2.0
            t = (2 * n - k - 1) * beta / 4.0
        shapes.append((s, t))
    return shapes


def coefficient_samples(spec: EnsembleSpec, count: int, rng):
    """count independent coefficient draws of the ensemble's matrix model.

    Circular: complex Verblunsky coefficients alpha of shape (count, n);
    interior moduli above 1 - 1e-12 are redrawn, so every row passes
    VerblunskySet.
    Jacobi and Hermite: Jacobi matrix entries (b, a) of shapes (count, n)
    and (count, n - 1).  Draws are column by column: all count values of
    one coefficient, then the next, each column followed by its redraws.
    Jacobi coefficients are redrawn until strictly inside (-1, 1), so every
    a > 0; Hermite off-diagonals that underflow to 0 are redrawn after the
    last column.  A redraw loop that has not finished after MAX_DRAWS
    draws raises InvalidParams: beta is too small for the sampler.
    """
    if count < 1:
        raise InvalidParams("need count >= 1")
    gen = as_generator(rng)
    n = spec.n
    if spec.family == "circular":
        return np.stack([_circular_column(nu, count, gen) for nu in _circular_nus(n, spec.beta)], axis=1)
    if spec.family == "jacobi":
        cols = [_beta_interval_samples(s, t, count, gen) for s, t in _jacobi_shapes(n, spec.beta, spec.a, spec.b)]
        return geronimus_entries(np.stack([*cols, np.full(count, -1.0)], axis=1))
    diag = gen.standard_normal((count, n))
    half_dof = np.broadcast_to(spec.beta * (n - np.arange(1, n)) / 2.0, (count, n - 1))
    off = _redrawn((count, n - 1), lambda bad: np.sqrt(gen.gamma(half_dof[bad])), lambda x: x > 0.0,
                   "hermite off-diagonals")
    return diag, off


def sample_circular_beta(n: int, beta: float, rng) -> VerblunskySet:
    """Coefficient draw whose CMV eigenvalues follow the circular beta ensemble."""
    return VerblunskySet(coefficient_samples(EnsembleSpec("circular", n, beta), 1, rng)[0])


def sample_jacobi_beta(n: int, beta: float, a: float, b: float, rng) -> JacobiMatrix:
    """Tridiagonal draw whose eigenvalues follow the Jacobi beta ensemble on [-2, 2]."""
    diag, off = coefficient_samples(EnsembleSpec("jacobi", n, beta, a, b), 1, rng)
    return build_jacobi(diag[0], off[0])


def sample_hermite_beta(n: int, beta: float, rng) -> JacobiMatrix:
    """Tridiagonal draw whose eigenvalues follow the Hermite beta ensemble.

    Diagonal entries are standard Gaussian; the off-diagonal entry in row
    k is chi with beta*(n-k) degrees of freedom over sqrt(2), so the
    degrees of freedom shrink toward the bottom row.  chi_nu / sqrt(2) is
    realized exactly as sqrt(Gamma(nu/2, scale=1)).
    """
    diag, off = coefficient_samples(EnsembleSpec("hermite", n, beta), 1, rng)
    return build_jacobi(diag[0], off[0])


def gibbs_log_density(spec: EnsembleSpec, points) -> float:
    """Unnormalized log density of the ensemble's eigenvalue distribution.

    beta * sum_{j<k} log of the pairwise distances plus the one-body
    potential terms of the family.  Intended as a test oracle, not a
    sampling device.
    """
    pts = np.asarray(points, dtype=float).reshape(-1)
    if pts.size != spec.n:
        raise DomainViolation(f"expected {spec.n} points, got {pts.size}")
    if not np.all(np.isfinite(pts)):
        raise DomainViolation("points must be finite")
    if spec.family == "circular":
        z = np.exp(1j * pts)
        diffs = np.abs(z[:, None] - z[None, :])[np.triu_indices(spec.n, 1)]
        if np.any(diffs == 0.0):
            return -np.inf
        return float(spec.beta * np.log(diffs).sum())
    if spec.family == "hermite":
        diffs = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(spec.n, 1)]
        if np.any(diffs == 0.0):
            return -np.inf
        return float(spec.beta * np.log(diffs).sum() - 0.5 * np.sum(pts * pts))
    if np.any(np.abs(pts) > 2.0):
        raise DomainViolation("jacobi points must lie in [-2, 2]")
    diffs = np.abs(pts[:, None] - pts[None, :])[np.triu_indices(spec.n, 1)]
    with np.errstate(divide="ignore"):
        body = spec.a * np.log(2.0 - pts) + spec.b * np.log(2.0 + pts)
        pair = np.log(diffs) if diffs.size else np.zeros(0)
    if np.any(diffs == 0.0):
        return -np.inf
    return float(spec.beta * pair.sum() + body.sum())


def ks_statistic(samples, cdf) -> float:
    """Sup-norm distance between the empirical CDF of sorted samples and cdf."""
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size == 0:
        raise EmptySample("no samples")
    if np.any(np.diff(x) < 0.0):
        raise InvalidParams("samples must be sorted ascending")
    try:
        f = np.asarray(cdf(x), dtype=float)
        if f.shape != x.shape:
            raise TypeError
    except TypeError:
        f = np.array([float(cdf(t)) for t in x])
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        raise InvalidParams("cdf values must lie in [0, 1]")
    if np.any(np.diff(f) < -1e-12):
        raise InvalidParams("cdf must be monotone over the sample")
    m = x.size
    grid = np.arange(1, m + 1) / m
    return float(max((grid - f).max(), (f - (grid - 1.0 / m)).max()))


# --- batched eigenvalue draws (used by the CLI and the statistical tests) ---


def _batched_tridiagonal(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    count, n = b.shape
    m = np.zeros((count, n, n))
    idx = np.arange(n)
    m[:, idx, idx] = b
    if n > 1:
        j = np.arange(n - 1)
        m[:, j, j + 1] = a
        m[:, j + 1, j] = a
    return m


def eigenvalue_samples(spec: EnsembleSpec, count: int, rng) -> np.ndarray:
    """(count, n) array of sorted eigenvalue draws for the given ensemble.

    The spectra of coefficient_samples(spec, count, rng), row by row.
    Circular draws are angles in (-pi, pi]; the real-line families return
    plain reals.  Each row is one independent matrix draw, columns sorted
    ascending.  The dense matrices are built SPECTRA_BLOCK entries at a
    time, and no row depends on the block it falls in.
    """
    coeffs = coefficient_samples(spec, count, rng)
    n = spec.n
    out = np.empty((count, n))
    per = max(SPECTRA_BLOCK // (n * n), 1)
    for s in range(0, count, per):
        if spec.family == "circular":
            L, M = batched_lm_factors(coeffs[s : s + per])
            out[s : s + per] = unitary_angles(L @ M)
        else:
            b, a = (c[s : s + per] for c in coeffs)
            out[s : s + per] = np.linalg.eigvalsh(_batched_tridiagonal(b, a))
    return out


def random_verblunsky(n: int, rng, radius: float = 0.7, min_separation: float | None = None) -> VerblunskySet:
    """Generic coefficient set: interior uniform in a disk, boundary uniform.

    With min_separation set, redraws until all eigenvalue angles of the
    CMV matrix are at least that far apart (circularly).
    """
    gen = as_generator(rng)
    if n < 1:
        raise InvalidParams(f"need at least one coefficient, got n = {n}")
    if not 0.0 < radius < 1.0:
        raise InvalidParams("radius must lie in (0, 1)")
    for _ in range(MAX_DRAWS):
        mod = radius * np.sqrt(gen.random(n - 1))
        arg = TWO_PI * gen.random(n - 1)
        interior = mod * np.exp(1j * arg)
        last = np.exp(1j * TWO_PI * gen.random())
        v = VerblunskySet(np.concatenate([interior, [last]]))
        if min_separation is None:
            return v
        if n == 1 or circular_gaps(unitary_angles(build_cmv(v).entries)).min() > min_separation:
            return v
    raise InvalidParams("could not find a coefficient set with the requested separation")
