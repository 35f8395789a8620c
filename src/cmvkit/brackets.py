"""Finite-difference Poisson bracket engine on Verblunsky coefficients.

The bracket acts on real observables of the interior coordinates
(u_j, v_j), alpha_j = u_j + i v_j, with the boundary coefficient frozen:

    {f, g} = sum_j rho_j^2 [df/du_j dg/dv_j - df/dv_j dg/du_j].

Derivatives are central differences at two step sizes (h and h/2),
Richardson-extrapolated; the two raw values also give the error estimate
and a non-smoothness guard.  The engine has one stencil and one bracket
matrix:

* `_stencil` is the only central-difference loop.  `coordinate_jacobian`
  runs it on the 2(n-1) interior coordinates and adds the two-step
  agreement guard: a vector observable is evaluated once at each of the
  4 * 2(n-1) stencil points, so observables that share work (every
  eigenvalue angle and weight from one eigensolve, every trace
  Hamiltonian from one CMV matrix) share it across the whole stencil.
  `spectral_to_verblunsky_jacobian` runs it on an offset chart of the
  spectral measure.  `coordinate_gradient` is the one-row view.
* `bracket_matrix` gives B[a, b] = {f_a, f_b} for every pair of
  components of a vector observable, with error estimates.
  `cotangent_residual` reads one entry of it, the verify suites slices.

Evaluating brackets numerically exercises the eigensolver and both
spectral maps end to end, which is exactly what the identity suites are
for.  Every bracket evaluation is independent and pure; verification
sweeps may run probe points in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SpectralMeasureCircle, VerblunskySet, build_cmv, circular_gaps
from .errors import (
    BranchProximity,
    DegenerateSpectrum,
    InvalidParams,
    MatchingAmbiguous,
    NonDifferentiable,
    RhoTooSmall,
)
from .opuc import unitary_eigensystem, verblunsky_from_measure

DEFAULT_STEP = 1e-5
GRADIENT_AGREEMENT = 1e-4   # max relative disagreement between the two step sizes
PROBE_RHO_FLOOR = 1e-6
BRANCH_MARGIN = 0.1         # keep arg(alpha_{n-1}) this far from +-pi
TWO_PI = 2.0 * np.pi


# Kept because perfbench/spans.py counts evaluations through Observable.__call__.
@dataclass(frozen=True)
class Observable:
    """Named real-valued function of a coefficient set (boundary frozen)."""

    name: str
    fn: Callable[[VerblunskySet], float]

    def __call__(self, v: VerblunskySet) -> float:
        return float(self.fn(v))


def interior_coordinates(v: VerblunskySet) -> np.ndarray:
    """Flat real coordinates [u_0, v_0, ..., u_{n-2}, v_{n-2}]."""
    out = np.empty(2 * (v.n - 1))
    out[0::2] = v.interior.real
    out[1::2] = v.interior.imag
    return out


def with_coordinates(v: VerblunskySet, coords: np.ndarray) -> VerblunskySet:
    """Coefficient set at the given interior coordinates, same boundary."""
    return v.replace_interior(coords[0::2] + 1j * coords[1::2])


def _check_probe(v: VerblunskySet, h: float):
    if v.n == 1:
        return
    if v.rho.min() <= PROBE_RHO_FLOOR:
        raise RhoTooSmall(f"probe point has rho = {v.rho.min():.3e}")
    # the stencil must not push a coefficient out of the disk
    if np.abs(v.interior).max() + 2.0 * h >= 1.0 - 1e-12:
        raise RhoTooSmall(f"step {h:g} would push a coefficient onto the circle")


def _stencil(fn, x0: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference Jacobians of fn at x0, at `steps` and at `steps / 2`.

    fn maps a flat coordinate vector to a (k,) array of reals; coordinate
    i is moved by steps[i].  Returns (coarse, fine), each of shape
    (k, x0.size), column i being (fn(x0 + s e_i) - fn(x0 - s e_i)) / (2 s).
    """
    jacobians = []
    for step in (steps, steps / 2.0):
        cols = []
        for i in range(x0.size):
            xp = x0.copy()
            xp[i] += step[i]
            fp = np.asarray(fn(xp), dtype=float)
            xp[i] = x0[i] - step[i]
            fm = np.asarray(fn(xp), dtype=float)
            cols.append((fp - fm) / (2.0 * step[i]))
        jacobians.append(np.stack(cols, axis=1))
    return jacobians[0], jacobians[1]


def coordinate_jacobian(fn, v: VerblunskySet, h: float = DEFAULT_STEP, names=None):
    """Richardson-extrapolated Jacobian of a vector observable, plus the raw rows.

    fn maps a coefficient set to a (k,) array of real values.  It is
    evaluated once at each stencil point x0 +- h e_i and x0 +- (h/2) e_i
    of the 2(n-1) interior coordinates.  Returns (extrapolated, step h,
    step h/2), each of shape (k, 2(n-1)); row r is the gradient of
    component r.

    Raises RhoTooSmall when the stencil would leave the disk, and
    NonDifferentiable when, for some component, the step-h and step-h/2
    gradients disagree beyond 1e-4 relative to that row's gradient scale,
    or are NaN (constant components come out as zero rows, not as
    errors).  The message names the first such component, by `names[r]`
    if given.
    """
    _check_probe(v, h)
    x0 = interior_coordinates(v)
    if x0.size == 0:
        empty = np.empty((np.size(fn(v)), 0))
        return empty, empty, empty
    g1, g2 = _stencil(lambda x: fn(with_coordinates(v, x)), x0, np.full(x0.size, h))
    scale = np.maximum(np.maximum(np.abs(g1).max(axis=1), np.abs(g2).max(axis=1)), 1.0)
    gap = np.abs(g1 - g2).max(axis=1)
    # written so that a NaN gap (a NaN observable) fails the guard too
    bad = np.flatnonzero(~(gap <= GRADIENT_AGREEMENT * scale))
    if bad.size:
        r = int(bad[0])
        name = names[r] if names is not None else f"component {r}"
        raise NonDifferentiable(f"{name}: two-step gradients disagree by {gap[r] / scale[r]:.3e} relative")
    return (4.0 * g2 - g1) / 3.0, g1, g2


# Kept because perfbench/spans.py traces it as the brackets layer.
def coordinate_gradient(obs: Observable, v: VerblunskySet, h: float = DEFAULT_STEP):
    """Richardson-extrapolated gradient plus the raw two-step values.

    The one-row view of `coordinate_jacobian`, with its probe check and
    its NonDifferentiable guard.
    """
    grad, g1, g2 = coordinate_jacobian(lambda w: [obs(w)], v, h, names=(obs.name,))
    return grad[0], g1[0], g2[0]


def _raw_brackets(jac: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_j rho_j^2 (df_a/du_j df_b/dv_j - df_a/dv_j df_b/du_j) over all rows a, b."""
    du, dv = jac[:, 0::2], jac[:, 1::2]
    return np.sum(rho * rho * (du[:, None] * dv[None] - dv[:, None] * du[None]), axis=-1)


def bracket_matrix(fn, v: VerblunskySet, h: float = DEFAULT_STEP, names=None) -> tuple[np.ndarray, np.ndarray]:
    """Brackets B[a, b] = {f_a, f_b} of every pair of components of fn, and
    their error estimates, both of shape (k, k).

    fn is a vector observable as in `coordinate_jacobian`, which supplies
    the step-h and step-h/2 Jacobians (and their probe check and guard).
    B is the Richardson extrapolation (4 fine - coarse) / 3 of the two raw
    bracket matrices, and the error |fine - coarse| / 3.  B is
    antisymmetric, with a zero diagonal, exactly: entry (b, a) is computed
    from the negated products of entry (a, b).
    """
    _, g1, g2 = coordinate_jacobian(fn, v, h, names)
    coarse = _raw_brackets(g1, v.rho)
    fine = _raw_brackets(g2, v.rho)
    return (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse) / 3.0


class SpectralObservables:
    """Eigenvalue angles and weights with labels stable under perturbation.

    Labels refer to the base point's spectral measure sorted by angle.
    Evaluation at a perturbed coefficient set matches each base angle to
    the nearest perturbed angle (circularly); a second candidate within
    twice the best distance raises MatchingAmbiguous.  Matched angles are
    unwrapped to the branch closest to the base angle so the observables
    stay continuous.  `values` gives every matched angle and weight from
    one eigensolve.
    """

    def __init__(self, v: VerblunskySet, separation: float = 1e-6):
        base = unitary_eigensystem(build_cmv(v))
        if base.n > 1 and circular_gaps(base.theta).min() <= separation:
            raise DegenerateSpectrum(f"base spectrum separation below {separation:g}")
        self.base = base
        self.n = base.n

    def values(self, w: VerblunskySet) -> tuple[np.ndarray, np.ndarray]:
        """(theta, weights) at w, both in base-label order, from one eigensolve."""
        mu = unitary_eigensystem(build_cmv(w))
        taken = set()
        theta = np.empty(self.n)
        weights = np.empty(self.n)
        for j in range(self.n):
            delta = mu.theta - self.base.theta[j]
            dist = np.abs(delta - TWO_PI * np.round(delta / TWO_PI))
            order = np.argsort(dist)
            i = int(order[0])
            if self.n > 1 and dist[order[1]] < 2.0 * dist[order[0]]:
                raise MatchingAmbiguous(f"labels {j}: two candidates within a factor 2")
            if i in taken:
                raise MatchingAmbiguous("two base labels matched the same eigenvalue")
            taken.add(i)
            d = delta[i] - TWO_PI * np.round(delta[i] / TWO_PI)
            theta[j] = self.base.theta[j] + d
            weights[j] = mu.weights[i]
        return theta, weights


def cotangent_residual(v: VerblunskySet, labels: tuple[int, int, int] = (0, 1, 2), h: float = DEFAULT_STEP) -> float:
    """Defect of the mass-ratio bracket against the cotangent sum.

    For any three labels (i, j, k) of the eigenvalues:
        {log(mu_j/mu_i), log(mu_k/mu_i)}
          - [2 cot((th_i - th_j)/2) + 2 cot((th_j - th_k)/2) + 2 cot((th_k - th_i)/2)]
    which should vanish; the returned residual is that difference.
    """
    if v.n < 3:
        raise InvalidParams("need n >= 3")
    i, j, k = labels
    obs = SpectralObservables(v)

    def log_ratios(w):
        weights = obs.values(w)[1]
        return np.log(weights[[j, k]] / weights[i])

    names = (f"log(mu_{j}/mu_{i})", f"log(mu_{k}/mu_{i})")
    numeric = bracket_matrix(log_ratios, v, h, names)[0][0, 1]
    th = obs.base.theta
    predicted = (
        2.0 / np.tan(0.5 * (th[i] - th[j]))
        + 2.0 / np.tan(0.5 * (th[j] - th[k]))
        + 2.0 / np.tan(0.5 * (th[k] - th[i]))
    )
    return float(numeric - predicted)


def jacobian_prediction(mu: SpectralMeasureCircle) -> float:
    """Closed-form value -2^(1-n) prod(rho_j^2) / prod(mu_j) of the spectral
    Jacobian at the given measure."""
    v = verblunsky_from_measure(mu)
    rho2 = np.prod(v.rho * v.rho) if v.n > 1 else 1.0
    return float(-(2.0 ** (1 - mu.n)) * rho2 / np.prod(mu.weights))


JACOBIAN_STEP = 4e-4  # larger than the bracket step: the map is smooth and
#                       arg() rounding noise scales like eps / h


def spectral_to_verblunsky_jacobian(mu: SpectralMeasureCircle, h: float = JACOBIAN_STEP) -> float:
    """Numerical Jacobian determinant of the spectral-to-coefficient map.

    Coordinates (theta_1, mu_1, ..., theta_{n-1}, mu_{n-1}, theta_n) with
    mu_n dependent map to (u_0, v_0, ..., u_{n-2}, v_{n-2}, phi) with
    phi = arg(alpha_{n-1}).  `_stencil` differentiates the map in the
    offset chart dx = (dtheta_1, dmu_1, ..., dtheta_n), where mu_n absorbs
    the weight steps, at steps h and h/2 (a weight step is capped at a
    quarter of the two weights it moves, then halved), and the two
    matrices are Richardson-extrapolated.  phi depends on the angles only
    through their sum, so a stencil point moves it by at most h, and the
    branch margin keeps it 0.1 from the cut: no difference of phi wraps.
    """
    n = mu.n
    theta0, w0 = mu.theta, mu.weights

    def outputs(dx):
        weights = w0.copy()
        weights[:-1] += dx[1::2]
        weights[-1] -= dx[1::2].sum()
        v = verblunsky_from_measure(SpectralMeasureCircle(theta0 + dx[0::2], weights))
        return np.concatenate([interior_coordinates(v), [np.angle(v.alpha[-1])]])

    base_phi = np.angle(verblunsky_from_measure(mu).alpha[-1])
    if np.pi - abs(base_phi) < BRANCH_MARGIN:
        raise BranchProximity(f"arg(alpha_{n-1}) = {base_phi:.6f} is within 0.1 of the cut")
    if np.pi - np.abs(theta0).max() < 10.0 * h:
        raise BranchProximity("support too close to angle pi for stable differentiation")

    steps = np.full(2 * n - 1, h)
    steps[1::2] = np.minimum(h, 0.25 * np.minimum(w0[:-1], w0[-1]))
    coarse, fine = _stencil(outputs, np.zeros(2 * n - 1), steps)
    return float(np.linalg.det((4.0 * fine - coarse) / 3.0))
