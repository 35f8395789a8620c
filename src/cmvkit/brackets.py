"""Finite-difference Poisson bracket engine on Verblunsky coefficients.

The bracket acts on real observables of the interior coordinates
(u_j, v_j), alpha_j = u_j + i v_j, with the boundary coefficient frozen:

    {f, g} = sum_j rho_j^2 [df/du_j dg/dv_j - df/dv_j dg/du_j].

Partial derivatives are central differences evaluated at two step sizes
(h and h/2) and Richardson-extrapolated; the two raw values also provide
the error estimate and a non-smoothness guard.  There is one stencil
loop, `coordinate_jacobian`: it differentiates a vector-valued
observable, evaluating it once at each of the 4 * 2(n-1) stencil
points, so observables that share work (every eigenvalue angle and
weight from one eigensolve, every trace Hamiltonian from one CMV matrix)
share it across the whole stencil.  `coordinate_gradient` and
`al_bracket` are its one-row and two-row views.  Evaluating brackets
numerically exercises the eigensolver and both spectral maps end to end,
which is exactly what the identity suites are for.

Every bracket evaluation is independent and pure; verification sweeps may
run probe points in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SpectralMeasureCircle, VerblunskySet, build_cmv
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


@dataclass(frozen=True)
class Observable:
    """Named real-valued function of a coefficient set (boundary frozen)."""

    name: str
    fn: Callable[[VerblunskySet], float]

    def __call__(self, v: VerblunskySet) -> float:
        return float(self.fn(v))


@dataclass(frozen=True)
class BracketReport:
    """Extrapolated bracket value with the steps used and an error estimate."""

    value: float
    steps: tuple[float, float]
    error: float


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


def _central_differences(fn, v: VerblunskySet, x0: np.ndarray, step: float) -> np.ndarray:
    """(fn(x0 + step e_i) - fn(x0 - step e_i)) / (2 step) for every i, shape (k, d)."""
    cols = []
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += step
        fp = np.asarray(fn(with_coordinates(v, xp)), dtype=float)
        xp[i] = x0[i] - step
        fm = np.asarray(fn(with_coordinates(v, xp)), dtype=float)
        cols.append((fp - fm) / (2.0 * step))
    return np.stack(cols, axis=1)


def coordinate_jacobian(fn, v: VerblunskySet, h: float = DEFAULT_STEP, names=None):
    """Richardson-extrapolated Jacobian of a vector observable, plus the raw rows.

    fn maps a coefficient set to a (k,) array of real values.  It is
    evaluated once at each stencil point x0 +- h e_i and x0 +- (h/2) e_i
    of the 2(n-1) interior coordinates.  Returns (extrapolated, step h,
    step h/2), each of shape (k, 2(n-1)); row r is the gradient of
    component r.

    Raises RhoTooSmall when the stencil would leave the disk, and
    NonDifferentiable when, for some component, the step-h and step-h/2
    gradients disagree beyond 1e-4 relative to that row's gradient scale
    (constant components come out as zero rows, not as errors).  The
    message names the first such component, by `names[r]` if given.
    """
    _check_probe(v, h)
    x0 = interior_coordinates(v)
    if x0.size == 0:
        empty = np.empty((np.size(fn(v)), 0))
        return empty, empty, empty
    g1 = _central_differences(fn, v, x0, h)
    g2 = _central_differences(fn, v, x0, h / 2.0)
    scale = np.maximum(np.maximum(np.abs(g1).max(axis=1), np.abs(g2).max(axis=1)), 1.0)
    gap = np.abs(g1 - g2).max(axis=1)
    bad = np.flatnonzero(gap > GRADIENT_AGREEMENT * scale)
    if bad.size:
        r = int(bad[0])
        name = names[r] if names is not None else f"component {r}"
        raise NonDifferentiable(f"{name}: two-step gradients disagree by {gap[r] / scale[r]:.3e} relative")
    return (4.0 * g2 - g1) / 3.0, g1, g2


def coordinate_gradient(obs: Observable, v: VerblunskySet, h: float = DEFAULT_STEP):
    """Richardson-extrapolated gradient plus the raw two-step values.

    The one-row view of `coordinate_jacobian`, with its probe check and
    its NonDifferentiable guard.
    """
    grad, g1, g2 = coordinate_jacobian(lambda w: [obs(w)], v, h, names=(obs.name,))
    return grad[0], g1[0], g2[0]


def bracket_from_gradients(gf: np.ndarray, gg: np.ndarray, rho: np.ndarray) -> float:
    """Assemble sum_j rho_j^2 (df/du dg/dv - df/dv dg/du) from flat gradients."""
    rho2 = rho * rho
    return float(np.sum(rho2 * (gf[0::2] * gg[1::2] - gf[1::2] * gg[0::2])))


def richardson_bracket(g1: np.ndarray, g2: np.ndarray, a: int, b: int, rho: np.ndarray, scale: float = 1.0):
    """Extrapolated bracket of Jacobian rows a and b, and its error estimate.

    g1 and g2 are the step-h and step-h/2 Jacobians of `coordinate_jacobian`;
    both raw brackets are multiplied by `scale` before extrapolation.
    """
    coarse = scale * bracket_from_gradients(g1[a], g1[b], rho)
    fine = scale * bracket_from_gradients(g2[a], g2[b], rho)
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0


def al_bracket(f: Observable, g: Observable, v: VerblunskySet, h: float = DEFAULT_STEP) -> BracketReport:
    """Numerical Ablowitz-Ladik bracket {f, g} at the probe point v."""
    _, g1, g2 = coordinate_jacobian(lambda w: [f(w), g(w)], v, h, names=(f.name, g.name))
    value, error = richardson_bracket(g1, g2, 0, 1, v.rho)
    return BracketReport(value=value, steps=(h, h / 2.0), error=error)


class SpectralObservables:
    """Eigenvalue angles and weights with labels stable under perturbation.

    Labels refer to the base point's spectral measure sorted by angle.
    Evaluation at a perturbed coefficient set matches each base angle to
    the nearest perturbed angle (circularly); a second candidate within
    twice the best distance raises MatchingAmbiguous.  Matched angles are
    unwrapped to the branch closest to the base angle so the observables
    stay continuous.  `values` gives every matched angle and weight from
    one eigensolve; the scalar observables are views of it.
    """

    def __init__(self, v: VerblunskySet, separation: float = 1e-6):
        base = unitary_eigensystem(build_cmv(v))
        gaps = np.diff(base.theta)
        wrap = base.theta[0] + TWO_PI - base.theta[-1]
        if base.n > 1 and min(gaps.min(), wrap) <= separation:
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

    def theta(self, j: int) -> Observable:
        return Observable(f"theta_{j}", lambda w, j=j: self.values(w)[0][j])

    def mass(self, j: int) -> Observable:
        return Observable(f"mu_{j}", lambda w, j=j: self.values(w)[1][j])

    def log_mass_ratio(self, j: int, l: int) -> Observable:
        def fn(w, j=j, l=l):
            weights = self.values(w)[1]
            return np.log(weights[j] / weights[l])

        return Observable(f"log(mu_{j}/mu_{l})", fn)

    def total_mass(self) -> Observable:
        return Observable("total_mass", lambda w: self.values(w)[1].sum())


def spectral_observables(v: VerblunskySet, separation: float = 1e-6) -> SpectralObservables:
    """Labelled angle/weight observables at the probe point."""
    return SpectralObservables(v, separation)


def trace_hamiltonians(w: VerblunskySet, ms) -> np.ndarray:
    """[Re K_m, Im K_m for m in ms], K_m = tr(C^m) / m, from one CMV matrix."""
    if min(ms) < 1:
        raise InvalidParams("need m >= 1")
    C = np.asarray(build_cmv(w).entries)
    out = []
    for m in ms:
        trace = np.trace(np.linalg.matrix_power(C, m))
        out += [trace.real / m, trace.imag / m]
    return np.array(out)


def hamiltonian_observables(v: VerblunskySet, m: int) -> tuple[Observable, Observable]:
    """(Re K_m, Im K_m) as observables; v only fixes the boundary coefficient."""
    if m < 1:
        raise InvalidParams("need m >= 1")
    return (
        Observable(f"Re K_{m}", lambda w, m=m: trace_hamiltonians(w, (m,))[0]),
        Observable(f"Im K_{m}", lambda w, m=m: trace_hamiltonians(w, (m,))[1]),
    )


def coordinate_observables(v: VerblunskySet, j: int) -> tuple[Observable, Observable]:
    """(u_j, v_j) as observables, 0 <= j <= n-2."""
    if not 0 <= j <= v.n - 2:
        raise InvalidParams(f"coordinate index {j} outside 0..{v.n - 2}")
    return (
        Observable(f"u_{j}", lambda w, j=j: w.alpha[j].real),
        Observable(f"v_{j}", lambda w, j=j: w.alpha[j].imag),
    )


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
    obs = spectral_observables(v)

    def log_ratios(w):
        weights = obs.values(w)[1]
        return np.log(weights[[j, k]] / weights[i])

    names = (f"log(mu_{j}/mu_{i})", f"log(mu_{k}/mu_{i})")
    _, g1, g2 = coordinate_jacobian(log_ratios, v, h, names)
    numeric, _ = richardson_bracket(g1, g2, 0, 1, v.rho)
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
    phi = arg(alpha_{n-1}); differentiation is by central differences at
    steps h and h/2 with Richardson extrapolation of the matrix.
    """
    n = mu.n
    theta0 = mu.theta.copy()
    w0 = mu.weights.copy()

    def outputs(theta, weights):
        v = verblunsky_from_measure(SpectralMeasureCircle(theta, weights))
        phi = np.angle(v.alpha[-1])
        return np.concatenate([interior_coordinates(v), [phi]]) if n > 1 else np.array([phi])

    base_phi = np.angle(verblunsky_from_measure(mu).alpha[-1])
    if np.pi - abs(base_phi) < BRANCH_MARGIN:
        raise BranchProximity(f"arg(alpha_{n-1}) = {base_phi:.6f} is within 0.1 of the cut")
    if np.pi - np.abs(theta0).max() < 10.0 * h:
        raise BranchProximity("support too close to angle pi for stable differentiation")

    def column(plus, minus):
        # unwrap the phase component relative to the base value
        d = plus - minus
        d[-1] -= TWO_PI * np.round(d[-1] / TWO_PI)
        return d

    def jacobian_at(step):
        dim = 2 * n - 1
        jac = np.empty((dim, dim))
        col = 0
        for j in range(n):
            tp = theta0.copy()
            tp[j] += step
            plus = outputs(tp, w0)
            tp[j] = theta0[j] - step
            minus = outputs(tp, w0)
            jac[:, col] = column(plus, minus) / (2.0 * step)
            col += 1
            if j < n - 1:
                hw = min(step, 0.25 * w0[j], 0.25 * w0[-1])
                wp = w0.copy()
                wp[j] += hw
                wp[-1] -= hw
                plus = outputs(theta0, wp)
                wp[j] = w0[j] - hw
                wp[-1] = w0[-1] + hw
                minus = outputs(theta0, wp)
                jac[:, col] = column(plus, minus) / (2.0 * hw)
                col += 1
        return jac

    refined = (4.0 * jacobian_at(h / 2.0) - jacobian_at(h)) / 3.0
    return float(np.linalg.det(refined))
