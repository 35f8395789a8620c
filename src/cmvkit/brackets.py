"""Exact Poisson brackets and the spectral Jacobian on Verblunsky coefficients.

The bracket acts on real observables of the interior coordinates
(u_j, v_j), alpha_j = u_j + i v_j, with the boundary coefficient frozen:

    {f, g} = sum_j rho_j^2 [df/du_j dg/dv_j - df/dv_j dg/du_j].

Every gradient is exact to rounding; nothing is differenced:

* `chart_jacobian` is the derivative of the spectral-to-coefficient map
  from one forward-mode Szego pass (`opuc.szego_tangents`).
  `spectral_to_verblunsky_jacobian` is its determinant, and
  `spectral_gradients` reads d(theta, log mu)/d(u, v) from one solve of
  it at the spectral measure of a coefficient set: one eigensolve per
  probe.
* `hamiltonian_gradients` gives dK_m = tr(C^(m-1) dC) from the
  closed-form derivative of each 2x2 block of L and M.
* `bracket_matrix` turns gradient rows into B[a, b] = {f_a, f_b}.

`Observable` and the central-difference `coordinate_gradient` are the
finite-difference view kept for the benchmark's tracer; the identity
suites do not use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SpectralMeasureCircle, VerblunskySet, build_cmv, lm_factors
from .errors import InvalidParams, NonDifferentiable, RhoTooSmall
from .opuc import szego_tangents, unitary_eigensystem, verblunsky_from_measure

DEFAULT_STEP = 1e-5
GRADIENT_AGREEMENT = 1e-4   # max relative disagreement between the two step sizes
PROBE_RHO_FLOOR = 1e-6


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


# Kept because perfbench/spans.py traces it as the brackets layer.
def coordinate_gradient(obs: Observable, v: VerblunskySet, h: float = DEFAULT_STEP):
    """Richardson-extrapolated central-difference gradient of one
    observable in the interior coordinates, plus the raw values at steps
    h and h/2.

    Raises RhoTooSmall when the stencil would leave the disk, and
    NonDifferentiable when the two raw gradients disagree beyond 1e-4
    relative to their scale, or are NaN.
    """
    _check_probe(v, h)
    x0 = interior_coordinates(v)
    if x0.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    g1, g2 = (g[0] for g in _stencil(lambda x: [obs(with_coordinates(v, x))], x0, np.full(x0.size, h)))
    scale = max(np.abs(g1).max(), np.abs(g2).max(), 1.0)
    gap = np.abs(g1 - g2).max()
    # written so that a NaN gap (a NaN observable) fails the guard too
    if not gap <= GRADIENT_AGREEMENT * scale:
        raise NonDifferentiable(f"{obs.name}: two-step gradients disagree by {gap / scale:.3e} relative")
    return (4.0 * g2 - g1) / 3.0, g1, g2


def bracket_matrix(rows: np.ndarray, v: VerblunskySet) -> np.ndarray:
    """Brackets B[a, b] = {f_a, f_b} of every pair of observables, from
    their gradient rows (k, 2(n-1)) in the interior coordinates of v.

    B is antisymmetric, with a zero diagonal, exactly: entry (b, a) is
    computed from the negated products of entry (a, b).
    """
    du, dv = rows[:, 0::2], rows[:, 1::2]
    return np.sum(v.rho * v.rho * (du[:, None] * dv[None] - dv[:, None] * du[None]), axis=-1)


def hamiltonian_gradients(v: VerblunskySet, degrees) -> np.ndarray:
    """Complex gradients of K_m = tr(C^m) / m, one row (2(n-1),) in the
    interior coordinates for each m in `degrees`, in that order; the real
    and imaginary parts are the gradients of Re K_m and Im K_m.

    dK_m = tr(C^(m-1) dC), and alpha_k moves only its block
    Theta_k = [[conj(a), rho], [rho, -a]] of L (k even) or M (k odd):
    tr(C^(m-1) dL M) = tr(X dL) with X = M C^(m-1), and
    tr(C^(m-1) L dM) = tr(X dM) with X = C^(m-1) L.  Along u_k,
    dTheta_k = [[1, r], [r, -1]], along v_k [[-i, r], [r, -i]], with r the
    derivative of rho_k = sqrt(1 - |a|^2), drho = -Re(conj(a) da) / rho.
    """
    L, M = lm_factors(v)
    C = L @ M
    powers = [np.eye(v.n)]
    for _ in range(1, max(degrees)):
        powers.append(powers[-1] @ C)
    k = np.arange(v.n - 1)
    parity = k % 2
    a, rho = v.interior, v.rho
    rows = np.empty((len(degrees), 2 * (v.n - 1)), dtype=complex)
    for row, m in zip(rows, degrees):
        X = np.stack([M @ powers[m - 1], powers[m - 1] @ L])
        x00, x11 = X[parity, k, k], X[parity, k + 1, k + 1]
        off = X[parity, k, k + 1] + X[parity, k + 1, k]
        row[0::2] = x00 - x11 - off * a.real / rho
        row[1::2] = -1j * (x00 + x11) - off * a.imag / rho
    return rows


def chart_jacobian(mu: SpectralMeasureCircle) -> np.ndarray:
    """Exact Jacobian (2n-1, 2n-1) of the spectral-to-coefficient map.

    Columns are the chart directions (theta_1, mu_1, ..., theta_{n-1},
    mu_{n-1}, theta_n) of `szego_tangents`, mu_n absorbing the weight
    steps; rows are (u_0, v_0, ..., u_{n-2}, v_{n-2}, phi) with
    phi = arg(alpha_{n-1}).  The phi row is Im(dalpha_{n-1} / alpha_{n-1}),
    which has no branch cut and ignores the renormalization of the
    boundary coefficient onto the circle.
    """
    alpha, dalpha = szego_tangents(mu.theta, mu.weights)
    jac = np.empty((dalpha.shape[1], dalpha.shape[1]))
    jac[0:-1:2] = dalpha[:-1].real
    jac[1:-1:2] = dalpha[:-1].imag
    jac[-1] = (dalpha[-1] / alpha[-1]).imag
    return jac


def spectral_to_verblunsky_jacobian(mu: SpectralMeasureCircle) -> float:
    """Jacobian determinant of the spectral-to-coefficient map in the
    coordinates of `chart_jacobian`."""
    return float(np.linalg.det(chart_jacobian(mu)))


def spectral_gradients(v: VerblunskySet) -> tuple[SpectralMeasureCircle, np.ndarray, np.ndarray]:
    """The spectral measure of v, and the gradients (n, 2(n-1)) of its
    angles theta_j and log weights log mu_j in the interior coordinates,
    boundary frozen.

    Labels are those of the measure, sorted by angle.  The gradients are
    the interior columns of the inverse chart Jacobian at that measure,
    from one solve; mu_n = 1 - sum_{j<n} mu_j gives the last weight's row.
    """
    mu = unitary_eigensystem(build_cmv(v))
    dim = 2 * mu.n - 1
    inverse = np.linalg.solve(chart_jacobian(mu), np.eye(dim)[:, : dim - 1])
    dmu = inverse[1::2]
    dlog = np.vstack([dmu, -dmu.sum(axis=0, keepdims=True)]) / mu.weights[:, None]
    return mu, inverse[0::2], dlog


def cotangent_residual(v: VerblunskySet, labels: tuple[int, int, int] = (0, 1, 2)) -> float:
    """Defect of the mass-ratio bracket against the cotangent sum.

    For any three labels (i, j, k) of the eigenvalues:
        {log(mu_j/mu_i), log(mu_k/mu_i)}
          - [2 cot((th_i - th_j)/2) + 2 cot((th_j - th_k)/2) + 2 cot((th_k - th_i)/2)]
    which should vanish; the returned residual is that difference.
    """
    if v.n < 3:
        raise InvalidParams("need n >= 3")
    i, j, k = labels
    mu, _, dlog = spectral_gradients(v)
    numeric = bracket_matrix(dlog[[j, k]] - dlog[i], v)[0, 1]
    th = mu.theta
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
