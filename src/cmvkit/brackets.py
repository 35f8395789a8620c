"""Exact Poisson brackets and the spectral Jacobian on Verblunsky coefficients.

The bracket acts on real observables of the interior coordinates
(u_j, v_j), alpha_j = u_j + i v_j, with the boundary coefficient frozen:

    {f, g} = sum_j rho_j^2 [df/du_j dg/dv_j - df/dv_j dg/du_j].

Every gradient is exact to rounding; nothing is differenced:

* `chart_jacobian` is the derivative of the spectral-to-coefficient map
  from one forward-mode Szego pass (`opuc.szego_tangents`).
  `spectral_to_verblunsky_jacobian` is its determinant, and
  `spectral_gradients` reads d(theta, log mu)/d(u, v) from one solve of
  it at the spectral measure of a coefficient set: one eigensolved
  matrix per probe.
* `hamiltonian_gradients` gives dK_m = tr(C^(m-1) dC) from the
  closed-form derivative of each 2x2 block of L and M, reading the
  banded kernel `alflows._trace_gradient_blocks`.  That kernel is the
  package's one derivative of the trace Hamiltonians: the Ablowitz-Ladik
  field `alflows.al_vector_field` is the bracket {alpha_k, Re K_m} or
  {alpha_k, Im K_m} read from the same blocks.
* `bracket_matrix` turns gradient rows into B[a, b] = {f_a, f_b}.

Each of these also takes a stack of probes: a VerblunskySet or
SpectralMeasureCircle whose arrays carry leading axes (..., n).  A stack
of coefficient sets is one batched CMV build (core.lm_factors, then
L @ M) and one batched eig; a stack of measures is one stacked Szego
tangent pass; solves and determinants are batched, and the closed-form
Jacobian reads one Szego pass.  Only the banded K_m kernel runs once per
probe.  Row t of every result equals the result for probe t alone, bit
for bit, so `cmv verify` evaluates its probes in blocks and a one-probe
call reproduces any of them.  The record `cmv verify` writes of a
coefficient probe loads as that probe: the boundary rule of VerblunskySet
(core.renormalize_boundary, |alpha_{n-1}| kept within one ulp of 1) is a
fixed point.

`Observable` and the central-difference `coordinate_gradient` are the
finite-difference view kept for the benchmark's tracer; the identity
suites do not use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .alflows import _check_order, _gradient_tables, _trace_gradient_blocks
from .core import SpectralMeasureCircle, VerblunskySet, build_cmv
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


def _value(x):
    """A result for one probe as a float; for a stack of probes, the array."""
    return float(x) if np.ndim(x) == 0 else x


def bracket_matrix(rows: np.ndarray, v: VerblunskySet) -> np.ndarray:
    """Brackets B[a, b] = {f_a, f_b} of every pair of observables, from
    their gradient rows (k, 2(n-1)) in the interior coordinates of v; for
    a stack of sets v, rows (..., k, 2(n-1)) give B (..., k, k).

    B is antisymmetric, with a zero diagonal, exactly: entry (b, a) is
    computed from the negated products of entry (a, b).
    """
    du, dv = rows[..., 0::2], rows[..., 1::2]
    du_a, dv_a = du[..., :, None, :], dv[..., :, None, :]
    du_b, dv_b = du[..., None, :, :], dv[..., None, :, :]
    return np.sum((v.rho * v.rho)[..., None, None, :] * (du_a * dv_b - dv_a * du_b), axis=-1)


def hamiltonian_gradients(v: VerblunskySet, degrees) -> np.ndarray:
    """Complex gradients of K_m = tr(C^m) / m, one row (2(n-1),) in the
    interior coordinates for each m in `degrees`, in that order; the real
    and imaginary parts are the gradients of Re K_m and Im K_m.  A stack
    of sets v gives (..., len(degrees), 2(n-1)).

    Each row reads the entries x00, x11, o of the banded kernel
    `alflows._trace_gradient_blocks`, called once per coefficient set on
    gather tables looked up once per call (dK_m = tr(X dTheta_k) for the
    block Theta_k = [[conj(a), rho], [rho, -a]] that alpha_k moves).
    Along u_k, dTheta_k = [[1, r], [r, -1]], along v_k [[-i, r], [r, -i]],
    with r the derivative of rho_k = sqrt(1 - |a|^2), drho = -Re(conj(a) da) / rho:
        d/du_k = x00 - x11 - o Re(a) / rho,  d/dv_k = -i (x00 + x11) - o Im(a) / rho.
    """
    degrees = [_check_order(m) for m in degrees]
    tables = _gradient_tables(v.n, degrees)
    blocks = [_trace_gradient_blocks(row, degrees, None, tables)[1] for row in v.alpha.reshape(-1, v.n)]
    x00, x11, off = np.moveaxis(np.array(blocks).reshape(v.alpha.shape[:-1] + (len(degrees), 3, v.n - 1)), -2, 0)
    a, rho = v.interior[..., None, :], v.rho[..., None, :]
    rows = np.empty(x00.shape[:-1] + (2 * (v.n - 1),), dtype=complex)
    rows[..., 0::2] = x00 - x11 - off * a.real / rho
    rows[..., 1::2] = -1j * (x00 + x11) - off * a.imag / rho
    return rows


def chart_jacobian(mu: SpectralMeasureCircle) -> np.ndarray:
    """Exact Jacobian (2n-1, 2n-1) of the spectral-to-coefficient map, or
    (..., 2n-1, 2n-1) for a stack of measures.

    Columns are the chart directions (theta_1, mu_1, ..., theta_{n-1},
    mu_{n-1}, theta_n) of `szego_tangents`, mu_n absorbing the weight
    steps; rows are (u_0, v_0, ..., u_{n-2}, v_{n-2}, phi) with
    phi = arg(alpha_{n-1}).  The phi row is Im(dalpha_{n-1} / alpha_{n-1}),
    which has no branch cut and ignores the renormalization of the
    boundary coefficient onto the circle.
    """
    alpha, dalpha = szego_tangents(mu.theta, mu.weights)
    dim = dalpha.shape[-1]
    jac = np.empty(dalpha.shape[:-2] + (dim, dim))
    jac[..., 0:-1:2, :] = dalpha[..., :-1, :].real
    jac[..., 1:-1:2, :] = dalpha[..., :-1, :].imag
    jac[..., -1, :] = (dalpha[..., -1, :] / alpha[..., -1:]).imag
    return jac


def spectral_to_verblunsky_jacobian(mu: SpectralMeasureCircle):
    """Jacobian determinant of the spectral-to-coefficient map in the
    coordinates of `chart_jacobian`: a float, or an array for a stack of
    measures, from one batched LU."""
    return _value(np.linalg.det(chart_jacobian(mu)))


def spectral_gradients(v: VerblunskySet) -> tuple[SpectralMeasureCircle, np.ndarray, np.ndarray]:
    """The spectral measure of v, and the gradients (n, 2(n-1)) of its
    angles theta_j and log weights log mu_j in the interior coordinates,
    boundary frozen.  A stack of sets v gives the stack of measures and
    gradients (..., n, 2(n-1)), from one batched CMV build, eig and solve.

    Labels are those of the measure, sorted by angle.  The gradients are
    the interior columns of the inverse chart Jacobian at that measure,
    from one solve; mu_n = 1 - sum_{j<n} mu_j gives the last weight's row.
    """
    mu = unitary_eigensystem(build_cmv(v))
    dim = 2 * mu.n - 1
    inverse = np.linalg.solve(chart_jacobian(mu), np.eye(dim)[:, : dim - 1])
    dmu = inverse[..., 1::2, :]
    dlog = np.concatenate([dmu, -dmu.sum(axis=-2, keepdims=True)], axis=-2) / mu.weights[..., :, None]
    return mu, inverse[..., 0::2, :], dlog


def cotangent_residual(v: VerblunskySet, labels=(0, 1, 2)):
    """Defect of the mass-ratio bracket against the cotangent sum.

    For any three labels (i, j, k) of the eigenvalues:
        {log(mu_j/mu_i), log(mu_k/mu_i)}
          - [2 cot((th_i - th_j)/2) + 2 cot((th_j - th_k)/2) + 2 cot((th_k - th_i)/2)]
    which should vanish; the returned residual is that difference, a
    float, or an array for a stack of sets v with one row of labels
    (..., 3) each.
    """
    if v.n < 3:
        raise InvalidParams("need n >= 3")
    mu, _, dlog = spectral_gradients(v)
    labels = np.broadcast_to(np.asarray(labels), v.alpha.shape[:-1] + (3,))
    picked = np.take_along_axis(dlog, labels[..., None], axis=-2)  # rows i, j, k
    numeric = bracket_matrix(picked[..., 1:, :] - picked[..., :1, :], v)[..., 0, 1]
    th_i, th_j, th_k = np.moveaxis(np.take_along_axis(mu.theta, labels, axis=-1), -1, 0)
    predicted = (
        2.0 / np.tan(0.5 * (th_i - th_j))
        + 2.0 / np.tan(0.5 * (th_j - th_k))
        + 2.0 / np.tan(0.5 * (th_k - th_i))
    )
    return _value(numeric - predicted)


def jacobian_prediction(mu: SpectralMeasureCircle):
    """Closed-form value -2^(1-n) prod(rho_j^2) / prod(mu_j) of the spectral
    Jacobian at the given measure: a float, or an array for a stack of
    measures, whose coefficients come from one Szego pass."""
    v = verblunsky_from_measure(mu)
    rho2 = np.prod(v.rho * v.rho, axis=-1)
    return _value(-(2.0 ** (1 - mu.n)) * rho2 / np.prod(mu.weights, axis=-1))
