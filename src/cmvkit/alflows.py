"""The finite defocusing Ablowitz-Ladik hierarchy on Verblunsky coefficients.

The Hamiltonians are the real and imaginary parts of the trace powers
K_m = tr(C^m)/m of the CMV matrix.  Their flows keep the spectrum fixed
and admit a commutator (Lax) form: the m-th flow moves the matrix along
dC/dt = [C, P] with an anti-Hermitian partner P built from the upper
part of C^m.  Extracting the coefficient velocities from the commutator
reproduces, for (m=1, re), the lattice equation
    d(alpha_j)/dt = i rho_j^2 (alpha_{j-1} + alpha_{j+1})
with the left boundary value pinned to -1 (the fixed unimodular boundary
realized by the finite matrix) and alpha_{n-1} frozen.

Two propagators are provided and cross-validate each other:

* integrate_flow: fixed-step RK4 on the commutator vector field;
* flow_via_spectral / exact_propagate: diagonalize once, evolve the
  spectral weights exactly as mu_j(t) ~ exp(F(theta_j) t) mu_j(0) with
  F(theta) = 2 Re[z f'(z)], then invert the spectral map;
* spectral_trajectory: flow_via_spectral at every time of a trajectory,
  with one diagonalization for all of them.  Every state is an explicit
  function of t, so the time axis is an array axis: propagated_weights
  gives the weights of all times as one (T, n) array and one szego_rows
  pass inverts them all.

integrate_flow and spectral_trajectory emit states on the same time grid
and read their diagnostics through Trajectory.from_blocks, in blocks of at
most ANGLE_BLOCK matrix entries: one stacked CMV check (spectral) and one
stacked angle read (both) per block.

Direction convention: the commutator flow of the Hamiltonian Im tr f(C)
transports spectral weights like exp(-F t), i.e. like the exact
propagator of the negated Hamiltonian.  FlowHamiltonian.matching_lax_flow
returns the polynomial whose spectral propagation reproduces the (m, part)
commutator flow, so the two propagators can be compared directly.

Integration of one trajectory is sequential; independent trajectories are
safe to run in parallel.  Trajectories are immutable once returned.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .core import (
    CMVMatrix,
    JacobiMatrix,
    SpectralMeasureCircle,
    VerblunskySet,
    build_cmv,
    build_cmv_stack,
    circle_weights,
)
from .errors import InvalidParams, NonDistinctLambda, OutOfRange, RhoTooSmall
from .opuc import (
    ANGLE_BLOCK,
    gap_rotation,
    szego_rows,
    unitary_angles,
    unitary_eigensystem,
    verblunsky_from_measure,
    verblunsky_rows,
)

RHO_FLOOR = 1e-10           # extraction divides by rho
MODULUS_CEILING = 1.0 - 1e-8  # flows stop when a coefficient gets this close to the circle
LAMBDA_GAP_TOL = 1e-8

_PARTS = ("re", "im")


def _check_part(part: str) -> str:
    p = str(part).lower()
    if p not in _PARTS:
        raise InvalidParams(f"part must be 're' or 'im', got {part!r}")
    return p


@dataclass(frozen=True, eq=False)
class FlowHamiltonian:
    """Polynomial f(z) = sum_m c_m z^m defining the Hamiltonian Im tr f(C).

    coeffs holds c_1..c_M (no constant term; constants generate no flow)
    and must contain at least one nonzero entry.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex).reshape(-1)
        if c.size == 0 or not np.any(c != 0.0):
            raise InvalidParams("need at least one nonzero polynomial coefficient")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size

    def value(self, C: CMVMatrix) -> float:
        """The Hamiltonian Im tr f(C)."""
        acc = 0.0 + 0.0j
        power = np.asarray(C.entries)
        for m in range(1, self.degree + 1):
            acc += self.coeffs[m - 1] * np.trace(power)
            if m < self.degree:
                power = power @ C.entries
        return float(acc.imag)

    def growth_rate(self, theta):
        """F(theta) = 2 Re[z f'(z)] at z = e^(i theta): the log-derivative of
        the spectral weights under exact propagation."""
        t = np.asarray(theta, dtype=float)
        m = np.arange(1, self.degree + 1)
        terms = m * self.coeffs
        val = np.exp(1j * np.multiply.outer(t, m)) @ terms
        return 2.0 * np.real(val)

    def negated(self) -> "FlowHamiltonian":
        return FlowHamiltonian(-self.coeffs)

    @classmethod
    def trace_power(cls, m: int, part: str) -> "FlowHamiltonian":
        """The polynomial with Im tr f(C) = Re K_m (part='re') or Im K_m (part='im')."""
        if m < 1:
            raise InvalidParams("need m >= 1")
        c = np.zeros(m, dtype=complex)
        c[m - 1] = (1j if _check_part(part) == "re" else 1.0) / m
        return cls(c)

    @classmethod
    def matching_lax_flow(cls, m: int, part: str) -> "FlowHamiltonian":
        """Hamiltonian whose exact spectral propagation reproduces the
        (m, part) commutator flow.

        The commutator flow of trace_power(m, part) drives the spectral
        weights with the opposite sign of its growth rate, so the matching
        polynomial is the negation.
        """
        return cls.trace_power(m, part).negated()


def trace_hamiltonian(C: CMVMatrix, m: int) -> complex:
    """K_m = tr(C^m) / m."""
    if m < 1:
        raise InvalidParams("need m >= 1")
    return complex(np.trace(np.linalg.matrix_power(np.asarray(C.entries), m)) / m)


def plus_projection(A: np.ndarray) -> np.ndarray:
    """Strict upper triangle plus half the diagonal."""
    A = np.asarray(A)
    return np.triu(A, 1) + 0.5 * np.diag(np.diag(A))


def lax_partner(C: CMVMatrix, m: int, part: str) -> np.ndarray:
    """Anti-Hermitian partner P of the (m, part) flow, dC/dt = [C, P].

    part='re': P = i (C^m)_+ + i ((C^m)_+)^*
    part='im': P =   (C^m)_+ -   ((C^m)_+)^*
    """
    if m < 1:
        raise InvalidParams("need m >= 1")
    upper = plus_projection(np.linalg.matrix_power(np.asarray(C.entries), m))
    if _check_part(part) == "re":
        return 1j * (upper + upper.conj().T)
    return upper - upper.conj().T


def _extract_alpha_dot(v: VerblunskySet, cdot: np.ndarray) -> np.ndarray:
    """Interior coefficient velocities from an entrywise matrix velocity.

    Walks the entry chain holding rho_{k-1} conj(alpha_k) (positions
    [k-1, k] for odd k, [k, k-1] for even k, and [0, 0] for k = 0),
    propagating rho_dot_k = -Re(conj(alpha_k) alpha_dot_k) / rho_k.
    """
    n = v.n
    alpha = v.alpha
    rho = v.rho
    if rho.size and rho.min() <= RHO_FLOOR:
        raise RhoTooSmall(f"min rho = {rho.min():.3e} at or below {RHO_FLOOR:g}")
    adot = np.zeros(n - 1, dtype=complex)
    if n == 1:
        return adot
    adot[0] = np.conj(cdot[0, 0])
    rdot_prev = -np.real(np.conj(alpha[0]) * adot[0]) / rho[0]
    for k in range(1, n - 1):
        entry = cdot[k - 1, k] if k % 2 == 1 else cdot[k, k - 1]
        adot[k] = np.conj((entry - rdot_prev * np.conj(alpha[k])) / rho[k - 1])
        rdot_prev = -np.real(np.conj(alpha[k]) * adot[k]) / rho[k]
    return adot


def al_vector_field(v: VerblunskySet, m: int = 1, part: str = "re") -> np.ndarray:
    """Velocities of the interior coefficients under the (m, part) flow.

    Computed as the commutator [C, P] with the Lax partner, then read off
    the matrix entries; the boundary coefficient does not move.
    """
    return _lax_field(build_cmv(v), m, part)


def _lax_field(C: CMVMatrix, m: int, part: str) -> np.ndarray:
    """al_vector_field at C.source, reusing its already built matrix."""
    P = lax_partner(C, m, part)
    cdot = C.entries @ P - P @ C.entries
    return _extract_alpha_dot(C.source, cdot)


def al_closed_form_field(v: VerblunskySet, left_boundary: complex = 1.0) -> np.ndarray:
    """Nearest-neighbor form of the first 're' flow:
    i rho_j^2 (alpha_{j-1} + alpha_{j+1}), with alpha_{-1} = left_boundary.

    The commutator field equals this expression with left_boundary = -1.
    """
    if abs(abs(complex(left_boundary)) - 1.0) > 1e-12:
        raise OutOfRange("the left boundary value must be unimodular")
    ext = np.concatenate([[complex(left_boundary)], v.alpha])
    rho2 = v.rho * v.rho
    return 1j * rho2 * (ext[:-2] + ext[2:])


def schur_vector_field(alpha, left: float = -1.0, right: float | None = None) -> np.ndarray:
    """Schur flow velocities (1 - a_k^2)(a_{k+1} - a_{k-1}) on real coefficients.

    `alpha` holds the moving coefficients; `left` and `right` are the
    frozen neighbors (right defaults to left).  On real data this is the
    flow generated by minus the first 'im' Hamiltonian.
    """
    a = np.asarray(alpha, dtype=float).reshape(-1)
    if a.size and np.abs(a).max() >= 1.0:
        raise OutOfRange("coefficients must lie in (-1, 1)")
    if right is None:
        right = left
    ext = np.concatenate([[float(left)], a, [float(right)]])
    return (1.0 - a * a) * (ext[2:] - ext[:-2])


def toda_vector_field(J: JacobiMatrix) -> np.ndarray:
    """Velocity of a Jacobi matrix under the Toda flow.

    Returns the dense symmetric tridiagonal [P, J] with P the
    skew-symmetric part built from the off-diagonals, which is the
    classical evolution
        db_k = 2 (a_k^2 - a_{k-1}^2),   da_k = a_k (b_{k+1} - b_k).
    """
    dense = J.to_dense()
    P = np.triu(dense, 1) - np.tril(dense, -1)
    return P @ dense - dense @ P


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped flow states with per-step diagnostics.

    All states share n and the frozen boundary coefficient.  eig_drift[i]
    is the largest circular distance between the sorted eigenvalue angles
    at times[i] and times[0]; unitarity[i] is the max-norm unitarity
    residual of the matrix at times[i].
    """

    times: np.ndarray
    states: tuple
    eig_drift: np.ndarray
    unitarity: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float).reshape(-1)
        if t.size != len(self.states):
            raise InvalidParams("one state per time stamp required")
        if t.size > 1 and np.any(np.diff(t) <= 0.0):
            raise InvalidParams("times must be strictly increasing")
        boundary = self.states[0].alpha[-1]
        for s in self.states:
            if s.n != self.states[0].n or abs(s.alpha[-1] - boundary) > 1e-10:
                raise InvalidParams("states must share n and the boundary coefficient")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def n(self) -> int:
        return self.states[0].n

    def alpha_matrix(self) -> np.ndarray:
        """(len(times), n) array of coefficients along the trajectory."""
        return np.array([s.alpha for s in self.states])

    @classmethod
    def from_states(cls, times, matrices: Iterable[CMVMatrix]) -> "Trajectory":
        """Trajectory of the states matrices[i].source at times[i].

        The matrices are consumed a block at a time (see from_blocks) and
        not kept; their diagnostics are read as from_blocks reads them.
        """
        return cls.from_blocks(times, _matrix_blocks(matrices))

    @classmethod
    def from_blocks(cls, times, blocks: Iterable[tuple]) -> "Trajectory":
        """Trajectory of consecutive blocks of states at times.

        Each block is (states, entries, unitarity): a run of coefficient
        sets, their checked CMV matrices as a (k, n, n) stack and the
        unitarity residuals check_cmv returned for them.  The flow is
        isospectral, so after the first state every state's angles are
        taken with the Cayley pole of unitary_angles in the largest gap of
        the first state's spectrum, with one stacked call per block.
        """
        states, drift, unit = [], [], []
        base_angles = None
        for block, entries, unitarity in blocks:
            if base_angles is None:
                base_angles = unitary_angles(entries[0])
                phi = float(gap_rotation(base_angles))
                angles = np.concatenate([base_angles[None], unitary_angles(entries[1:], phi)])
            else:
                angles = unitary_angles(entries, phi)
            states.extend(block)
            d = np.abs(angles - base_angles)
            drift.append(np.minimum(d, 2.0 * math.pi - d).max(axis=1))
            unit.append(unitarity)
        return cls(times, tuple(states), np.concatenate(drift), np.concatenate(unit))


def _block_size(n: int) -> int:
    """States per trajectory block: at most ANGLE_BLOCK matrix entries."""
    return max(ANGLE_BLOCK // (n * n), 1)


def _matrix_blocks(matrices: Iterable[CMVMatrix]):
    """Trajectory.from_blocks blocks of already built and checked matrices."""
    block = []
    for C in matrices:
        block.append(C)
        if len(block) == _block_size(C.n):
            yield _stacked(block)
            block = []
    if block:
        yield _stacked(block)


def _stacked(block: list[CMVMatrix]) -> tuple:
    return [C.source for C in block], np.stack([C.entries for C in block]), np.array([C.unitarity for C in block])


def _state_blocks(states: list[VerblunskySet], n: int):
    """Trajectory.from_blocks blocks of states whose matrices are built here."""
    per = _block_size(n)
    for s in range(0, len(states), per):
        block = states[s : s + per]
        yield (block, *build_cmv_stack(block))


def _flow_state(interior: np.ndarray, boundary: complex) -> VerblunskySet:
    mods = np.abs(interior)
    if mods.size and mods.max() > MODULUS_CEILING:
        raise RhoTooSmall(f"coefficient modulus {mods.max():.12g} reached the circle")
    return VerblunskySet(np.concatenate([interior, [boundary]]))


def _flow_grid(t_final: float, dt: float) -> tuple[np.ndarray, float]:
    """Times of both trajectory functions, and their step.

    ceil(t_final/dt) equal steps from 0 to t_final, with a 1e-12
    allowance for t_final/dt landing just above an integer.  Raises
    InvalidParams unless dt > 0 and t_final >= 0 are finite.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParams(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise InvalidParams(f"t_final must be nonnegative and finite, got {t_final!r}")
    steps = max(int(math.ceil(t_final / dt - 1e-12)), 0)
    h = t_final / steps if steps else 0.0
    return np.linspace(0.0, t_final, steps + 1), h


def integrate_flow(v0: VerblunskySet, m: int, part: str, t_final: float, dt: float) -> Trajectory:
    """Fixed-step RK4 integration of the (m, part) commutator flow.

    The step is dt shortened to divide t_final exactly; the boundary
    coefficient is held fixed.  Raises RhoTooSmall if any intermediate
    coefficient modulus exceeds 1 - 1e-8.
    """
    times, h = _flow_grid(t_final, dt)
    return Trajectory.from_states(times, _rk4_matrices(v0, m, _check_part(part), h, times.size - 1))


def _rk4_matrices(v0: VerblunskySet, m: int, part: str, h: float, steps: int):
    """CMV matrices of the RK4 states; each one also serves the next step's k1."""
    boundary = v0.alpha[-1]

    def field(interior: np.ndarray) -> np.ndarray:
        return al_vector_field(_flow_state(interior, boundary), m, part)

    C = build_cmv(v0)
    yield C
    if not steps:
        return
    y = v0.interior.astype(complex)
    start = _flow_state(y, boundary)
    # Flow states pass v0's boundary through VerblunskySet's renormalization
    # once more, which can move its last bit; k1 must see the flow state.
    if not np.array_equal(start.alpha, v0.alpha):
        C = build_cmv(start)
    for _ in range(steps):
        k1 = _lax_field(C, m, part)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        C = build_cmv(_flow_state(y, boundary))
        yield C


def exact_propagate(mu0: SpectralMeasureCircle, ham: FlowHamiltonian, t: float) -> SpectralMeasureCircle:
    """Exact weight evolution: points fixed, weights scaled by exp(F t);
    the one-time view of propagated_weights."""
    return SpectralMeasureCircle(mu0.theta.copy(), propagated_weights(mu0, ham, [float(t)])[0])


def propagated_weights(mu0: SpectralMeasureCircle, ham: FlowHamiltonian, times) -> np.ndarray:
    """(T, n) weights of mu0 evolved exactly to each of the times.

    Evaluated in log space and renormalized for stability, so arbitrarily
    long times never overflow.  Rows are in the order of mu0.weights and
    sum to 1; SpectralMeasureCircle (or circle_weights for all rows at
    once) renormalizes them once more.
    """
    rates = ham.growth_rate(mu0.theta)
    logw = np.log(mu0.weights) + np.multiply.outer(np.asarray(times, dtype=float), rates)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    return w / w.sum(axis=1, keepdims=True)


def flow_via_spectral(v0: VerblunskySet, ham: FlowHamiltonian, t: float) -> VerblunskySet:
    """Propagate coefficients by diagonalizing, evolving weights, inverting."""
    mu = exact_propagate(unitary_eigensystem(build_cmv(v0)), ham, t)
    return verblunsky_from_measure(mu)


def spectral_trajectory(v0: VerblunskySet, ham: FlowHamiltonian, t_final: float, dt: float) -> Trajectory:
    """flow_via_spectral at the times integrate_flow(v0, ..., t_final, dt) uses.

    v0 is diagonalized once for the whole trajectory, and the weights of
    every later time go through one stacked Szego pass; the state at time
    0 is v0 itself.
    """
    times, _ = _flow_grid(t_final, dt)
    mu0 = unitary_eigensystem(build_cmv(v0))
    theta, weights = circle_weights(mu0.theta, propagated_weights(mu0, ham, times[1:]))
    states = [v0, *verblunsky_rows(theta, weights)]
    return Trajectory.from_blocks(times, _state_blocks(states, v0.n))


def gauge_transform(traj: Trajectory) -> np.ndarray:
    """Remove the uniform phase rotation from a first-flow trajectory.

    Returns the (len(times), n) array beta_k(t) = exp(-2 i t) alpha_k(t);
    rows align with traj.times.  Along an (m=1, 're') trajectory the rows
    satisfy the stationary-frame lattice equation
        -i d(beta_k)/dt = rho_k^2 (beta_{k+1} + beta_{k-1}) - 2 beta_k
    with the gauge-rotated frozen boundaries.
    """
    return traj.alpha_matrix() * np.exp(-2j * traj.times)[:, None]


@dataclass(frozen=True, eq=False)
class AsymptoticReport:
    """Predicted vs fitted long-time behavior of one coefficient.

    With eigenvalues relabeled so the growth rates lambda_j = F(theta_j)
    decrease strictly, coefficient k-1 approaches
    (-1)^(k-1) conj(z_1 ... z_k) at rate lambda_k - lambda_{k+1}, with
    complex correction coefficient xi proportional to
    (z_k conj(z_{k+1}) - 1).
    """

    k: int
    predicted_limit: complex
    predicted_rate: float
    xi: complex
    fitted_limit: complex
    fitted_rate: float
    fitted_xi: complex


def _ordered_spectrum(mu: SpectralMeasureCircle, ham: FlowHamiltonian):
    lam = ham.growth_rate(mu.theta)
    order = np.argsort(-lam)
    lam = lam[order]
    gaps = -np.diff(lam)
    if gaps.size and gaps.min() < LAMBDA_GAP_TOL:
        raise NonDistinctLambda(f"smallest growth-rate gap {gaps.min():.3e} below {LAMBDA_GAP_TOL:g}")
    return mu.points[order], mu.weights[order], lam


def predicted_asymptotics(v0: VerblunskySet, ham: FlowHamiltonian, k: int):
    """(limit, rate, xi) for coefficient k-1 under the flow of ham, k in 1..n-1."""
    return _predicted_asymptotics(unitary_eigensystem(build_cmv(v0)), ham, k)


def _predicted_asymptotics(mu: SpectralMeasureCircle, ham: FlowHamiltonian, k: int):
    """predicted_asymptotics from the spectral measure of v0."""
    if not 1 <= k <= mu.n - 1:
        raise InvalidParams(f"k must lie in 1..{mu.n - 1}")
    z, w, lam = _ordered_spectrum(mu, ham)
    limit = (-1.0) ** (k - 1) * np.conj(np.prod(z[:k]))
    rate = lam[k - 1] - lam[k]
    ratios = np.abs((z[k] - z[: k - 1]) / (z[k - 1] - z[: k - 1])) ** 2
    xi = (z[k - 1] * np.conj(z[k]) - 1.0) * (w[k] / w[k - 1]) * np.prod(ratios)
    return complex(limit), float(rate), complex(xi)


def asymptotic_report(
    v0: VerblunskySet,
    ham: FlowHamiltonian,
    k: int,
    t_grid,
    fit_window: tuple[float, float] = (0.3, 0.85),
) -> AsymptoticReport:
    """Fit the long-time limit, rate, and correction of coefficient k-1.

    The coefficient is evaluated along the exact spectral flow on t_grid.
    The limit is first taken from the final point, then refined by
    subtracting the fitted exponential correction and renormalizing to the
    circle; the rate and complex correction come from a log-linear fit of
    the residual over the interior fit window (fractions of the grid span).
    """
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    if t.size < 4:
        raise InvalidParams("need at least four grid times")
    if np.any(np.diff(t) <= 0.0):
        raise InvalidParams("t_grid must be strictly increasing")
    mu0 = unitary_eigensystem(build_cmv(v0))
    limit, rate, xi = _predicted_asymptotics(mu0, ham, k)
    alpha_t = szego_rows(*circle_weights(mu0.theta, propagated_weights(mu0, ham, t)), k)[:, k - 1]

    lo = t[0] + fit_window[0] * (t[-1] - t[0])
    hi = t[0] + fit_window[1] * (t[-1] - t[0])
    win = (t >= lo) & (t <= hi)
    if np.count_nonzero(win) < 2:
        raise InvalidParams("fit window contains fewer than two grid times")

    fitted_limit = alpha_t[-1]
    fitted_rate = rate
    amp_end = 0.0 + 0.0j
    t_win = t[win]
    late = t_win >= t_win[0] + 0.6 * (t_win[-1] - t_win[0])
    for _ in range(3):
        resid = alpha_t - fitted_limit
        mags = np.abs(resid[win])
        if mags.min() <= 0.0:
            break
        slope, _ = np.polyfit(t_win, np.log(mags), 1)
        fitted_rate = -slope
        # amplitude at the final time, estimated where subleading terms
        # have decayed the furthest
        amp_end = np.mean((resid[win] * np.exp(fitted_rate * (t_win - t[-1])))[late])
        refined = alpha_t[-1] - amp_end
        fitted_limit = refined / abs(refined)
    fitted_xi = amp_end * np.exp(fitted_rate * t[-1]) / fitted_limit
    return AsymptoticReport(
        k=k,
        predicted_limit=limit,
        predicted_rate=rate,
        xi=xi,
        fitted_limit=complex(fitted_limit),
        fitted_rate=float(fitted_rate),
        fitted_xi=complex(fitted_xi),
    )
