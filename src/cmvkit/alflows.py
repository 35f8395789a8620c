"""The finite defocusing Ablowitz-Ladik hierarchy on Verblunsky coefficients.

The Hamiltonians are the real and imaginary parts of the trace powers
K_m = tr(C^m)/m of the CMV matrix.  Their flows keep the spectrum fixed.
In Lax form the m-th flow is dC/dt = [C, P] with an anti-Hermitian
partner P built from the upper part of C^m (lax_partner); in bracket
form it is d(alpha_k)/dt = {alpha_k, H}, H = Re K_m or Im K_m, which the
package computes from its one derivative of K_m (_trace_gradient_blocks,
also read by brackets.hamiltonian_gradients).  For (m=1, re) both give
    d(alpha_j)/dt = i rho_j^2 (alpha_{j-1} + alpha_{j+1})
with alpha_{-1} = -1 (the boundary the finite matrix realizes) and
alpha_{n-1} frozen.  Every flow order m lies in 1..MAX_ORDER.

Two propagators cross-validate each other.  integrate_flow is fixed-step
RK4 whose stages run the banded, division-free bracket field on plain
arrays.  flow_via_spectral reads the spectral measure once with
opuc.christoffel_measure, whose weights keep a small relative error
(that is what exact propagation carries), evolves the weights exactly as
mu_j(t) ~ exp(F(theta_j) t) mu_j(0) with F(theta) = 2 Re[z f'(z)]
(exact_propagate), and inverts the spectral map; spectral_trajectory
does so at every grid time with one such read and one szego_rows pass
over the (T, n) propagated weights, canonical on the measure's angles as
they are.  No flow calls np.linalg.eig.

Both trajectories share one time grid of at most MAX_STEPS steps and
hold their states as one (T, n) coefficient array.  check_cmv_band tests
the CMV invariants of every state in O(n) from the band of C = L M; its
residuals are the unitarity diagnostic.  It and the bracket field gather
L and M by core's one layout, core.lm_band_indices.  The first state's
matrix is the only dense one: its angles are read once (for the
spectral method, the forward map's Newton-refined angles), and every
state's drift is one Newton step on its paraorthogonal polynomial Phi_n
from them, O(n^2) per state (eigenvalue_drift), with a dense read only
for a state whose step the trust rule rejects.

Direction convention: the commutator flow of the Hamiltonian Im tr f(C)
transports spectral weights like exp(-F t), like the exact propagator of
the negated Hamiltonian; FlowHamiltonian.matching_lax_flow returns the
polynomial whose spectral propagation reproduces the (m, part) flow.

Integration of one trajectory is sequential; independent trajectories are
safe to run in parallel.  Trajectories are immutable once returned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CMVMatrix,
    JacobiMatrix,
    SpectralMeasureCircle,
    VerblunskySet,
    build_cmv,
    check_coefficient_rows,
    check_weight_rows,
    coefficient_rho,
    factor_entries,
    lm_band_indices,
)
from .errors import InvalidParams, NonDistinctLambda, OutOfRange, RhoTooSmall
from .opuc import (
    christoffel_measure,
    gap_rotation,
    newton_angle_steps,
    newton_trusted,
    szego_rows,
    unitary_angles,
    verblunsky_from_measure,
    verblunsky_rows,
)

MODULUS_CEILING = 1.0 - 1e-8  # flows stop when a coefficient gets this close to the circle
RHO_FLOOR = float(coefficient_rho(np.float64(MODULUS_CEILING)))  # the rho of a coefficient at the ceiling
MAX_STEPS = 10**7             # the largest time grid a trajectory may ask for
MAX_ORDER = 64                # the largest flow order m; the band tables grow as n m min(m, n)
LAMBDA_GAP_TOL = 1e-8
NEWTON_BLOCK = 8192           # coefficients per chunk of states in one diagnostics call

_PARTS = ("re", "im")


def _check_order(m: int) -> int:
    if m < 1:
        raise InvalidParams(f"need m >= 1, got m = {m}")
    if m > MAX_ORDER:
        raise InvalidParams(f"m = {m} is above the largest flow order, {MAX_ORDER}")
    return m


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
        """The Hamiltonian Im tr f(C) = Im sum_m c_m m K_m."""
        return float(sum(c * m * trace_hamiltonian(C, m) for m, c in enumerate(self.coeffs, 1)).imag)

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
        c = np.zeros(_check_order(m), dtype=complex)
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
    """K_m = tr(C^m) / m, the real and imaginary parts each divided by m."""
    trace = np.trace(np.linalg.matrix_power(np.asarray(C.entries), _check_order(m)))
    return complex(trace.real / m, trace.imag / m)


def plus_projection(A: np.ndarray) -> np.ndarray:
    """Strict upper triangle plus half the diagonal."""
    A = np.asarray(A)
    return np.triu(A, 1) + 0.5 * np.diag(np.diag(A))


def lax_partner(C: CMVMatrix, m: int, part: str) -> np.ndarray:
    """Anti-Hermitian partner P of the (m, part) flow, dC/dt = [C, P].

    part='re': P = i (C^m)_+ + i ((C^m)_+)^*
    part='im': P =   (C^m)_+ -   ((C^m)_+)^*
    """
    upper = plus_projection(np.linalg.matrix_power(np.asarray(C.entries), _check_order(m)))
    if _check_part(part) == "re":
        return 1j * (upper + upper.conj().T)
    return upper - upper.conj().T


def al_vector_field(v: VerblunskySet, m: int = 1, part: str = "re") -> np.ndarray:
    """Interior velocities of the (m, part) flow of one coefficient set;
    the boundary does not move."""
    if v.alpha.ndim != 1:
        raise InvalidParams(f"al_vector_field takes one coefficient set, got a stack of shape {v.alpha.shape}")
    return _bracket_velocity(v.alpha, _check_order(m), _check_part(part))


def _bracket_velocity(alpha: np.ndarray, m: int, part: str, entries=None, tables=None) -> np.ndarray:
    """{alpha_k, H} for H = Re K_m (part='re') or Im K_m (part='im') at the
    raw coefficients alpha (n,), entries and tables as in
    _trace_gradient_blocks:
    rho^2 (g_v - i g_u) for the gradient rows g of hamiltonian_gradients,
    with rho^2 multiplied through so that nothing is divided,
        re: -i rho^2 (x00 - conj x11) + i rho Re(o) alpha,
        im:   -rho^2 (x00 + conj x11) + i rho Im(o) alpha."""
    rho, ((x00, x11, o),) = _trace_gradient_blocks(alpha, (m,), entries, tables)
    if part == "re":
        return rho * rho * (-1j * (x00 - x11.conj())) + 1j * (rho * o.real) * alpha[:-1]
    return rho * rho * ((x00 + x11.conj()) * -1) + 1j * (rho * o.imag) * alpha[:-1]


# A banded n x n matrix of half-width w is held as an array of shape
# (n + 2, 2w + 1): row 1 + i, column w + d holds entry [i, i + d], and
# every other entry (padding rows, past the edge) is 0, as is flat index 0.


@functools.lru_cache(maxsize=None)
def _band_indices(n: int, m: int) -> tuple:
    """Flat gather indices of _trace_gradient_blocks up to order m into the
    bands of L and M (core.lm_band_indices) and of the powers of C; one
    that leaves a band reads flat index 0.

    products: B in (AB)[i, i + r] = sum_p A[i, i + p] B[i + p, i + r], for
    L M and C C^j, 0 < j < m - 1; blocks: the three factor_entries and
    C^(m-1) entries summed into each of X[k, k], X[k + 1, k + 1],
    X[k, k + 1] and X[k + 1, k], or for m = 1, where X is a factor, the one
    factor entry and None."""
    size, lm = n + 2, lm_band_indices(n).ravel()

    def flat(rows, cols, width):
        ok = (rows >= 0) & (rows < size) & (cols >= 0) & (cols < width)
        return np.where(ok, rows * width + cols, 0)

    k = np.arange(n - 1)
    # widths[j] is the half-width of C^j's band.  C^(j+1) = A B, with A, B
    # = L, M for j = 0 and C, C^j after, reads B only inside the matrix
    # (offsets up to n - 1), so no band grows past n + 1 however large m
    products, widths = [], [0]
    for j in range(m - 1):
        wa, wb = (1, 1) if j == 0 else (widths[1], widths[j])
        widths.append(wa + min(wb, n - 1))
        i, p, r = np.ogrid[:size, -wa : wa + 1, -widths[-1] : widths[-1] + 1]
        products.append(flat(i + p, wb + r - p, 2 * wb + 1))
    w, p, even = widths[m - 1], np.arange(-1, 2), k[:, None] % 2 == 0
    i = k[:, None] + np.array([[[0]], [[1]], [[0]], [[1]]])
    j = k[:, None] + np.array([[[0]], [[1]], [[1]], [[0]]])
    if m == 1:  # M[i, j] for even k, L[i, j] for odd k
        return products, (lm[np.where(even, size + 1 + i, 1 + i)[..., 0] * 3 + 1 + (j - i)[..., 0]], None)
    # M[i, i + p] C^(m-1)[i + p, j] for even k, C^(m-1)[i, j + p] L[j + p, j] for odd k
    f_blocks = lm[np.where(even, (size + 1 + i) * 3 + 1 + p, (1 + j + p) * 3 + 1 - p)]
    d_blocks = np.where(even, flat(1 + i + p, w + j - i - p, 2 * w + 1), flat(1 + i, w + j + p - i, 2 * w + 1))
    return products, (f_blocks, d_blocks)


def _gradient_tables(n: int, degrees) -> tuple:
    """The gather tables of _trace_gradient_blocks at n for degrees: the
    layout of L and M, the power chain up to the largest degree and each
    degree's blocks (_band_indices)."""
    return lm_band_indices(n), _band_indices(n, max(degrees))[0], [_band_indices(n, m)[1] for m in degrees]


def _trace_gradient_blocks(alpha: np.ndarray, degrees, entries=None, tables=None) -> tuple:
    """The package's one derivative of the trace Hamiltonians K_m: rho_k,
    and for each m in degrees the arrays x00 = X[k, k], x11 = X[k+1, k+1]
    and o = X[k, k+1] + X[k+1, k] over the interior k, from the raw
    coefficients alpha (n,), L and M gathered by core.lm_band_indices.
    entries, the factor_entries table of alpha, and tables,
    _gradient_tables(n, degrees), are read as given, so that a caller
    evaluating many rows of one size fills one table and looks the tables
    up once; either is built when not given.

    dK_m = tr(C^(m-1) dC), and alpha_k moves only its block of L (k even)
    or M (k odd): tr(C^(m-1) dL M) = tr(X dL) with X = M C^(m-1), and
    tr(C^(m-1) L dM) = tr(X dM) with X = C^(m-1) L.  One power chain
    builds C^(m-1) on its band of half-width 2(m - 1), at most n + 1, for
    all the degrees.
    """
    n = alpha.size
    lm, products, degree_blocks = _gradient_tables(n, degrees) if tables is None else tables
    entries = factor_entries(alpha) if entries is None else entries
    powers = []  # C^j at powers[j - 1]
    for index in products:
        A, B = (powers[0], powers[-1]) if powers else entries[lm]  # L M, then C C^j
        powers.append((A[:, None, :] @ B.ravel()[index])[:, 0])
    blocks = []
    for m, (f_blocks, d_blocks) in zip(degrees, degree_blocks):
        x = entries[f_blocks]
        if d_blocks is not None:
            x = np.add.reduce(x * powers[m - 2].ravel()[d_blocks], axis=-1)
        blocks.append((x[0], x[1], x[2] + x[3]))
    return entries[2 * n - 1 : 3 * n - 2].real, blocks


# the invariants check_cmv_band holds every row to
UNITARITY_TOL = 1e-12
TRACE_TOL = 1e-12
DET_TOL = 1e-10


def check_cmv_band(alpha: np.ndarray) -> np.ndarray:
    """The CMV invariants of the matrices C = L M of a (k, n) stack of
    valid coefficient rows, each read from the band of C in O(n):
    unitarity, max|C*C - I| on the upper band of half-width 4 that holds
    every nonzero entry of the Hermitian C*C - I; the trace identity, from
    the main diagonal; the determinant identity, det C being the product of
    the 2x2 block determinants -(|alpha_k|^2 + rho_k^2) times
    conj(alpha_{n-1}).  The band holds by the storage.  Raises OutOfRange
    at the first invariant some row violates, in that order; returns the
    unitarity residuals.  Temporaries take about 250 bytes per coefficient.
    """
    k, n = alpha.shape
    a = alpha.T  # rows along the last axis: every operation is a long contiguous loop
    entries = factor_entries(alpha).T
    # [0, 1 + p, 1 + i] = L[i, i + p] and [1, 1 + p, 1 + i] = M[i, i + p]
    L, M = entries[np.moveaxis(lm_band_indices(n), 2, 1)]
    C = np.zeros((5, n + 4, k), dtype=complex)  # [2 + d, 2 + i] = C[i, i + d] = sum_p L[i, i + p] M[i + p, i + d]
    for p in (-1, 0, 1):
        C[p + 1 : p + 4, 2 : n + 2] += L[1 + p, 1 : n + 1] * M[:, 1 + p : n + 1 + p]
    del L, M
    resid = np.zeros(k)
    for e in range(5):  # (C*C)[i, i + e] = sum_q conj(C[i + q, i]) C[i + q, i + e], one diagonal at a time
        cc = sum(C[2 - q, 2 + q : n + 2 + q].conj() * C[2 + e - q, 2 + q : n + 2 + q] for q in range(e - 2, 3))
        if e == 0:
            cc -= 1.0
        resid = np.maximum(resid, np.abs(cc).max(axis=0))
    if resid.max() > UNITARITY_TOL:
        raise OutOfRange(f"unitarity residual {resid.max():.3e} exceeds {UNITARITY_TOL:g}")
    if (np.abs(C[2, 2 : n + 2].sum(axis=0) - a[0].conj() + (a[:-1] * a[1:].conj()).sum(axis=0)) > TRACE_TOL).any():
        raise OutOfRange("trace identity violated")
    # |alpha_k|^2 from the coefficients: 1 - rho^2 would make the check a tautology
    inner, rho = a[:-1], entries[2 * n - 1 : 3 * n - 2].real
    mod2 = inner.real * inner.real + inner.imag * inner.imag
    last = a[-1].conj()
    if (np.abs((-(mod2 + rho * rho)).prod(axis=0) * last - (-1.0) ** (n - 1) * last) > DET_TOL).any():
        raise OutOfRange("determinant identity violated")
    return resid


def al_closed_form_field(v: VerblunskySet, left_boundary: complex = 1.0) -> np.ndarray:
    """Nearest-neighbor form of the first 're' flow:
    i rho_j^2 (alpha_{j-1} + alpha_{j+1}), with alpha_{-1} = left_boundary.

    al_vector_field(v, 1, 're') equals this expression with left_boundary = -1.
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

    Row i of the read-only (len(times), n) array alpha is the state at
    times[i], the times finite and strictly increasing; every row is
    validated as VerblunskySet validates one, and all share the boundary
    coefficient within 1e-10.  eig_drift[i] is the
    largest distance that an eigenvalue of the matrix at times[0] has
    moved by times[i], each eigenvalue tracked from its own angle, so
    that an angle crossing the branch cut at pi moves by nothing
    (eigenvalue_drift); eig_drift[0] is 0.  unitarity[i] is the max-norm
    unitarity residual of the matrix at times[i].
    """

    times: np.ndarray
    alpha: np.ndarray
    eig_drift: np.ndarray
    unitarity: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float).reshape(-1)
        a = np.array(self.alpha, dtype=complex)
        drift, unit = (np.array(d, dtype=float).reshape(-1) for d in (self.eig_drift, self.unitarity))
        if a.ndim != 2 or not 0 < t.size == a.shape[0] == drift.size == unit.size:
            raise InvalidParams("one state, one eig_drift and one unitarity per time stamp required")
        if not np.isfinite(t).all():
            raise InvalidParams("times must be finite")
        if not (np.diff(t) > 0.0).all():
            raise InvalidParams("times must be strictly increasing")
        check_coefficient_rows(a)
        if np.abs(a[:, -1] - a[0, -1]).max() > 1e-10:
            raise InvalidParams("states must share the boundary coefficient")
        for name, value in (("times", t), ("alpha", a), ("eig_drift", drift), ("unitarity", unit)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.alpha.shape[1]


def _trajectory(times: np.ndarray, alpha: np.ndarray, theta: np.ndarray) -> Trajectory:
    """The Trajectory of coefficient rows alpha (T, n) at times and its
    diagnostics, checked a chunk of NEWTON_BLOCK coefficients at a time;
    theta, the sorted eigenvalue angles of alpha[0], is the drift's
    reference (eigenvalue_drift)."""
    check_coefficient_rows(alpha)  # before the diagnostics divide by rho
    per = max(NEWTON_BLOCK // alpha.shape[1], 1)
    unit = np.concatenate([check_cmv_band(alpha[s : s + per]) for s in range(0, len(alpha), per)])
    return Trajectory(times, alpha, eigenvalue_drift(alpha, theta), unit)


def eigenvalue_drift(alpha: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """How far the eigenvalues of the CMV matrix of each coefficient row of
    alpha (T, n) lie from those of the first row, whose sorted angles are
    theta (n,).

    Entry i is max_j |delta_j(i) - delta_j(0)|, with delta_j(i) the
    newton_angle_steps step of row i from theta_j: the eigenvalue that
    starts at theta_j is tracked, whichever branch its angle lies on.  The
    rows go through the kernel in chunks of at most NEWTON_BLOCK
    coefficients.  A row whose steps opuc.newton_trusted trusts has them
    as the offsets of its eigenvalues from theta within a relative error
    of 0.23.  Any other row, and all of them if the first row is not
    trusted, falls back to a dense read: unitary_angles with the pole in
    the largest gap of theta, matched to theta in circular order
    (_cyclic_drift).  Entry 0 is 0.
    """
    per = max(NEWTON_BLOCK // theta.size, 1)
    drift = np.empty(len(alpha))
    for s in range(0, len(alpha), per):
        block = alpha[s : s + per]
        steps, reach, _ = newton_angle_steps(block, theta)
        ok = newton_trusted(reach, theta)
        if s == 0:
            first, trusted = steps[0], bool(ok[0])
        drift[s : s + per] = np.abs(steps - first).max(axis=1)
        dense = np.flatnonzero(~(ok & trusted))
        if dense.size:
            C = build_cmv(VerblunskySet(block[dense]))
            drift[s + dense] = _cyclic_drift(theta, unitary_angles(C, float(gap_rotation(theta))))
    drift[:1] = 0.0
    return drift


def _cyclic_drift(theta: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Largest circular distance between sorted angles theta (n,) and each
    row of sorted angles (k, n), matched in circular order at the best of
    the n rotations of the order, so that no angle pays for crossing the
    branch cut of (-pi, pi]."""
    n = theta.size
    turns = (np.arange(n)[:, None] + np.arange(n)) % n
    d = np.abs(angles[:, turns] - theta)
    return np.minimum(d, 2.0 * math.pi - d).max(axis=2).min(axis=1)


def _flow_grid(t_final: float, dt: float) -> tuple[np.ndarray, float]:
    """Times of both trajectory functions, and their step.

    ceil(t_final/dt) equal steps from 0 to t_final, with a 1e-12
    allowance for t_final/dt landing just above an integer.  Raises
    InvalidParams unless dt > 0 and t_final >= 0 are finite and the grid
    has at most MAX_STEPS steps.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidParams(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise InvalidParams(f"t_final must be nonnegative and finite, got {t_final!r}")
    if not t_final / dt - 1e-12 <= MAX_STEPS:
        raise InvalidParams(f"t/dt asks for {t_final / dt:.4g} steps, more than the {MAX_STEPS} allowed")
    steps = max(int(math.ceil(t_final / dt - 1e-12)), 0)
    h = t_final / steps if steps else 0.0
    return np.linspace(0.0, t_final, steps + 1), h


def integrate_flow(v0: VerblunskySet, m: int, part: str, t_final: float, dt: float) -> Trajectory:
    """Fixed-step RK4 integration of the (m, part) flow in its bracket form.

    The step is dt shortened to divide t_final exactly; the boundary
    coefficient is held fixed.  Each state is written into its row of the
    trajectory's array.  The buffers of the stages are allocated once per
    trajectory: every stage input is written into the interior of one
    coefficient row, its factor table refills only the entries that move
    (conj(alpha), -alpha and rho of the interior, rho as coefficient_rho
    sums it, re^2 + im^2, bit for bit), and the gather tables are looked
    up once (_gradient_tables).  Raises RhoTooSmall if a state or stage
    has a coefficient modulus above 1 - 1e-8: rho below RHO_FLOOR, or nan.
    """
    m, part = _check_order(m), _check_part(part)
    times, h = _flow_grid(t_final, dt)
    n, half, sixth = v0.n, 0.5 * h, h / 6.0
    row, tables = v0.alpha.copy(), _gradient_tables(n, (m,))
    stage, table = row[:-1], factor_entries(row)
    conj, neg, rho = table[: n - 1], table[n : 2 * n - 1], table[2 * n - 1 : 3 * n - 2].real
    parts = stage.view(float)
    squares = np.empty_like(parts)
    re2, im2 = squares[::2], squares[1::2]  # re^2 and im^2 of the stage's alpha_k
    step = np.empty(n - 1, dtype=complex)

    def refill() -> None:
        np.conjugate(stage, out=conj)
        np.negative(stage, out=neg)
        np.square(parts, out=squares)
        np.add(re2, im2, out=rho)
        np.subtract(1.0, rho, out=rho)
        np.sqrt(rho, out=rho)
        if not np.minimum.reduce(rho, initial=1.0) >= RHO_FLOOR:
            raise RhoTooSmall(f"coefficient modulus {np.abs(stage).max():.12g} reached the circle")

    def field() -> np.ndarray:
        refill()
        return _bracket_velocity(row, m, part, table, tables)

    alpha = np.tile(v0.alpha, (times.size, 1))
    with np.errstate(invalid="ignore"):  # a stage past the circle has rho nan
        for i in range(1, times.size):
            y = alpha[i - 1, :-1]
            stage[...] = y
            k1 = field()
            np.add(y, np.multiply(half, k1, out=step), out=stage)
            k2 = field()
            np.add(y, np.multiply(half, k2, out=step), out=stage)
            k3 = field()
            np.add(y, np.multiply(h, k3, out=step), out=stage)
            k4 = field()
            np.add(y, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=alpha[i, :-1])
        if times.size > 1:  # the last state, as every earlier one was the input of a first stage
            stage[...] = alpha[-1, :-1]
            refill()
    return _trajectory(times, alpha, unitary_angles(build_cmv(v0)))


def exact_propagate(mu0: SpectralMeasureCircle, ham: FlowHamiltonian, t: float) -> SpectralMeasureCircle:
    """Exact weight evolution: points fixed, weights scaled by exp(F t);
    the one-time view of propagated_weights."""
    return SpectralMeasureCircle(mu0.theta, propagated_weights(mu0, ham, [float(t)])[0])


def propagated_weights(mu0: SpectralMeasureCircle, ham: FlowHamiltonian, times) -> np.ndarray:
    """(T, n) weights of mu0 evolved exactly to each of the times.

    Evaluated in log space and normalized once to sum 1, so arbitrarily
    long times never overflow.  Rows are in the order of mu0.weights, so
    with mu0.theta each row is a canonical measure as it is; every row is
    checked as SpectralMeasureCircle checks its weights, so a weight that
    underflows to 0 raises OutOfRange.
    """
    rates = ham.growth_rate(mu0.theta)
    logw = np.log(mu0.weights) + np.multiply.outer(np.asarray(times, dtype=float), rates)
    logw -= logw.max(axis=1, keepdims=True)
    w = np.exp(logw)
    w /= w.sum(axis=1, keepdims=True)
    check_weight_rows(w)
    return w


def flow_via_spectral(v0: VerblunskySet, ham: FlowHamiltonian, t: float) -> VerblunskySet:
    """Propagate coefficients by the forward map christoffel_measure,
    exact weight evolution and the inverse map."""
    mu = exact_propagate(christoffel_measure(build_cmv(v0)), ham, t)
    return verblunsky_from_measure(mu)


def spectral_trajectory(v0: VerblunskySet, ham: FlowHamiltonian, t_final: float, dt: float) -> Trajectory:
    """flow_via_spectral at the times integrate_flow(v0, ..., t_final, dt) uses.

    v0's measure comes from one christoffel_measure call for the whole
    trajectory, whose refined angles are also the drift's reference, and
    the weights of every later time go through one stacked Szego pass
    (verblunsky_rows); the state at time 0 is v0's coefficients.
    """
    times, _ = _flow_grid(t_final, dt)
    mu0 = christoffel_measure(build_cmv(v0))
    weights = propagated_weights(mu0, ham, times[1:])
    return _trajectory(times, np.concatenate([v0.alpha[None], verblunsky_rows(mu0.theta, weights)]), mu0.theta)


def gauge_transform(traj: Trajectory) -> np.ndarray:
    """Remove the uniform phase rotation from a first-flow trajectory.

    Returns the (len(times), n) array beta_k(t) = exp(-2 i t) alpha_k(t);
    rows align with traj.times.  Along an (m=1, 're') trajectory the rows
    satisfy the stationary-frame lattice equation
        -i d(beta_k)/dt = rho_k^2 (beta_{k+1} + beta_{k-1}) - 2 beta_k
    with the gauge-rotated frozen boundaries.
    """
    return traj.alpha * np.exp(-2j * traj.times)[:, None]


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
    return _predicted_asymptotics(christoffel_measure(build_cmv(v0)), ham, k)


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
    mu0 = christoffel_measure(build_cmv(v0))
    limit, rate, xi = _predicted_asymptotics(mu0, ham, k)
    alpha_t = szego_rows(mu0.theta, propagated_weights(mu0, ham, t), k)[:, k - 1]

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
