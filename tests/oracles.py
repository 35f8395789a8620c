"""Independent oracles used by the tests.

Everything here is computed from first principles (entrywise matrix
patterns, 2x2 Verblunsky blocks, Gram-Schmidt orthogonal polynomials,
quadrature of densities, closed-form integrals) so that the package code
under test never checks itself against itself.  The exceptions are
plain loop versions of package code that was vectorized or made to
reuse intermediate results (lm_factors_loop, rk4_trajectory,
geronimus_loop, ensemble_samples_loop, szego_loop,
spectral_trajectory_loop, trajectory_to_obj_loop, and the file writers
and reader write_samples_csv_loop, write_histogram_csv_loop,
read_samples_csv_loop and dump_json_loop); tests require the
package to match them bit for bit (byte for byte, for the files), except for the eigenvalue angles,
which rk4_trajectory takes from the general eigensolver (eigvals_angles)
and the package from its Cayley-transform kernel.  ensemble_samples_loop
and spectral_trajectory_loop take angles from that kernel too, one
matrix at a time; spectral_trajectory_loop takes its initial measure
from the flows' forward map (christoffel_measure) and runs its own
per-time Szego loop from there.  paraorthogonal_zeros_mp,
christoffel_measure_mp and christoffel_kernel_mp work in mpmath: the
zeros of Phi_n by Newton's method on the monic recursion, their
Christoffel weights at full precision, and sum_{k<n} |phi_k|^2 summed
term by term.  dense_lax_field is the Lax form of the flow field
(the full lax_partner and commutator, read by the rho_dot recurrence),
independent of the package's bracket form; dense_hamiltonian_gradients
is the package's former dense trace formula for dK_m.  Tests hold the
package's one banded derivative of K_m to both within a relative
tolerance.  separated_verblunsky and separated_measure are probe draws,
not oracles: the rejection loops the package dropped, kept so the tests
that draw through them see the same coefficient sets and measures;
ceiling_draws puts one coefficient at the flows' modulus ceiling.

schur_eigensystem and tridiagonal_eigensystem are the scipy paths the
package took to its circle and line spectral measures before numpy's
eig and eigh replaced them: a complex Schur decomposition, whose unit
vectors are orthonormal to rounding even in a cluster, and the
tridiagonal symmetric solver.  Tests hold the package to them.

check_cmv is the package's former dense check of the CMV invariants
(dense C*C, band mask and determinant), the oracle of the O(n) banded
alflows.check_cmv_band: tests hold the banded residuals to the dense
ones within a stated bound and require the same verdict.

The finite-difference bracket engine (coordinate_jacobian,
bracket_matrix, SpectralObservables with its eigenvalue matching,
chart_jacobian_fd, the column-by-column spectral_jacobian_loop, and the
scalar-observable sweep scalar_gradient and *_residuals_scalar, which
keep their own copy of the bracket formula) is the oracle of the
package's exact gradients; tests hold the package to it within its
accuracy.
"""

import json
import math

import numpy as np
import scipy.linalg

from cmvkit import brackets, serialize
from cmvkit.alflows import DET_TOL, TRACE_TOL, UNITARITY_TOL, Trajectory, al_vector_field, gap_rotation, lax_partner
from cmvkit.brackets import (
    DEFAULT_STEP,
    GRADIENT_AGREEMENT,
    Observable,
    _check_probe,
    _stencil,
    interior_coordinates,
    with_coordinates,
)
from cmvkit.core import (
    SpectralMeasureCircle,
    SpectralMeasureLine,
    VerblunskySet,
    build_cmv,
    circular_gaps,
    lm_factors,
    renormalize_boundary,
)
from cmvkit.ensembles import MAX_DRAWS, RngStream, as_generator, random_verblunsky
from cmvkit.errors import CmvError, DegenerateSpectrum, InvalidParams, NonDifferentiable, OutOfRange, SupportTooSmall
from cmvkit.opuc import christoffel_measure, unitary_angles, unitary_eigensystem, verblunsky_from_measure
from cmvkit.verify import random_measure


def cmv_pattern(v) -> np.ndarray:
    """Entrywise five-diagonal pattern of the CMV matrix.

    Built directly from the published entry table, independently of the
    L @ M product: row pair (2j, 2j+1) holds
        rho_{2j-1} conj(a_{2j}),  -a_{2j-1} conj(a_{2j}),  rho_{2j} conj(a_{2j+1}),  rho_{2j} rho_{2j+1}
        rho_{2j-1} rho_{2j},      -a_{2j-1} rho_{2j},      -a_{2j} conj(a_{2j+1}),   -a_{2j} rho_{2j+1}
    starting at column 2j-1, with the first row pair lacking the
    rho_{-1} factors and the trailing entries cut off by rho_{n-1} = 0.
    """
    n = v.n
    a = np.concatenate([v.alpha, [0.0]])
    rho = np.concatenate([v.rho, [0.0, 0.0]])
    C = np.zeros((n, n), dtype=complex)

    def put(i, j, val):
        if 0 <= i < n and 0 <= j < n:
            C[i, j] = val

    put(0, 0, np.conj(a[0]))
    put(0, 1, rho[0] * np.conj(a[1]))
    put(0, 2, rho[0] * rho[1])
    put(1, 0, rho[0])
    put(1, 1, -a[0] * np.conj(a[1]))
    put(1, 2, -a[0] * rho[1])
    for j in range(1, (n + 1) // 2):
        r = 2 * j
        put(r, r - 1, rho[r - 1] * np.conj(a[r]))
        put(r, r, -a[r - 1] * np.conj(a[r]))
        put(r, r + 1, rho[r] * np.conj(a[r + 1]))
        put(r, r + 2, rho[r] * rho[r + 1])
        put(r + 1, r - 1, rho[r - 1] * rho[r])
        put(r + 1, r, -a[r - 1] * rho[r])
        put(r + 1, r + 1, -a[r] * np.conj(a[r + 1]))
        put(r + 1, r + 2, -a[r] * rho[r + 1])
    return C


def verblunsky_block(alpha_k: complex) -> np.ndarray:
    """The 2x2 unitary block [[conj(a), rho], [rho, -a]], rho = sqrt(1 - |a|^2)."""
    a = complex(alpha_k)
    rho = math.sqrt(max(1.0 - (a.real * a.real + a.imag * a.imag), 0.0))
    return np.array([[np.conj(a), rho], [rho, -a]], dtype=complex)


def lm_factors_loop(alpha):
    """L and M factors of a coefficient vector, placed one 2x2
    verblunsky_block at a time; the last coefficient is taken as given."""
    n = len(alpha)
    L = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    M[0, 0] = 1.0
    for k in range(0, n - 1, 2):
        L[k : k + 2, k : k + 2] = verblunsky_block(alpha[k])
    for k in range(1, n - 1, 2):
        M[k : k + 2, k : k + 2] = verblunsky_block(alpha[k])
    if (n - 1) % 2 == 0:
        L[n - 1, n - 1] = np.conj(alpha[n - 1])
    else:
        M[n - 1, n - 1] = np.conj(alpha[n - 1])
    return L, M


def geronimus_loop(al):
    """Jacobi entries (b, a) of 2n real coefficients by the Geronimus
    relations, one entry at a time, with alpha_{-1} = -1."""
    n = len(al) // 2
    b, a = np.empty(n), np.empty(n - 1)
    for k in range(n):
        prev_odd = al[2 * k - 1] if k > 0 else -1.0
        b[k] = (1.0 - prev_odd) * al[2 * k]
        if k > 0:
            b[k] -= (1.0 + prev_odd) * al[2 * k - 2]
        if k < n - 1:
            a[k] = np.sqrt((1.0 - prev_odd) * (1.0 - al[2 * k] ** 2) * (1.0 + al[2 * k + 1]))
    return b, a


def ensemble_samples_loop(spec, count, gen):
    """Sorted eigenvalue rows of count ensemble draws, written out with loops.

    The stream layout: coefficients are drawn one column at a time, count
    values each, and each column's rejected entries are redrawn before the
    next column.  Circular column k takes count phases, then (unless
    nu = 1) count moduli.  Jacobi column k takes count gamma(s) and then
    count gamma(t) variates.  Hermite takes the count x n Gaussian
    diagonal, then the chi off-diagonals row by row, then redraws of the
    off-diagonals that underflowed to 0, in row-major order.  Circular
    interior entries with modulus above 1 - 1e-12 are redrawn like the
    Jacobi entries outside (-1, 1): all of the column's rejected entries
    at once, right after the column.  Each row's matrix is then built and
    diagonalized on its own.
    """
    n, beta = spec.n, spec.beta
    rows = []
    if spec.family == "circular":
        two_pi = 2.0 * math.pi
        alpha = np.empty((count, n), dtype=complex)
        for k in range(n):
            nu = beta * (n - 1.0 - k) + 1.0
            bad = np.ones(count, dtype=bool)
            while bad.any():
                phase = np.exp(1j * two_pi * gen.random(int(bad.sum())))
                if nu == 1.0:
                    alpha[:, k] = phase
                    break
                u = 1.0 - gen.random(int(bad.sum()))
                alpha[bad, k] = np.sqrt(1.0 - u ** (2.0 / (nu - 1.0))) * phase
                bad = ~(np.abs(alpha[:, k]) <= 1.0 - 1e-12)
        for row in alpha:
            L, M = lm_factors_loop(row)
            C = build_cmv(VerblunskySet(row))
            assert (L @ M).tobytes() == C.entries.tobytes()
            rows.append(unitary_angles(C))
        return np.array(rows)
    if spec.family == "jacobi":
        al = np.empty((count, 2 * n))
        for k in range(2 * n - 1):
            if k % 2 == 0:
                s = (2 * n - k - 2) * beta / 4.0 + spec.a + 1.0
                t = (2 * n - k - 2) * beta / 4.0 + spec.b + 1.0
            else:
                s = (2 * n - k - 3) * beta / 4.0 + spec.a + spec.b + 2.0
                t = (2 * n - k - 1) * beta / 4.0
            x = np.full(count, np.nan)
            while True:
                bad = ~(np.abs(x) < 1.0)
                if not bad.any():
                    break
                g1 = gen.gamma(s, size=int(bad.sum()))
                g2 = gen.gamma(t, size=int(bad.sum()))
                x[bad] = 1.0 - 2.0 * g1 / (g1 + g2)
            al[:, k] = x
        for r in al:
            b, a = geronimus_loop(r)
            rows.append(np.linalg.eigvalsh(np.diag(b) + np.diag(a, 1) + np.diag(a, -1)))
        return np.array(rows)
    diag = gen.standard_normal((count, n))
    half_dof = beta * (n - np.arange(1, n)) / 2.0
    off = np.array([np.sqrt(gen.gamma(half_dof)) for _ in range(count)]).reshape(count, n - 1)
    while (off <= 0.0).any():
        for i, k in zip(*np.nonzero(off <= 0.0)):
            off[i, k] = np.sqrt(gen.gamma(half_dof[k]))
    for b, a in zip(diag, off):
        rows.append(np.linalg.eigvalsh(np.diag(b) + np.diag(a, 1) + np.diag(a, -1)))
    return np.array(rows)


def monic_opuc(mu, k_max):
    """Ascending coefficients of the monic orthogonal polynomials of the
    measure, degrees 0..k_max (k_max <= n, where degree n vanishes on the
    support).

    Gram-Schmidt on monomials in the discrete inner product
    sum_j w_j f(z_j) conj(g(z_j)), with two projection passes per degree
    so that orthogonality survives small weights.
    """
    if not 0 <= k_max <= mu.n:
        raise SupportTooSmall(f"k_max = {k_max} outside 0..{mu.n}")
    z, w = mu.points, mu.weights
    monomials = z[:, None] ** np.arange(k_max + 1)[None, :]
    coeffs, values, norms2 = [], [], []
    for k in range(k_max + 1):
        c = np.zeros(k + 1, dtype=complex)
        c[-1] = 1.0
        val = monomials[:, k].astype(complex)
        for _ in range(2):
            for l in range(k):
                proj = np.sum(w * val * np.conj(values[l])) / norms2[l]
                val = val - proj * values[l]
                c[: l + 1] -= proj * coeffs[l]
        coeffs.append(c)
        values.append(val)
        norms2.append(float(np.sum(w * np.abs(val) ** 2)))
    return coeffs


def reversed_poly(c):
    """Ascending coefficients of the reversal z^k conj(p(1/conj(z))) of the
    degree-k polynomial with ascending coefficients c: c_l -> conj(c_{k-l})."""
    return np.conj(np.asarray(c)[::-1])


def eigvals_angles(U) -> np.ndarray:
    """Sorted eigenvalue angles of a matrix or stack from the general
    complex eigensolver."""
    return np.sort(np.angle(np.linalg.eigvals(U)), axis=-1)


def paraorthogonal_zeros_mp(alpha, theta, dps=40, steps=8):
    """Angles of the zeros of the paraorthogonal Phi_n of the coefficients
    alpha, each found by Newton's method in dps-digit mpmath from the
    matching angle of theta, on the monic Szego recursion."""
    import mpmath

    with mpmath.workdps(dps):
        return np.array([float(mpmath.arg(z)) for z in _zeros_mp(_coefficients_mp(alpha), theta, steps)])


def christoffel_measure_mp(alpha, theta, dps=50, steps=4):
    """Angles and Christoffel weights of the zeros of the paraorthogonal
    Phi_n: each zero found by Newton's method in dps-digit mpmath from the
    matching angle of theta and kept at that precision, its weight
    1 / sum_{k<n} |phi_k|^2 summed there term by term and the weights
    normalized to sum 1 before they are rounded to double."""
    import mpmath

    with mpmath.workdps(dps):
        a = _coefficients_mp(alpha)
        zeros = _zeros_mp(a, theta, steps)
        inverse = [1 / _kernel_sum_mp(a, z) for z in zeros]
        total = mpmath.fsum(inverse)
        return np.array([float(mpmath.arg(z)) for z in zeros]), np.array([float(w / total) for w in inverse])


def christoffel_kernel_mp(alpha, theta, dps=50):
    """sum_{k<n} |phi_k(z)|^2 at each z = e^{i theta}, theta read exactly,
    summed term by term over the dps-digit orthonormal Szego recursion."""
    import mpmath

    with mpmath.workdps(dps):
        a = _coefficients_mp(alpha)
        return np.array([float(_kernel_sum_mp(a, mpmath.expj(mpmath.mpf(float(t))))) for t in theta])


def _coefficients_mp(alpha):
    import mpmath

    return [mpmath.mpc(complex(x)) for x in alpha]


def _zeros_mp(a, theta, steps):
    """Zeros of the paraorthogonal Phi_n of the mpmath coefficients a by
    Newton's method on the monic recursion, one from each angle of theta."""
    import mpmath

    out = []
    for t in theta:
        z = mpmath.expj(mpmath.mpf(float(t)))
        for _ in range(steps):
            p, ps, dp, dps_ = mpmath.mpc(1), mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0)
            for ak in a[:-1]:
                zp, dzp = z * p, p + z * dp
                p, ps = zp - mpmath.conj(ak) * ps, ps - ak * zp
                dp, dps_ = dzp - mpmath.conj(ak) * dps_, dps_ - ak * dzp
            c = mpmath.conj(a[-1])
            z -= (z * p - c * ps) / (p + z * dp - c * dps_)
        out.append(z)
    return out


def _kernel_sum_mp(a, z):
    """sum_{k<n} |phi_k(z)|^2 over the orthonormal recursion, term by term."""
    import mpmath

    p, ps, total = mpmath.mpc(1), mpmath.mpc(1), mpmath.mpf(1)
    for ak in a[:-1]:
        rho = mpmath.sqrt(1 - abs(ak) ** 2)
        p, ps = (z * p - mpmath.conj(ak) * ps) / rho, (ps - ak * z * p) / rho
        total += abs(p) ** 2
    return total


def cyclic_drift(base, angles) -> float:
    """Largest circular distance between two lists of n sorted angles,
    matched in circular order at the best of the n rotations of that
    order, one pair at a time."""
    n = len(base)
    best = math.inf
    for turn in range(n):
        worst = 0.0
        for j in range(n):
            d = abs(float(angles[(j + turn) % n]) - float(base[j]))
            worst = max(worst, min(d, 2.0 * math.pi - d))
        best = min(best, worst)
    return best


def schur_eigensystem(C) -> SpectralMeasureCircle:
    """Spectral measure of a CMV matrix and the vector e_1 from a complex
    Schur decomposition: for a unitary (normal) matrix its Schur vectors
    are an orthonormal eigenbasis, and the weights are their squared
    overlaps with e_1."""
    t, q = scipy.linalg.schur(np.asarray(C.entries), output="complex")
    lam = np.diag(t)
    theta = np.angle(lam)
    weights = np.abs(q[0, :]) ** 2
    return SpectralMeasureCircle(theta, weights)


def tridiagonal_eigensystem(J) -> SpectralMeasureLine:
    """Spectral measure of a Jacobi matrix and the vector e_1 from the
    tridiagonal symmetric eigensolver."""
    if J.n == 1:
        return SpectralMeasureLine(J.b.copy(), np.array([1.0]))
    lam, vec = scipy.linalg.eigh_tridiagonal(J.b, J.a)
    return SpectralMeasureLine(lam, vec[0, :] ** 2)


# How far alflows.check_cmv_band's unitarity residual may lie from
# check_cmv's: each computes every entry of C*C - I, a sum of at most
# five products of entries of unit columns, within about 3 eps in its own
# summation order.  Measured: 3.9e-16 (1.7 eps) over n <= 64, radii 0.3
# to 0.999 and ceiling draws.
UNITARITY_AGREEMENT = 1e-15


def check_cmv(entries, alpha):
    """The CMV invariants on a dense (k, n, n) stack of matrices and its
    (k, n) coefficients, the package's former check, unchanged: dense
    unitarity max|C*C - I|, the five-diagonal band, and the trace and
    determinant identities (np.linalg.det), in that order; raises
    OutOfRange at the first invariant some matrix violates and returns
    the unitarity residuals."""
    n = alpha.shape[-1]
    resid = np.abs(np.swapaxes(entries.conj(), 1, 2) @ entries - np.eye(n)).max(axis=(1, 2))
    worst = resid.max()
    if worst > UNITARITY_TOL:
        raise OutOfRange(f"unitarity residual {worst:.3e} exceeds {UNITARITY_TOL:g}")
    rows, cols = np.indices((n, n))
    if entries[:, np.abs(rows - cols) > 2].any():
        raise OutOfRange("nonzero entry outside the five-diagonal band")
    tr_expected = alpha[:, 0].conj() - (alpha[:, :-1] * alpha[:, 1:].conj()).sum(axis=1)
    if (np.abs(entries.trace(axis1=1, axis2=2) - tr_expected) > TRACE_TOL).any():
        raise OutOfRange("trace identity violated")
    det_expected = (-1.0) ** (n - 1) * alpha[:, -1].conj()
    if (np.abs(np.linalg.det(entries) - det_expected) > DET_TOL).any():
        raise OutOfRange("determinant identity violated")
    return resid


def rk4_trajectory(v0, m, part, t_final, dt):
    """Plain RK4 over al_vector_field, building a fresh matrix for every
    field evaluation and every diagnostic."""

    def state(interior):
        return VerblunskySet(np.concatenate([interior, v0.alpha[-1:]]))

    def field(interior):
        return al_vector_field(state(interior), m, part)

    def diagnostics(v):
        c = np.asarray(build_cmv(v).entries)
        angles = eigvals_angles(c)
        return angles, float(np.abs(c.conj().T @ c - np.eye(v.n)).max())

    steps = max(int(math.ceil(t_final / dt - 1e-12)), 0)
    h = t_final / steps if steps else 0.0
    base_angles, unit0 = diagnostics(v0)
    states, drift, unit = [v0], [0.0], [unit0]
    y = v0.interior.astype(complex)
    for _ in range(steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(state(y))
        angles, u = diagnostics(states[-1])
        d = np.abs(angles - base_angles)
        drift.append(float(np.minimum(d, 2.0 * math.pi - d).max()))
        unit.append(u)
    return Trajectory(np.linspace(0.0, t_final, steps + 1), [v.alpha for v in states], drift, unit)


def dense_lax_field(v, m, part):
    """Interior velocities of the (m, part) flow from the dense commutator
    [C, P] of lax_partner, read along the entry chain that holds
    rho_{k-1} conj(alpha_k) ([k-1, k] for odd k, [k, k-1] for even k, and
    [0, 0] for k = 0) by the first-order recurrence
    rho_dot_k = -Re(conj(alpha_k) alpha_dot_k) / rho_k."""
    C = build_cmv(v)
    P = lax_partner(C, m, part)
    cdot = C.entries @ P - P @ C.entries
    alpha, rho = v.alpha, v.rho
    adot = np.zeros(v.n - 1, dtype=complex)
    if v.n == 1:
        return adot
    adot[0] = np.conj(cdot[0, 0])
    rdot_prev = -np.real(np.conj(alpha[0]) * adot[0]) / rho[0]
    for k in range(1, v.n - 1):
        entry = cdot[k - 1, k] if k % 2 == 1 else cdot[k, k - 1]
        adot[k] = np.conj((entry - rdot_prev * np.conj(alpha[k])) / rho[k - 1])
        rdot_prev = -np.real(np.conj(alpha[k]) * adot[k]) / rho[k]
    return adot


def dense_hamiltonian_gradients(v, degrees):
    """The package's former dense hamiltonian_gradients, unchanged: rows
    of dK_m = tr(C^(m-1) dC) from dense powers of C and the closed-form
    derivative of each 2x2 block of L and M.

    alpha_k moves only its block Theta_k = [[conj(a), rho], [rho, -a]] of
    L (k even) or M (k odd): tr(C^(m-1) dL M) = tr(X dL) with
    X = M C^(m-1), and tr(C^(m-1) L dM) = tr(X dM) with X = C^(m-1) L.
    Along u_k, dTheta_k = [[1, r], [r, -1]], along v_k [[-i, r], [r, -i]],
    with r the derivative of rho_k = sqrt(1 - |a|^2),
    drho = -Re(conj(a) da) / rho.
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


def dense_rk4_endpoint(v0, m, part, t_final, dt):
    """The last state of plain RK4 over dense_lax_field on the grid of
    integrate_flow."""
    steps = max(int(math.ceil(t_final / dt - 1e-12)), 0)
    h = t_final / steps if steps else 0.0

    def field(interior):
        return dense_lax_field(VerblunskySet(np.concatenate([interior, v0.alpha[-1:]])), m, part)

    y = v0.interior.astype(complex)
    for _ in range(steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return VerblunskySet(np.concatenate([y, v0.alpha[-1:]]))


def szego_loop(mu, count):
    """Szego recursion of one measure with scalar norms and inner products."""
    z, w = mu.points, mu.weights
    p = np.ones(mu.n, dtype=complex)
    q = np.ones(mu.n, dtype=complex)
    alphas = np.empty(count, dtype=complex)
    for k in range(count):
        norm2 = float(np.sum(w * (p.real * p.real + p.imag * p.imag)))
        ak = np.conj(np.sum(w * z * p * np.conj(q))) / norm2
        alphas[k] = ak
        zp = z * p
        p = zp - np.conj(ak) * q
        q = q - ak * zp
    return alphas


def spectral_trajectory_loop(v0, ham, t_final, dt):
    """The spectral flow one grid time at a time from the flows' forward
    map (christoffel_measure): exact weights, a SpectralMeasureCircle,
    szego_loop, the package's one boundary rule, a checked CMV matrix and
    one angle read per time."""
    steps = max(int(math.ceil(t_final / dt - 1e-12)), 0)
    times = np.linspace(0.0, t_final, steps + 1)
    mu0 = christoffel_measure(build_cmv(v0))
    states = [v0]
    for t in times[1:]:
        logw = np.log(mu0.weights) + ham.growth_rate(mu0.theta) * float(t)
        logw -= logw.max()
        w = np.exp(logw)
        mu = SpectralMeasureCircle(mu0.theta.copy(), w / w.sum())
        states.append(VerblunskySet(renormalize_boundary(szego_loop(mu, mu.n))))
    drift, unit = [], []
    for v in states:
        C = build_cmv(v)
        c = np.asarray(C.entries)
        if not drift:
            base = unitary_angles(C)
            phi = float(gap_rotation(base))
        angles = unitary_angles(C, phi) if drift else base
        d = np.abs(angles - base)
        drift.append(float(np.minimum(d, 2.0 * math.pi - d).max()))
        unit.append(float(np.abs(c.conj().T @ c - np.eye(v.n)).max()))
    return Trajectory(times, [v.alpha for v in states], drift, unit)


def trajectory_to_obj_loop(traj):
    """The trajectory JSON object built one float at a time."""

    def pair(z):
        return [float(np.real(z)), float(np.imag(z))]

    return {
        "times": [float(t) for t in traj.times],
        "states": [{"n": int(traj.n), "alpha": [pair(a) for a in row]} for row in traj.alpha],
        "diagnostics": [
            {"eig_drift": float(d), "unitarity": float(u)} for d, u in zip(traj.eig_drift, traj.unitarity)
        ],
    }


def write_samples_csv_loop(path, rows):
    """The sample CSV written one float at a time with format(x, ".17g")."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(format(x, ".17g") for x in row))
            fh.write("\n")


def write_histogram_csv_loop(path, edges, counts):
    """The histogram CSV written one bin at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, c in enumerate(counts):
            left = format(edges[i], ".17g")
            right = format(edges[i + 1], ".17g")
            fh.write(f"{left},{right},{int(c)}\n")


def read_samples_csv_loop(path):
    """The sample CSV reader that parses one token at a time with float()."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        return np.empty((0, 0))
    try:
        data = np.array([[float(tok) for tok in line.split(",")] for line in rows])
    except ValueError as exc:
        ragged = len({line.count(",") for line in rows}) > 1
        raise InvalidParams(f"{path}: {'rows of unequal length' if ragged else exc}") from exc
    finite = np.isfinite(data)
    if not finite.all():
        row = finite.all(axis=1).argmin() + 1
        raise InvalidParams(f"{path}: row {row} holds {data[~finite][0]}, not a finite number")
    return data


def _ndarray_as_list(obj):
    if isinstance(obj, (np.ndarray, serialize.Records)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json_loop(obj, path):
    """The JSON file as json.dump(indent=1) writes it, plus a newline; an
    ndarray or serialize.Records is written as its .tolist()."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, default=_ndarray_as_list)
        fh.write("\n")


def cdf_from_density(density, lo, hi, grid=20001):
    """Trapezoid CDF of an unnormalized density; returns a vectorized callable."""
    x = np.linspace(lo, hi, grid)
    pdf = np.asarray(density(x), dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(x))])
    cum /= cum[-1]
    return lambda s: np.interp(s, x, cum)


def circular_gap(angles: np.ndarray) -> np.ndarray:
    """Circular distance between the two angle columns, in [0, pi]."""
    d = np.abs(angles[:, 1] - angles[:, 0])
    return np.minimum(d, 2.0 * np.pi - d)


def pair_square_integral(ax, bx, ay, by):
    """Exact integral of (x - y)^2 over the rectangle [ax, bx] x [ay, by]."""
    ix2 = (bx**3 - ax**3) / 3.0 * (by - ay)
    iy2 = (by**3 - ay**3) / 3.0 * (bx - ax)
    ixy = (bx**2 - ax**2) / 2.0 * (by**2 - ay**2) / 2.0
    return ix2 + iy2 - 2.0 * ixy


def chi_square_pooled(observed, expected, min_expected=5.0):
    """Chi-square statistic and dof with low-expectation cells pooled."""
    observed = np.asarray(observed, dtype=float).reshape(-1)
    expected = np.asarray(expected, dtype=float).reshape(-1)
    order = np.argsort(expected)
    obs, exp = observed[order], expected[order]
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    pooled_obs = np.asarray(pooled_obs)
    pooled_exp = np.asarray(pooled_exp)
    stat = float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp))
    return stat, pooled_obs.size - 1


def fit_hamiltonian_with_rates(theta, targets):
    """Trigonometric polynomial coefficients c_1..c_n with
    2 Re sum_m m c_m e^(i m theta_j) = targets_j at every support angle."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    A = np.zeros((n, 2 * n))
    for m in range(1, n + 1):
        A[:, 2 * (m - 1)] = 2.0 * m * np.cos(m * theta)
        A[:, 2 * (m - 1) + 1] = -2.0 * m * np.sin(m * theta)
    x, *_ = np.linalg.lstsq(A, np.asarray(targets, dtype=float), rcond=None)
    return x[0::2] + 1j * x[1::2]


def separated_verblunsky(n, rng, radius=0.7, min_separation=0.0):
    """random_verblunsky redrawn until all eigenvalue angles of the CMV
    matrix are more than min_separation apart (circularly): the package's
    former min_separation draw, loop and variates unchanged, so the tests
    that used it keep their coefficient sets bit for bit."""
    gen = as_generator(rng)
    for _ in range(MAX_DRAWS):
        v = random_verblunsky(n, gen, radius=radius)
        if n == 1 or circular_gaps(unitary_angles(build_cmv(v))).min() > min_separation:
            return v
    raise InvalidParams("could not find a coefficient set with the requested separation")


def ceiling_draws(n, seed, count=10):
    """Radius-0.95 draws with one exact alpha_k = 0 and one |alpha_k| = 1 - 1e-8."""
    gen = RngStream(seed).generator()
    for _ in range(count):
        alpha = random_verblunsky(n, gen, radius=0.95).alpha.copy()
        k, j = gen.choice(n - 1, 2, replace=False)
        alpha[k] = 0.0
        alpha[j] = (1.0 - 1e-8) * np.exp(1j * gen.uniform(-np.pi, np.pi))
        yield VerblunskySet(alpha)


def separated_measure(n, gen, margin=None):
    """The package's former random_measure, loop and variates unchanged:
    uniform angles that keep `margin` (default min(0.35, pi/(2n))) from
    -pi, pi and each other, weights uniform on [0.5, 1.5], and
    arg(alpha_{n-1}) 0.25 from the cut.  Its draws lie where the
    finite-difference Jacobian oracles (chart_jacobian_fd,
    spectral_jacobian_loop), which difference arg(alpha_{n-1}) directly,
    are accurate; it fails for n beyond about 17."""
    if margin is None:
        margin = min(0.35, np.pi / (2 * n))
    for _ in range(512):
        theta = np.sort(gen.uniform(-np.pi + margin, np.pi - margin, n))
        if n > 1 and np.diff(theta).min() < margin:
            continue
        weights = gen.uniform(0.5, 1.5, n)
        mu = SpectralMeasureCircle(theta, weights / weights.sum())
        phi = (n - 1) * np.pi - theta.sum()
        phi -= 2.0 * np.pi * np.round(phi / (2.0 * np.pi))
        if np.pi - abs(phi) > 0.25:
            return mu
    raise InvalidParams("could not draw a well-conditioned measure")


# --- finite-difference bracket engine ----------------------------------------
#
# The identity suites' former engine, the oracle of the exact gradients:
# Richardson-extrapolated central differences at steps h and h/2 over the
# interior coordinates, on the package's own stencil.

TWO_PI = 2.0 * math.pi
BRANCH_MARGIN = 0.1  # keep arg(alpha_{n-1}) this far from +-pi
JACOBIAN_STEP = 4e-4  # larger than the bracket step: the map is smooth and
#                       arg() rounding noise scales like eps / h


class MatchingAmbiguous(CmvError):
    """Eigenvalue labels cannot be tracked unambiguously across a perturbation."""


class BranchProximity(CmvError):
    """The boundary phase is too close to the branch cut of arg."""


def coordinate_jacobian(fn, v, h=DEFAULT_STEP, names=None):
    """Richardson-extrapolated Jacobian of a vector observable, plus the raw rows.

    fn maps a coefficient set to a (k,) array of real values; it is
    evaluated once at each stencil point x0 +- h e_i and x0 +- (h/2) e_i
    of the 2(n-1) interior coordinates.  Returns (extrapolated, step h,
    step h/2), each of shape (k, 2(n-1)).  Raises RhoTooSmall when the
    stencil would leave the disk, and NonDifferentiable when, for some
    component, the two raw gradients disagree beyond 1e-4 relative to that
    row's scale, or are NaN; the message names the first such component,
    by `names[r]` if given.
    """
    _check_probe(v, h)
    x0 = interior_coordinates(v)
    if x0.size == 0:
        empty = np.empty((np.size(fn(v)), 0))
        return empty, empty, empty
    g1, g2 = _stencil(lambda x: fn(with_coordinates(v, x)), x0, np.full(x0.size, h))
    scale = np.maximum(np.maximum(np.abs(g1).max(axis=1), np.abs(g2).max(axis=1)), 1.0)
    gap = np.abs(g1 - g2).max(axis=1)
    bad = np.flatnonzero(~(gap <= GRADIENT_AGREEMENT * scale))
    if bad.size:
        r = int(bad[0])
        name = names[r] if names is not None else f"component {r}"
        raise NonDifferentiable(f"{name}: two-step gradients disagree by {gap[r] / scale[r]:.3e} relative")
    return (4.0 * g2 - g1) / 3.0, g1, g2


def bracket_matrix(fn, v, h=DEFAULT_STEP, names=None):
    """Brackets B[a, b] = {f_a, f_b} of every pair of components of fn and
    their error estimates: the Richardson extrapolation (4 fine - coarse) / 3
    of the raw bracket matrices at steps h and h/2, and |fine - coarse| / 3."""
    _, g1, g2 = coordinate_jacobian(fn, v, h, names)
    coarse = brackets.bracket_matrix(g1, v)
    fine = brackets.bracket_matrix(g2, v)
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

    def __init__(self, v, separation=1e-6):
        base = unitary_eigensystem(build_cmv(v))
        if base.n > 1 and circular_gaps(base.theta).min() <= separation:
            raise DegenerateSpectrum(f"base spectrum separation below {separation:g}")
        self.base = base
        self.n = base.n

    def values(self, w):
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


def chart_jacobian_fd(mu, h=JACOBIAN_STEP):
    """Richardson-extrapolated central-difference Jacobian of the
    spectral-to-coefficient map in the coordinates of chart_jacobian.

    The stencil moves the chart offsets dx = (dtheta_1, dmu_1, ...,
    dtheta_n), mu_n absorbing the weight steps, at steps h and h/2 (a
    weight step is capped at a quarter of the two weights it moves, then
    halved).  phi = arg(alpha_{n-1}) is differenced directly, so the map
    must stay 0.1 from the cut of arg, and the support 10 h from angle pi:
    otherwise BranchProximity.
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
    return (4.0 * fine - coarse) / 3.0


# --- scalar-observable bracket sweep ----------------------------------------


def scalar_gradient(obs, v, h=DEFAULT_STEP):
    """Richardson gradient of one scalar observable: a full stencil sweep
    per step size, with the two-step agreement guard."""

    def raw(step):
        x0 = interior_coordinates(v)
        grad = np.empty(x0.size)
        for i in range(x0.size):
            xp = x0.copy()
            xp[i] += step
            fp = obs(with_coordinates(v, xp))
            xp[i] = x0[i] - step
            fm = obs(with_coordinates(v, xp))
            grad[i] = (fp - fm) / (2.0 * step)
        return grad

    g1 = raw(h)
    g2 = raw(h / 2.0)
    scale = max(np.abs(g1).max(initial=0.0), np.abs(g2).max(initial=0.0), 1.0)
    if np.abs(g1 - g2).max(initial=0.0) > GRADIENT_AGREEMENT * scale:
        raise NonDifferentiable(f"{obs.name}: two-step gradients disagree")
    return (4.0 * g2 - g1) / 3.0, g1, g2


def _bracket(gf, gg, rho):
    """sum_j rho_j^2 (df/du_j dg/dv_j - df/dv_j dg/du_j) from flat gradients."""
    return float(np.sum(rho * rho * (gf[0::2] * gg[1::2] - gf[1::2] * gg[0::2])))


def _rich(ga, gb, rho, scale=1.0):
    coarse = scale * _bracket(ga[1], gb[1], rho)
    fine = scale * _bracket(ga[2], gb[2], rho)
    return (4.0 * fine - coarse) / 3.0


def _coordinate_observables(j):
    return (
        Observable(f"u_{j}", lambda w: w.alpha[j].real),
        Observable(f"v_{j}", lambda w: w.alpha[j].imag),
    )


def _theta_observable(obs, j):
    return Observable(f"theta_{j}", lambda w: obs.values(w)[0][j])


def _log_mass_ratio_observable(obs, j, l):
    def fn(w):
        weights = obs.values(w)[1]
        return np.log(weights[j] / weights[l])

    return Observable(f"log(mu_{j}/mu_{l})", fn)


def _trace_observable(m, part):
    def fn(w):
        trace = np.trace(np.linalg.matrix_power(np.asarray(build_cmv(w).entries), m))
        return (trace.real if part == 0 else trace.imag) / m

    return Observable(f"K_{m}[{part}]", fn)


def brackets_residuals_scalar(v):
    """(reconstruction, antisymmetry, involution) defects at one probe, one
    scalar gradient per coordinate and per Re/Im K_m."""
    n = v.n
    grads = [tuple(scalar_gradient(o, v) for o in _coordinate_observables(j)) for j in range(n - 1)]
    worst_pair = worst_anti = worst_ham = 0.0
    for kk in range(n - 1):
        for ll in range(n - 1):
            gu_k, gv_k = grads[kk]
            gu_l, gv_l = grads[ll]
            uu = _rich(gu_k, gu_l, v.rho)
            uv = _rich(gu_k, gv_l, v.rho)
            vu = _rich(gv_k, gu_l, v.rho)
            vv = _rich(gv_k, gv_l, v.rho)
            same = complex(uu + vv, vu - uv)
            cross = complex(uu - vv, uv + vu)
            expected = -2j * v.rho[kk] ** 2 if kk == ll else 0.0
            worst_pair = max(worst_pair, abs(same - expected), abs(cross))
            worst_anti = max(worst_anti, abs(uv + _rich(gv_l, gu_k, v.rho)))
    hgrads = {(m, p): scalar_gradient(_trace_observable(m, p), v) for m in (1, 2, 3) for p in (0, 1)}
    for m in (1, 2, 3):
        for l in (1, 2, 3):
            for pf in (0, 1):
                worst_ham = max(worst_ham, abs(_rich(hgrads[(m, pf)], hgrads[(l, 0)], v.rho)))
    return worst_pair, worst_anti, worst_ham


def canonical_residuals_scalar(v):
    """(angle commutation, pairing matrix) defects at one probe, one scalar
    gradient (and one eigensolve per stencil point) per observable."""
    n = v.n
    obs = SpectralObservables(v)
    tgrads = [scalar_gradient(_theta_observable(obs, j), v) for j in range(n)]
    rgrads = [scalar_gradient(_log_mass_ratio_observable(obs, j, n - 1), v) for j in range(n - 1)]
    worst_theta = 0.0
    for j in range(n):
        for l in range(j + 1, n):
            worst_theta = max(worst_theta, abs(_rich(tgrads[j], tgrads[l], v.rho)))
    mat = np.empty((n - 1, n - 1))
    for l in range(n - 1):
        for j in range(n - 1):
            mat[l, j] = _rich(tgrads[l], rgrads[j], v.rho, scale=0.5)
    return worst_theta, np.abs(mat - np.eye(n - 1)).max()


def cotangent_residual_scalar(v, labels):
    """Mass-ratio bracket minus the cotangent sum, one scalar gradient per ratio."""
    i, j, k = labels
    obs = SpectralObservables(v)
    gf = scalar_gradient(_log_mass_ratio_observable(obs, j, i), v)
    gg = scalar_gradient(_log_mass_ratio_observable(obs, k, i), v)
    th = obs.base.theta
    predicted = (
        2.0 / np.tan(0.5 * (th[i] - th[j]))
        + 2.0 / np.tan(0.5 * (th[j] - th[k]))
        + 2.0 / np.tan(0.5 * (th[k] - th[i]))
    )
    return float(_rich(gf, gg, v.rho) - predicted)


def suite_residuals_scalar(suite, n, trials, seed):
    """Worst residual of each identity of the brackets, canonical or
    cotangent suite, from the scalar sweep on the suite's probe stream
    (radius-0.65 coefficients for brackets, the coefficients of a
    random_measure for the other two)."""
    gen = RngStream(seed).generator()
    worst = None
    for _ in range(trials):
        if suite == "brackets":
            res = brackets_residuals_scalar(random_verblunsky(n, gen, radius=0.65))
        elif suite == "canonical":
            res = canonical_residuals_scalar(verblunsky_from_measure(random_measure(n, gen)))
        else:
            v = verblunsky_from_measure(random_measure(n, gen))
            labels = tuple(gen.permutation(n)[:3].tolist())
            res = (abs(cotangent_residual_scalar(v, labels)),)
        worst = res if worst is None else tuple(max(a, b) for a, b in zip(worst, res))
    return [float(r) for r in worst]


# --- spectral-to-coefficient Jacobian ----------------------------------------


def spectral_jacobian_loop(mu, h=JACOBIAN_STEP):
    """Determinant of the spectral-to-coefficient Jacobian, one hand-written
    column at a time: an angle column, then a weight column that moves mu_j
    against mu_n, at steps h and h/2 (weight steps capped at a quarter of
    both weights), each column's phase difference unwrapped, and the two
    matrices Richardson-extrapolated."""
    n = mu.n
    theta0 = mu.theta.copy()
    w0 = mu.weights.copy()

    def outputs(theta, weights):
        v = verblunsky_from_measure(SpectralMeasureCircle(theta, weights))
        phi = np.angle(v.alpha[-1])
        return np.concatenate([interior_coordinates(v), [phi]]) if n > 1 else np.array([phi])

    base_phi = np.angle(verblunsky_from_measure(mu).alpha[-1])
    if np.pi - abs(base_phi) < BRANCH_MARGIN:
        raise BranchProximity("phase near the cut")
    if np.pi - np.abs(theta0).max() < 10.0 * h:
        raise BranchProximity("support near angle pi")

    def column(plus, minus):
        d = plus - minus
        d[-1] -= 2.0 * np.pi * np.round(d[-1] / (2.0 * np.pi))
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
