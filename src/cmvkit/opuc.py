"""Spectral transforms for orthogonal polynomials on the unit circle.

Forward direction: eigensolve a CMV or Jacobi matrix (or a stack of CMV
matrices) with np.linalg.eig or eigh and read off the spectral measure of
e_1, each weight to a small absolute error (unitary_eigensystem, for
`cmv spectral` and the identity suites).  Near known angles,
newton_angle_steps follows the eigenvalues of a stack of CMV matrices
without forming them: one Newton step on the paraorthogonal polynomial
Phi_n, O(n^2) per matrix, with the matrices' own rho
(core.coefficient_rho), and the Christoffel kernel sum_{k<n} |phi_k|^2
at each point; newton_trusted says which steps land on the zeros.  When
only the eigenvalue angles of a CMV matrix are needed (ensemble draws,
the first state of a flow), unitary_angles gets them from one Hermitian
eigensolve of a rotated Cayley transform instead of a general complex
one, and a Newton step where that pass is coarse.
christoffel_measure chains the two into the flows' forward map, each
weight to a small relative error: the angles, one Newton step, and the
weights 1 / K at the refined angles.
Inverse direction: run the Szego recursion on a finitely supported
circle measure to recover the Verblunsky coefficients.  szego_rows runs
it on a (T, n) stack of weight vectors at once, on one support, as a
spectral flow needs at its T grid times, or on one support per row, as a
stack of measures has; szego_coefficients and verblunsky_from_measure
are its views on a measure or a stack of them, verblunsky_rows its view
on arrays.  szego_tangents is its forward-mode derivative, on the same
stacks.  The circle and the interval [-2, 2] are connected by the
pushforward of z + 1/z and, on the coefficient side, by the Geronimus
relations.

All functions are pure maps of immutable inputs.
"""

from __future__ import annotations

import numpy as np

from .core import (
    TWO_PI,
    CMVMatrix,
    JacobiMatrix,
    SpectralMeasureCircle,
    SpectralMeasureLine,
    VerblunskySet,
    build_jacobi,
    circular_gaps,
    coefficient_rho,
    principal_angle,
    renormalize_boundary,
)
from .errors import (
    IllConditioned,
    InvalidBoundary,
    InvalidParams,
    NotSymmetric,
    SupportAtRealAxis,
    SupportTooSmall,
)

NORM_FLOOR = 1e-13          # squared-norm floor for the Szego recursion
BOUNDARY_RECOVERY_TOL = 1e-6  # how far the recovered boundary coefficient may sit off the circle
AXIS_TOL = 1e-8             # support this close to angle 0 or pi blocks the circle->interval map
PAIR_TOL = 1e-10            # conjugate pairs must match within this angular tolerance
POLE_LIMIT = 64.0           # a Cayley pass with max|eig H| above this is refined by a Newton step
GAP_TRUST = 1e8             # above this max|eig H|, a pass's angles are too coarse to locate a gap
ANGLE_BLOCK = 4096          # complex entries per block of a stacked unitary_angles call
DRIFT_TRUST = 0.125         # largest trusted Newton reach, in smallest chords of the starting angles
STEP_ROUNDING = 2.0**-52    # largest error a Newton step of unitary_angles may leave, in smallest chords


def unitary_eigensystem(C: CMVMatrix) -> SpectralMeasureCircle:
    """Spectral measure of a CMV matrix and the vector e_1; for a stack of
    CMV matrices, the stack of their measures, from one batched eig.

    The weights are the squared first components |q[0, j]|^2 of the unit
    eigenvectors from np.linalg.eig, normalized to sum 1: in a cluster
    of close eigenvalues those vectors are orthogonal only to about
    eps / gap.  Eigenvector phases do not enter.
    """
    lam, q = np.linalg.eig(C.entries)
    weights = np.abs(q[..., 0, :]) ** 2
    return SpectralMeasureCircle(np.angle(lam), weights / weights.sum(axis=-1, keepdims=True))


def christoffel_measure(C: CMVMatrix) -> SpectralMeasureCircle:
    """Spectral measure of a CMV matrix and the vector e_1, each weight to
    a small relative error, from one dense read and two O(n^2) passes.

    The unitary_angles of C (already refined by a Newton step where their
    Cayley pass was coarse) take one newton_angle_steps step onto the
    zeros of Phi_n; a second recursion at those refined angles gives the
    Christoffel weights 1 / K(z_j), normalized to sum 1.  An eig weight
    errs by about eps in absolute terms, so a tiny one loses its relative
    accuracy, which is what a spectral flow's exact propagation
    mu_j(t) ~ exp(F(theta_j) t) mu_j(0) carries to its endpoint; a
    Christoffel weight keeps it, but its absolute error grows with the
    largest K (unitary_eigensystem stays the map where absolute accuracy
    counts).
    """
    alpha = C.source.alpha
    theta = unitary_angles(C)
    theta = theta + newton_angle_steps(alpha, theta)[0]
    weights = 1.0 / newton_angle_steps(alpha, theta)[2]
    return SpectralMeasureCircle(theta, weights / weights.sum())


def unitary_angles(C: CMVMatrix, phi: float = 0.0) -> np.ndarray:
    """Sorted eigenvalue angles in (-pi, pi] of a CMV matrix or a stack of them.

    One pass eigendecomposes the Hermitian Cayley transform of the rotated
    matrix R = e^{-i phi} C,
        H = i (I - R)(I + R)^{-1} = i (2 (I + R)^{-1} - I),
    whose eigenvalues lambda give the angles phi + 2 arctan(lambda).  The
    error grows with max|lambda|, that is as an eigenvalue nears the pole
    -e^{i phi}.  The angles of every matrix with 64 < max|lambda| <= 1e8
    take one newton_angle_steps step onto the zeros of Phi_n, from the
    matrices' own coefficients, in one call for all of them.  A step is
    kept when newton_trusted trusts it and the error it leaves, about
    (n / smallest chord) delta^2 for steps delta, is below rounding: the
    first pass errs by about 1e-3 to 1e-2 eps max|lambda|^2, so this
    holds up to max|lambda| of about 1e4.  Any other coarse matrix gets a
    second pass with the pole in the middle of the largest gap of its
    first-pass angles, where max|lambda| <= cot(pi / 2n).  A first pass
    too coarse to locate that gap (max|lambda| > 1e8, or I + R exactly
    singular) is redone instead at the best of n evenly spaced further
    poles; with the first one they are n + 1 poles, so one of them lies
    pi / (n + 1) from every eigenvalue.
    The passes run in blocks of about 4096 entries, and each matrix's
    angles do not depend on the rest of the stack.
    """
    if not isinstance(C, CMVMatrix):
        raise InvalidParams(f"expected a CMVMatrix, got {type(C).__name__}")
    n = C.n
    stack = C.entries.reshape(-1, n, n)
    theta, lam_max = np.empty(stack.shape[:2]), np.empty(stack.shape[0])
    per = max(ANGLE_BLOCK // (n * n), 1)
    for s in range(0, stack.shape[0], per):
        block = stack[s : s + per]
        theta[s : s + per], lam_max[s : s + per] = _cayley_pass(block, np.full(block.shape[0], float(phi)))
    coarse = np.flatnonzero((lam_max > POLE_LIMIT) & (lam_max <= GAP_TRUST))
    if coarse.size:
        start = theta[coarse]
        steps, reach, _ = newton_angle_steps(C.source.alpha.reshape(-1, n)[coarse], start)
        # a trusted step from angles off by e leaves them off by about
        # (n / smallest chord) e^2, and e <= delta / 0.77 for the step
        # delta: keep the step only where twice that bound is rounding
        converged = 2.0 * n * np.abs(steps).max(axis=-1) ** 2 <= STEP_ROUNDING * _smallest_chord(start)
        ok = newton_trusted(reach, start) & converged
        theta[coarse[ok]] = np.sort(principal_angle(start[ok] + steps[ok]), axis=-1)
        rerun = coarse[~ok]
        for s in range(0, rerun.size, per):
            rows = rerun[s : s + per]
            theta[rows] = _cayley_pass(stack[rows], gap_rotation(theta[rows]))[0]
    for i in np.flatnonzero(lam_max > GAP_TRUST):
        poles = phi + TWO_PI * np.arange(1, n + 1) / (n + 1)
        sweep, sweep_max = _cayley_pass(np.broadcast_to(stack[i], (n, n, n)), poles)
        theta[i] = sweep[np.argmin(sweep_max)]
    return theta.reshape(C.entries.shape[:-1])


def gap_rotation(theta) -> np.ndarray:
    """The phi that puts the Cayley pole -e^{i phi} of unitary_angles in the
    middle of the largest circular gap of sorted angles theta (..., n)."""
    t = np.asarray(theta, dtype=float)
    gaps = circular_gaps(t)
    k = np.argmax(gaps, axis=-1)[..., None]
    return np.take_along_axis(t + 0.5 * gaps, k, axis=-1)[..., 0] - np.pi


def _cayley_pass(U: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted angles and max|eig H| of each matrix U[j] rotated by phi[j];
    max|eig H| is inf where I + R is exactly singular."""
    eye = np.eye(U.shape[-1])
    A = eye + np.exp(-1j * phi)[:, None, None] * U
    singular = np.zeros(A.shape[0], dtype=bool)
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        inv = np.empty_like(A)
        for j, a in enumerate(A):
            try:
                inv[j] = np.linalg.inv(a)
            except np.linalg.LinAlgError:
                inv[j], singular[j] = eye, True
    lam = np.linalg.eigvalsh(1j * (2.0 * inv - eye))
    lam_max = np.where(singular, np.inf, np.abs(lam).max(axis=-1))
    theta = np.sort(principal_angle(phi[:, None] + 2.0 * np.arctan(lam)), axis=-1)
    return theta, lam_max


def newton_angle_steps(alpha: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Newton step towards the eigenvalues of the CMV matrices of the
    coefficient rows alpha (..., n), from each angle of theta, and the
    Christoffel kernel at each angle.  theta is one set of angles for
    every row, or a stack (..., n) of them broadcast against the rows,
    such as one row of angles per coefficient row.

    The eigenvalues are the zeros of the paraorthogonal polynomial Phi_n.
    Runs the orthonormal Szego recursion and its z-derivative at
    z_j = e^{i theta_j}, all rows at once:
        phi_{k+1}  = z phi_k / rho_k - conj(a_k / rho_k) phi*_k,
        phi*_{k+1} = phi*_k / rho_k - (a_k / rho_k) z phi_k,
    each polynomial carried with its derivative as one stacked (2, ...)
    pair, (phi, phi') and (phi*, phi*'), so that one step is eight
    in-place operations on the pairs; and ends without the division,
    since alpha_{n-1} is unimodular:
    Phi_n = z phi_{n-1} - conj(a_{n-1}) phi*_{n-1}, up to a positive
    factor that no ratio below sees.  With w = Phi_n / (z Phi_n') it
    returns, each (..., n):
        steps  delta = -Im(w), the angle step from theta_j to the zero;
        reach  n |w|, the radius of a disk about z_j that holds a zero
               (the logarithmic derivative z Phi_n'/Phi_n is a sum of n
               terms z / (z - zeta));
        kernel K(z_j) = sum_{k<n} |phi_k(z_j)|^2, summed along the
               recursion.  At a zero of Phi_n, 1 / K is its Christoffel
               weight, the mass the spectral measure puts there.
    A point where Phi_n' vanishes gets step 0 and reach inf.

    The Christoffel-Darboux form of K (Simon, OPUC I, Thm 2.2.7), read off
    the loop's last values, holds only while rho_k^2 + |a_k|^2 = 1
    exactly.  With a coefficient 1e-8 from the circle the rounded rho_k
    breaks that by about 5e-9 relative, and the form put 2e-9 of absolute
    error into the weights, where the sum keeps 5e-15.  The sum costs
    three in-place operations per step.
    """
    a = np.asarray(alpha, dtype=complex)
    z = np.exp(1j * np.asarray(theta, dtype=float))
    inner = a[..., :-1]
    inv_rho = 1.0 / coefficient_rho(inner)
    ar = inner * inv_rho
    cr = ar.conj()
    shape = np.broadcast_shapes(a.shape[:-1] + (1,), z.shape)
    p, ps = np.zeros((2, 2) + shape, dtype=complex)  # [phi, phi'] and [phi*, phi*']
    p[0] = ps[0] = 1.0
    zp, t = np.empty((2, 2) + shape, dtype=complex)  # zp: [z phi, z phi' + phi]
    phi, dzp, t0 = p[0], zp[1], t[0]
    kernel = np.ones(shape)
    for k in range(a.shape[-1] - 1):
        rk, ak, ck = inv_rho[..., k, None], ar[..., k, None], cr[..., k, None]
        np.multiply(z, p, out=zp)
        dzp += phi
        np.multiply(ck, ps, out=t)
        np.multiply(zp, rk, out=p)
        p -= t
        np.multiply(ak, zp, out=t)
        ps *= rk
        ps -= t
        np.conjugate(phi, out=t0)
        t0 *= phi
        kernel += t0.real
    (p, dp), (ps, dps) = p, ps
    c = a[..., -1:].conj()
    f = z * p - c * ps
    zdf = z * (p + z * dp - c * dps)
    w = np.divide(f, zdf, out=np.full(shape, np.inf, dtype=complex), where=zdf != 0.0)
    return -w.imag, a.shape[-1] * np.abs(w), kernel


def newton_trusted(reach: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Which newton_angle_steps steps from sorted angles theta (..., n) to
    trust, one verdict per row of their reaches (..., n).

    A row is trusted when every reach is at most DRIFT_TRUST times the
    smallest chord |z_j - z_k| of its angles (2 for n = 1).  Then the
    disks of the reaches are disjoint, so each holds exactly one zero of
    Phi_n, and each step is the offset of that zero from theta_j within a
    relative error of 0.23, shrinking in proportion to the offset.
    """
    return reach.max(axis=-1) <= DRIFT_TRUST * _smallest_chord(theta)


def _smallest_chord(theta: np.ndarray) -> np.ndarray:
    """The smallest chord |z_j - z_k| of each row of sorted angles theta (..., n); 2 for n = 1."""
    return 2.0 * np.sin(np.minimum(circular_gaps(theta).min(axis=-1), np.pi) / 2.0)


def jacobi_eigensystem(J: JacobiMatrix) -> SpectralMeasureLine:
    """Spectral measure of a Jacobi matrix and the vector e_1: the squared
    first components of np.linalg.eigh's eigenvectors, normalized to sum 1."""
    lam, vec = np.linalg.eigh(J.to_dense())
    weights = vec[0, :] ** 2
    return SpectralMeasureLine(lam, weights / weights.sum())


def szego_coefficients(mu: SpectralMeasureCircle, count: int) -> np.ndarray:
    """First `count` Verblunsky coefficients of the measure (..., count for a
    stack of measures); szego_rows on its rows of angles and weights."""
    return szego_rows(mu.theta, mu.weights, count)


def szego_rows(theta: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """First `count` Verblunsky coefficients of each of the measures with
    canonical angles theta and weight rows weights (..., n); theta is one
    support (n,), as a spectral flow has, or one row of angles per weight
    row, broadcast against weights.

    Runs the Szego recursion of _szego_steps on point values, all rows at
    once.  Returns a (..., count) array whose rows do not depend on each
    other.  Raises IllConditioned when an intermediate squared norm of any
    row falls below 1e-13.
    """
    n = theta.shape[-1]
    if count > n:
        raise SupportTooSmall(f"cannot produce {count} coefficients from {n} support points")
    alphas = [step[-1] for step in _szego_steps(np.exp(1j * theta), weights, count)]
    return np.concatenate([np.empty(weights.shape[:-1] + (0,), dtype=complex), *alphas], axis=-1)


def _szego_steps(z: np.ndarray, weights: np.ndarray, count: int):
    """The Szego recursion on point values z and weights (..., n), one step
    at a time: the one loop of szego_rows and szego_tangents.

        p_{k+1} = z p_k - conj(a_k) q_k,   q_{k+1} = q_k - a_k z p_k,
    where p_k, q_k are the monic polynomial and its reversal evaluated on
    the support, and a_k is fixed by orthogonality,
    conj(a_k) = <z p_k, q_k> / ||p_k||^2.  For k < count it yields
    (p_k, q_k, z p_k, |p_k|^2, ||p_k||^2, a_k), a_k and the norm (..., 1),
    and raises IllConditioned when a squared norm falls below NORM_FLOOR.
    The p, q, zp and |p_k|^2 arrays are buffers that the next step
    overwrites, so a caller reads them within their step; a_k and the norm
    are new arrays.  |p_k|^2 sums re^2 + im^2 as coefficient_rho does.
    """
    wz = weights * z
    p, q = np.ones(wz.shape, dtype=complex), np.ones(wz.shape, dtype=complex)
    zp, inner = np.empty_like(p), np.empty_like(p)
    mod2, weighted = np.empty(wz.shape), np.empty(wz.shape)
    parts = p.view(float)
    squares = np.empty_like(parts)
    re2, im2 = squares[..., ::2], squares[..., 1::2]  # re^2 and im^2 of p_k at each point
    for k in range(count):
        np.square(parts, out=squares)
        np.add(re2, im2, out=mod2)
        norm2 = np.add.reduce(np.multiply(weights, mod2, out=weighted), axis=-1, keepdims=True)
        if norm2.min(initial=np.inf) < NORM_FLOOR:
            raise IllConditioned(f"||Phi_{k}||^2 = {norm2.min():.3e} below {NORM_FLOOR:g}")
        # zp holds conj(q) until z p is written into it
        np.multiply(np.multiply(wz, p, out=inner), np.conjugate(q, out=zp), out=inner)
        ak = np.add.reduce(inner, axis=-1, keepdims=True).conj() / norm2
        np.multiply(z, p, out=zp)
        yield p, q, zp, mod2, norm2, ak
        np.subtract(zp, np.multiply(ak.conj(), q, out=p), out=p)
        np.subtract(q, np.multiply(ak, zp, out=zp), out=q)


def szego_tangents(theta: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All n Verblunsky coefficients of each measure with canonical angles
    theta (..., n) and weights (..., n), and their derivatives along the
    2n - 1 chart directions (theta_1, mu_1, ..., theta_{n-1}, mu_{n-1},
    theta_n), where a step in mu_j adds to weight j and takes as much from
    weight n.

    Forward-mode szego_rows: next to each step of _szego_steps it carries
    the tangents of p_k and q_k along every direction, differentiating
        conj(a_k) = <z p_k, q_k> / ||p_k||^2
    by the quotient rule.  Returns alpha (..., n), the coefficients of the
    same steps and so szego_coefficients bit for bit, and dalpha
    (..., n, 2n - 1), entry [k, d] the derivative of alpha_k along
    direction d.  Each measure's rows equal those of a call on it alone.
    Raises IllConditioned as szego_rows does.
    """
    n = theta.shape[-1]
    z = np.exp(1j * theta)
    wz = weights * z
    points = np.arange(n)
    dz = np.zeros(z.shape[:-1] + (2 * n - 1, n), dtype=complex)
    dz[..., 2 * points, points] = 1j * z
    dw = np.zeros((2 * n - 1, n))
    dw[2 * points[:-1] + 1, points[:-1]] = 1.0
    dw[2 * points[:-1] + 1, -1] = -1.0
    # the (..., n) arrays, broadcast along the directions
    zd, wd, wzd = z[..., None, :], weights[..., None, :], wz[..., None, :]
    dwz = dw * zd + wd * dz
    dp = np.zeros_like(dz)
    dq = np.zeros_like(dz)
    alphas = [np.empty(z.shape[:-1] + (0,), dtype=complex)]
    dalphas = []
    for p, q, zp, mod2, norm2, ak in _szego_steps(z, weights, n):
        pd, qd = p[..., None, :], q[..., None, :]
        qc = qd.conj()
        dnorm2 = (dw * mod2[..., None, :] + 2.0 * wd * (pd.conj() * dp).real).sum(axis=-1)
        dinner = (dwz * pd * qc + wzd * dp * qc + wzd * pd * dq.conj()).sum(axis=-1)
        dak = (dinner.conj() - ak * dnorm2) / norm2
        alphas.append(ak)
        dalphas.append(dak)
        dzp = dz * pd + zd * dp
        akd = ak[..., None]
        dp = dzp - dak.conj()[..., None] * qd - akd.conj() * dq
        dq = dq - dak[..., None] * zp[..., None, :] - akd * dzp
    return np.concatenate(alphas, axis=-1), np.stack(dalphas, axis=-2)


def verblunsky_from_measure(mu: SpectralMeasureCircle) -> VerblunskySet:
    """Recover the full coefficient set of an n-point circle measure, or the
    stack of sets of a stack of measures.

    The final coefficient is renormalized onto the unit circle; if the
    recursion returns it further than 1e-6 from the circle the
    computation is considered lost and IllConditioned is raised.
    """
    return VerblunskySet(_on_the_circle(szego_coefficients(mu, mu.n)))


def verblunsky_rows(theta: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """verblunsky_from_measure(...).alpha, bit for bit, for the measures with
    canonical angles theta (n,) and weight rows weights (T, n), as a (T, n)
    array from one szego_rows pass, each boundary put on the circle by
    core.renormalize_boundary (a fixed point, so VerblunskySet keeps it).
    Canonical is as a SpectralMeasureCircle stores them, such as a
    measure's theta and its propagated_weights rows.  The rows are not
    validated; a Trajectory of them is."""
    return _on_the_circle(szego_rows(theta, weights, theta.size))


def _on_the_circle(alphas: np.ndarray) -> np.ndarray:
    """Coefficient rows (..., n) of full Szego runs, each last coefficient
    moved onto the circle in place by renormalize_boundary, unless one lay
    too far from it."""
    mods = np.hypot(alphas[..., -1].real, alphas[..., -1].imag)
    off = np.abs(mods - 1.0)
    if off.max(initial=0.0) > BOUNDARY_RECOVERY_TOL:
        raise IllConditioned(f"recovered boundary modulus {mods.flat[off.argmax()]:.17g} is too far from 1")
    return renormalize_boundary(alphas)


def geronimus(v: VerblunskySet) -> JacobiMatrix:
    """Jacobi matrix of the pushed-forward measure of a symmetric circle measure.

    Input: 2n real coefficients with alpha_{2n-1} = -1 (the boundary
    convention also sets alpha_{-1} = -1, so terms multiplied by
    1 + alpha_{-1} drop out).  Output entries:
        b_{k+1} = (1 - alpha_{2k-1}) alpha_{2k} - (1 + alpha_{2k-1}) alpha_{2k-2}
        a_{k+1} = sqrt((1 - alpha_{2k-1})(1 - alpha_{2k}^2)(1 + alpha_{2k+1}))
    for 0 <= k <= n-1, with a_n dropped because its last factor vanishes.
    """
    if v.n % 2 != 0:
        raise InvalidBoundary(f"need an even number of coefficients, got {v.n}")
    if np.abs(v.alpha.imag).max() > 1e-12:
        raise InvalidBoundary("coefficients must be real")
    al = v.alpha.real
    if abs(al[-1] + 1.0) > 1e-12:
        raise InvalidBoundary(f"last coefficient must be -1, got {al[-1]:.17g}")
    return build_jacobi(*geronimus_entries(al))


def geronimus_entries(al) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi entries (b, a) of the Geronimus relations for real (..., 2n) coefficients.

    The array core of geronimus, without its checks: the last coefficient
    is taken to be -1 and is never read, and a is positive exactly when
    every other coefficient lies strictly inside (-1, 1).  Returns b of
    shape (..., n) and a of shape (..., n - 1).
    """
    al = np.asarray(al, dtype=float)
    even, odd = al[..., 0::2], al[..., 1::2]
    # alpha_{2k-1} for k = 0..n-1, with the boundary convention alpha_{-1} = -1
    prev_odd = np.concatenate([np.full(al.shape[:-1] + (1,), -1.0), odd[..., :-1]], axis=-1)
    b = (1.0 - prev_odd) * even
    b[..., 1:] -= (1.0 + prev_odd[..., 1:]) * even[..., :-1]
    a = np.sqrt((1.0 - prev_odd[..., :-1]) * (1.0 - even[..., :-1] ** 2) * (1.0 + odd[..., :-1]))
    return b, a


def szego_project(mu: SpectralMeasureCircle) -> SpectralMeasureLine:
    """Push a conjugation-symmetric circle measure forward under z + 1/z.

    Each conjugate pair {theta, -theta} maps to x = 2 cos(theta) carrying
    the combined weight.  Support at angle 0 or pi (within 1e-8) is
    rejected because the pair collapses there.
    """
    theta = mu.theta
    if np.any(np.abs(theta) < AXIS_TOL) or np.any(np.pi - np.abs(theta) < AXIS_TOL):
        raise SupportAtRealAxis("support point within 1e-8 of angle 0 or pi")
    pos = np.flatnonzero(theta > 0.0)
    neg = np.flatnonzero(theta < 0.0)
    if pos.size != neg.size:
        raise NotSymmetric("unequal numbers of points in the upper and lower half circle")
    pos = pos[np.argsort(theta[pos])]
    neg = neg[np.argsort(-theta[neg])]
    mismatch = np.abs(theta[pos] + theta[neg])
    if mismatch.size and mismatch.max() > PAIR_TOL:
        raise NotSymmetric(f"conjugate pair mismatch {mismatch.max():.3e} exceeds {PAIR_TOL:g}")
    half_angle = 0.5 * (theta[pos] - theta[neg])
    x = 2.0 * np.cos(half_angle)
    w = mu.weights[pos] + mu.weights[neg]
    return SpectralMeasureLine(x, w)
