"""Spectral transforms for orthogonal polynomials on the unit circle.

Forward direction: eigensolve a CMV or Jacobi matrix and read off the
spectral measure attached to the first coordinate vector.  When only the
eigenvalue angles of a unitary matrix are needed (ensemble draws, flow
diagnostics), unitary_angles gets them from a Hermitian eigensolver
through a rotated Cayley transform instead of a general complex one.
Inverse direction: run the Szego recursion on a finitely supported
circle measure to recover the Verblunsky coefficients.  szego_rows runs
it on a (T, n) stack of weight vectors on one support at once, as a
spectral flow needs at its T grid times; szego_coefficients and
verblunsky_from_measure are its one-row views.  The circle and the
interval [-2, 2] are connected by the pushforward of z + 1/z and, on the
coefficient side, by the Geronimus relations.

All functions are pure maps of immutable inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .core import (
    TWO_PI,
    CMVMatrix,
    JacobiMatrix,
    SpectralMeasureCircle,
    SpectralMeasureLine,
    VerblunskySet,
    build_jacobi,
    circular_gaps,
    principal_angle,
)
from .errors import IllConditioned, InvalidBoundary, NotSymmetric, OutOfRange, SupportAtRealAxis, SupportTooSmall

NORM_FLOOR = 1e-13          # squared-norm floor for the Szego recursion
BOUNDARY_RECOVERY_TOL = 1e-6  # how far the recovered boundary coefficient may sit off the circle
AXIS_TOL = 1e-8             # support this close to angle 0 or pi blocks the circle->interval map
PAIR_TOL = 1e-10            # conjugate pairs must match within this angular tolerance
POLE_LIMIT = 64.0           # a Cayley pass with max|eig H| above this is redone with the pole in a gap
GAP_TRUST = 1e8             # above this max|eig H|, a pass's angles are too coarse to locate a gap
ANGLE_BLOCK = 4096          # complex entries per block of a stacked unitary_angles call


def unitary_eigensystem(C: CMVMatrix) -> SpectralMeasureCircle:
    """Spectral measure of a CMV matrix and the vector e_1.

    Uses a complex Schur decomposition, which for a unitary (normal)
    matrix yields an orthonormal eigenbasis; the weights are the squared
    overlaps of the eigenvectors with e_1, renormalized to sum 1.
    Eigenvector phases are irrelevant because only squared moduli enter.
    """
    t, q = scipy.linalg.schur(np.asarray(C.entries), output="complex")
    lam = np.diag(t)
    theta = np.angle(lam)
    weights = np.abs(q[0, :]) ** 2
    return SpectralMeasureCircle(theta, weights)


def unitary_angles(U, phi: float = 0.0) -> np.ndarray:
    """Sorted eigenvalue angles in (-pi, pi] of a unitary matrix or (..., n, n) stack.

    Eigendecomposes the Hermitian Cayley transform of the rotated matrix
    R = e^{-i phi} U,
        H = i (I - R)(I + R)^{-1} = i (2 (I + R)^{-1} - I),
    whose eigenvalues lambda give the angles phi + 2 arctan(lambda).  The
    error grows with max|lambda|, that is as an eigenvalue nears the pole
    -e^{i phi}.  A matrix with max|lambda| > 64 is redone once with the
    pole in the middle of the largest gap of its first-pass angles, where
    max|lambda| <= cot(pi / 2n).  A first pass too coarse to locate that
    gap (max|lambda| > 1e8, or I + R exactly singular) is redone instead at
    the best of n evenly spaced further poles; with the first one they are
    n + 1 poles, so one of them lies pi / (n + 1) from every eigenvalue.
    Stacks are processed in blocks of about 4096 entries, and each
    matrix's angles do not depend on the rest of the stack.
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim < 2 or U.shape[-1] != U.shape[-2] or U.shape[-1] < 1:
        raise OutOfRange(f"expected a nonempty square matrix or stack, got shape {U.shape}")
    n = U.shape[-1]
    stack = U.reshape(-1, n, n)
    out = np.empty(stack.shape[:2])
    per = max(ANGLE_BLOCK // (n * n), 1)
    for s in range(0, stack.shape[0], per):
        out[s : s + per] = _block_angles(stack[s : s + per], float(phi))
    return out.reshape(U.shape[:-1])


def gap_rotation(theta) -> np.ndarray:
    """The phi that puts the Cayley pole -e^{i phi} of unitary_angles in the
    middle of the largest circular gap of sorted angles theta (..., n)."""
    t = np.asarray(theta, dtype=float)
    gaps = circular_gaps(t)
    k = np.argmax(gaps, axis=-1)[..., None]
    return np.take_along_axis(t + 0.5 * gaps, k, axis=-1)[..., 0] - np.pi


def _block_angles(U: np.ndarray, phi: float) -> np.ndarray:
    n = U.shape[-1]
    theta, lam_max = _cayley_pass(U, np.full(U.shape[0], phi))
    fine = np.flatnonzero((lam_max > POLE_LIMIT) & (lam_max <= GAP_TRUST))
    if fine.size:
        theta[fine] = _cayley_pass(U[fine], gap_rotation(theta[fine]))[0]
    for i in np.flatnonzero(lam_max > GAP_TRUST):
        poles = phi + TWO_PI * np.arange(1, n + 1) / (n + 1)
        sweep, sweep_max = _cayley_pass(np.broadcast_to(U[i], (n, n, n)), poles)
        theta[i] = sweep[np.argmin(sweep_max)]
    return theta


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


def jacobi_eigensystem(J: JacobiMatrix) -> SpectralMeasureLine:
    """Spectral measure of a Jacobi matrix and the vector e_1."""
    if J.n == 1:
        return SpectralMeasureLine(J.b.copy(), np.array([1.0]))
    lam, vec = scipy.linalg.eigh_tridiagonal(J.b, J.a)
    return SpectralMeasureLine(lam, vec[0, :] ** 2)


def szego_coefficients(mu: SpectralMeasureCircle, count: int) -> np.ndarray:
    """First `count` Verblunsky coefficients of the measure; szego_rows on
    its one row of weights."""
    return szego_rows(mu.theta, mu.weights, count)


def szego_rows(theta: np.ndarray, weights: np.ndarray, count: int) -> np.ndarray:
    """First `count` Verblunsky coefficients of each of the measures with
    canonical angles theta (n,) and weight rows weights (..., n).

    Runs the Szego recursion on point values, all rows at once:
        p_{k+1} = z p_k - conj(a_k) q_k,   q_{k+1} = q_k - a_k z p_k,
    where p_k, q_k are the monic polynomial and its reversal evaluated on
    the support, and a_k is fixed by orthogonality,
    conj(a_k) = <z p_k, q_k> / ||p_k||^2.  Returns a (..., count) array
    whose rows do not depend on each other.  Raises IllConditioned when an
    intermediate squared norm of any row falls below 1e-13.
    """
    n = theta.size
    if count > n:
        raise SupportTooSmall(f"cannot produce {count} coefficients from {n} support points")
    z = np.exp(1j * theta)
    wz = weights * z
    p = np.ones(weights.shape, dtype=complex)
    q = np.ones(weights.shape, dtype=complex)
    alphas = [np.empty(weights.shape[:-1] + (0,), dtype=complex)]
    for k in range(count):
        norm2 = (weights * (p.real * p.real + p.imag * p.imag)).sum(axis=-1, keepdims=True)
        if norm2.min(initial=np.inf) < NORM_FLOOR:
            raise IllConditioned(f"||Phi_{k}||^2 = {norm2.min():.3e} below {NORM_FLOOR:g}")
        ak = (wz * p * q.conj()).sum(axis=-1, keepdims=True).conj() / norm2
        alphas.append(ak)
        zp = z * p
        p = zp - ak.conj() * q
        q = q - ak * zp
    return np.concatenate(alphas, axis=-1)


def szego_tangents(theta: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All n Verblunsky coefficients of the measure with canonical angles
    theta (n,) and weights (n,), and their derivatives along the 2n - 1
    chart directions (theta_1, mu_1, ..., theta_{n-1}, mu_{n-1}, theta_n),
    where a step in mu_j adds to weight j and takes as much from weight n.

    Forward-mode szego_rows: next to p_k and q_k it carries their
    tangents along every direction, differentiating
        conj(a_k) = <z p_k, q_k> / ||p_k||^2
    by the quotient rule.  Returns alpha (n,), from the expressions of
    szego_rows and so equal to szego_coefficients bit for bit, and
    dalpha (n, 2n - 1), entry [k, d] the derivative of alpha_k along
    direction d.  Raises IllConditioned as szego_rows does.
    """
    n = theta.size
    z = np.exp(1j * theta)
    wz = weights * z
    points = np.arange(n)
    dz = np.zeros((2 * n - 1, n), dtype=complex)
    dz[2 * points, points] = 1j * z
    dw = np.zeros((2 * n - 1, n))
    dw[2 * points[:-1] + 1, points[:-1]] = 1.0
    dw[2 * points[:-1] + 1, -1] = -1.0
    dwz = dw * z + weights * dz
    p = np.ones(weights.shape, dtype=complex)
    q = np.ones(weights.shape, dtype=complex)
    dp = np.zeros_like(dz)
    dq = np.zeros_like(dz)
    alphas = [np.empty(0, dtype=complex)]
    dalphas = []
    for k in range(n):
        norm2 = (weights * (p.real * p.real + p.imag * p.imag)).sum(axis=-1, keepdims=True)
        if norm2.min(initial=np.inf) < NORM_FLOOR:
            raise IllConditioned(f"||Phi_{k}||^2 = {norm2.min():.3e} below {NORM_FLOOR:g}")
        ak = (wz * p * q.conj()).sum(axis=-1, keepdims=True).conj() / norm2
        dnorm2 = (dw * (p.real * p.real + p.imag * p.imag) + 2.0 * weights * (p.conj() * dp).real).sum(axis=-1)
        dinner = (dwz * p * q.conj() + wz * dp * q.conj() + wz * p * dq.conj()).sum(axis=-1)
        dak = (dinner.conj() - ak * dnorm2) / norm2
        alphas.append(ak)
        dalphas.append(dak)
        zp = z * p
        dzp = dz * p + z * dp
        p = zp - ak.conj() * q
        dp = dzp - dak.conj()[:, None] * q - ak.conj() * dq
        q = q - ak * zp
        dq = dq - dak[:, None] * zp - ak * dzp
    return np.concatenate(alphas), np.stack(dalphas)


def verblunsky_from_measure(mu: SpectralMeasureCircle) -> VerblunskySet:
    """Recover the full coefficient set of an n-point circle measure.

    The final coefficient is renormalized onto the unit circle; if the
    recursion returns it further than 1e-6 from the circle the
    computation is considered lost and IllConditioned is raised.
    """
    return _on_the_circle(szego_coefficients(mu, mu.n))


def verblunsky_rows(theta: np.ndarray, weights: np.ndarray) -> list[VerblunskySet]:
    """verblunsky_from_measure for the measures with canonical angles theta
    (n,) and weight rows weights (T, n), from one szego_rows pass."""
    return [_on_the_circle(alphas) for alphas in szego_rows(theta, weights, theta.size)]


def _on_the_circle(alphas: np.ndarray) -> VerblunskySet:
    """The coefficient set of a full Szego run, its last coefficient moved
    onto the circle (in place)."""
    last = abs(alphas[-1])
    if abs(last - 1.0) > BOUNDARY_RECOVERY_TOL:
        raise IllConditioned(f"recovered boundary modulus {last:.17g} is too far from 1")
    alphas[-1] /= last
    return VerblunskySet(alphas)


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
