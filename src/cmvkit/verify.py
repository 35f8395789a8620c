"""Identity verification suites behind `cmv verify`.

Each suite sweeps seeded random probe points, evaluates a family of
bracket/Jacobian identities numerically, and reports the worst residual
against its tolerance.  One table, `_SUITES`, gives each suite its probe
draw (a stack of probes), its residual function (evaluated on that
stack), the JSON record of one probe of the stack (in the serialize
schemas) and its (identity, tolerance) list; a comment at each entry
lists the suite's identities.  `run_suite` draws the probes in trial
order, with the generator calls of one probe at a time, and evaluates
them in blocks of about SUITE_BLOCK entries: each block is one stack of
coefficient sets or measures, so one batched CMV build, eig, Szego
tangent pass, solve and determinant serve all its probes.  Suites
return a plain dict ready for JSON.  A suite needs at least one trial and
n >= MIN_N[suite].

No probe is redrawn: canonical, cotangent and jacobian draw a stratified
measure (`random_measure`), the first two through the Szego recursion to
its coefficients, and brackets draws coefficients in a disk.

The residual functions (`brackets_residuals`, `canonical_residuals`,
`brackets.cotangent_residual`, `jacobian_residual`) take one probe or a
stack of them, and read their defects from one bracket matrix of exact
gradients, or one exact Jacobian, per probe; no probe of a stack depends
on another.  Each identity records the trial and the probe (coefficients
or measure) of its worst residual; only those probes get a record, built
from their rows of the stack.  Both value types are fixed points of their
fields, so a record loads as the probe that was evaluated, and that probe
alone reproduces `max_residual` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .brackets import (
    _value,
    bracket_matrix,
    cotangent_residual,
    hamiltonian_gradients,
    jacobian_prediction,
    spectral_gradients,
    spectral_to_verblunsky_jacobian,
)
from .core import SpectralMeasureCircle, VerblunskySet
from .ensembles import RngStream, random_verblunsky
from .errors import InvalidParams
from .opuc import verblunsky_from_measure
from .serialize import circle_measure_to_obj, verblunsky_to_obj

SUITES = ("brackets", "canonical", "cotangent", "jacobian")
# smallest n each suite can evaluate: brackets and canonical need an
# interior coordinate, the cotangent identity three eigenvalues
MIN_N = {"brackets": 2, "canonical": 2, "cotangent": 3, "jacobian": 1}

BRACKET_TOL = 1e-6
CANONICAL_TOL = 1e-5
THETA_COMMUTE_TOL = 1e-6
COTANGENT_TOL = 1e-5
JACOBIAN_TOL = 1e-6

HAMILTONIAN_DEGREES = (1, 2, 3)

W_LO = 1e-2  # smallest weight of a random_measure probe before normalization
# entries n (2n - 1) of a probe's tangent arrays per block of probes, at
# least one probe: stacks of small probes share their numpy calls, while
# large ones (n = 64) run faster one at a time
SUITE_BLOCK = 4096


def _rank(residual):
    """Residuals as ranked: NaN above everything, so that it fails."""
    return np.where(np.isnan(residual), np.inf, residual)


def _result(name: str, worst: tuple[float, int, dict], tolerance: float) -> dict:
    """One identity's report entry from its (residual, trial, probe)."""
    residual, trial, probe = worst
    return {
        "name": name,
        "max_residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
        "worst_trial": trial,
        "worst_probe": probe,
    }


def brackets_residuals(v: VerblunskySet) -> tuple:
    """Worst defects at one probe, or at each probe of a stack v (T, n), of
    the coefficient bracket reconstruction, of antisymmetry, and of the
    trace Hamiltonians' involution: floats, or (T,) arrays.

    One bracket matrix per probe covers every interior coordinate (rows
    2j, 2j+1 are u_j, v_j, whose gradients are the unit rows) and Re/Im
    K_m for m = 1..3.  The reconstruction and antisymmetry defects are 0
    exactly, from the unit rows and since `bracket_matrix` is
    antisymmetric by construction; they guard that assembly and its rho^2
    weights only.
    """
    lead, m = v.alpha.shape[:-1], v.n - 1
    d = 2 * m
    ham = hamiltonian_gradients(v, HAMILTONIAN_DEGREES)
    ham_rows = np.stack([ham.real, ham.imag], axis=-2).reshape(lead + (-1, d))
    B = bracket_matrix(np.concatenate([np.broadcast_to(np.eye(d), lead + (d, d)), ham_rows], axis=-2), v)
    # [k, l] entries: {u_k, u_l}, {u_k, v_l}, {v_k, u_l}, {v_k, v_l}
    uu, uv = B[..., 0:d:2, 0:d:2], B[..., 0:d:2, 1:d:2]
    vu, vv = B[..., 1:d:2, 0:d:2], B[..., 1:d:2, 1:d:2]
    diag = np.zeros(lead + (m, m))
    diag[..., np.arange(m), np.arange(m)] = 2.0 * v.rho**2
    # {a_k, conj(a_l)} = {u_k,u_l} + {v_k,v_l} + i({v_k,u_l} - {u_k,v_l}) = -2i delta_kl rho_k^2
    same = np.hypot(uu + vv, (vu - uv) + diag)
    # {a_k, a_l} = {u_k,u_l} - {v_k,v_l} + i({u_k,v_l} + {v_k,u_l}) = 0
    cross = np.hypot(uu - vv, uv + vu)
    worst_pair = np.maximum(same.max(axis=(-2, -1)), cross.max(axis=(-2, -1)))
    worst_anti = np.abs(uv + np.swapaxes(vu, -2, -1)).max(axis=(-2, -1))
    # {K_m parts, Re K_l}: rows Re/Im K_1..K_3, columns Re K_1..K_3
    worst_ham = np.abs(B[..., d:, d::2]).max(axis=(-2, -1))
    return _value(worst_pair), _value(worst_anti), _value(worst_ham)


def canonical_residuals(v: VerblunskySet) -> tuple:
    """Worst defects at one probe, or at each probe of a stack v (T, n), of
    {theta_j, theta_k} = 0 and of the pairing matrix
    {theta_l, (1/2) log(mu_j / mu_n)} = identity: floats, or (T,) arrays.

    One bracket matrix per probe covers theta_0..theta_{n-1} (rows
    0..n-1) and log(mu_j / mu_{n-1}), j < n-1 (rows n..2n-2), all from one
    eigensolve and one Jacobian solve.
    """
    n = v.n
    _, dtheta, dlog = spectral_gradients(v)
    B = bracket_matrix(np.concatenate([dtheta, dlog[..., : n - 1, :] - dlog[..., n - 1 :, :]], axis=-2), v)
    upper = np.triu_indices(n, 1)
    worst_theta = np.abs(B[..., upper[0], upper[1]]).max(axis=-1)
    pairing = 0.5 * B[..., : n - 1, n:]
    return _value(worst_theta), _value(np.abs(pairing - np.eye(n - 1)).max(axis=(-2, -1)))


def _measure_variates(n: int, gen) -> tuple[np.ndarray, np.ndarray]:
    """The angles and normalized weights of one random_measure, from its
    2n + 1 variates."""
    arcs = np.arange(n) + 0.5 + gen.uniform(-0.25, 0.25, n)
    theta = gen.uniform(-np.pi, np.pi) + arcs * (2.0 * np.pi / n)
    weights = W_LO ** gen.random(n)
    return theta, weights / weights.sum()


def random_measure(n: int, gen) -> SpectralMeasureCircle:
    """Stratified probe measure, drawn from a fixed 2n + 1 variates.

    One angle per arc of 2 pi / n, each jittered by up to a quarter arc
    (pi / (2n)) and all rotated by one uniform angle, so every circular
    gap is at least pi / n; weights log-uniform on [W_LO, 1], normalized.
    """
    return SpectralMeasureCircle(*_measure_variates(n, gen))


def jacobian_residual(mu: SpectralMeasureCircle):
    """Relative defect of the exact spectral Jacobian against its closed
    form at one measure, or at each measure of a stack (an array)."""
    numeric = spectral_to_verblunsky_jacobian(mu)
    predicted = jacobian_prediction(mu)
    return _value(np.abs(numeric - predicted) / np.maximum(np.abs(predicted), 1e-12))


def _measure_stack(n: int, gen, count: int, labels: bool = False):
    """`count` random_measure probes as one stack, each row as
    random_measure draws it, and with labels a (count, 3) array of
    eigenvalue labels, each row drawn after its measure (else None)."""
    draws, drawn = [], []
    for _ in range(count):
        draws.append(_measure_variates(n, gen))
        if labels:
            drawn.append(gen.permutation(n)[:3])
    theta, weights = zip(*draws)
    return SpectralMeasureCircle(np.array(theta), np.array(weights)), np.array(drawn) if labels else None


def _labelled_coefficients(n: int, gen, count: int) -> tuple[VerblunskySet, np.ndarray]:
    """The coefficients of `count` labelled random_measure probes, through
    one Szego pass on their stack, and their (count, 3) labels."""
    mu, labels = _measure_stack(n, gen, count, labels=True)
    return verblunsky_from_measure(mu), labels


def _coefficient_record(v: VerblunskySet, t: int) -> dict:
    """The record of row t of a coefficient stack, which loads as that row."""
    return verblunsky_to_obj(VerblunskySet(v.alpha[t]))


# suite -> (draw(n, gen, count) -> a stack of probes, residuals(stack) -> one
# (count,) array per identity, record(stack, t) -> the JSON record of probe
# t, [(identity, tolerance)]).  Both value types are fixed points of their
# fields, so a record loads as the probe it was built from.  The lambdas
# look the package functions up at call time.
_SUITES = {
    # Coefficient brackets and the involution of the trace Hamiltonians:
    #   * the complex reconstruction {alpha_k, conj(alpha_l)} = -2i delta_kl rho_k^2
    #     and {alpha_k, alpha_l} = 0 from the four real coordinate brackets;
    #   * antisymmetry of the numeric bracket (0 by construction);
    #   * {Re K_m, Re K_l} = 0 and {Im K_m, Re K_l} = 0 for m, l <= 3.
    "brackets": (
        lambda n, gen, count: VerblunskySet(
            np.array([random_verblunsky(n, gen, radius=0.65).alpha for _ in range(count)])
        ),
        lambda v: brackets_residuals(v),
        _coefficient_record,
        [
            ("coefficient bracket reconstruction", BRACKET_TOL),
            ("antisymmetry", BRACKET_TOL),
            ("trace hamiltonians in involution", BRACKET_TOL),
        ],
    ),
    # Angle commutation and the canonical pairing with half log mass ratios:
    # {theta_j, theta_k} should vanish and the matrix
    # {theta_l, (1/2) log(mu_j / mu_n)} over j, l < n should be the identity.
    "canonical": (
        lambda n, gen, count: verblunsky_from_measure(_measure_stack(n, gen, count)[0]),
        lambda v: canonical_residuals(v),
        _coefficient_record,
        [("eigenvalue angles commute", THETA_COMMUTE_TOL), ("canonical pairing matrix", CANONICAL_TOL)],
    ),
    # Mass-ratio bracket against the cotangent sum on well separated spectra.
    "cotangent": (
        _labelled_coefficients,
        lambda probes: (np.abs(cotangent_residual(*probes)),),
        lambda probes, t: {**_coefficient_record(probes[0], t), "labels": probes[1][t].tolist()},
        [("cotangent identity", COTANGENT_TOL)],
    ),
    # Exact spectral-to-coefficient Jacobian against its closed form.
    "jacobian": (
        lambda n, gen, count: _measure_stack(n, gen, count)[0],
        lambda mu: (jacobian_residual(mu),),
        lambda mu, t: circle_measure_to_obj(SpectralMeasureCircle(mu.theta[t], mu.weights[t])),
        [("spectral jacobian determinant", JACOBIAN_TOL)],
    ),
}


def run_suite(suite: str, n: int, trials: int, seed: int) -> dict:
    """Run one suite: `trials` seeded probes, drawn in trial order and
    evaluated in blocks, and the worst residual of each identity.  A NaN
    residual ranks as the worst, so it fails; of equal ranks the first
    trial wins.

    Rejects an unknown suite, a size below MIN_N[suite] or fewer than one
    trial before anything is drawn.
    """
    if suite not in _SUITES:
        raise InvalidParams(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if n < MIN_N[suite]:
        raise InvalidParams(f"{suite} suite needs n >= {MIN_N[suite]}, got {n}")
    if trials < 1:
        raise InvalidParams(f"need at least one trial, got {trials}")
    draw, residuals, record, identities = _SUITES[suite]
    gen = RngStream(seed).generator()
    per = max(SUITE_BLOCK // (n * (2 * n - 1)), 1)
    worst = [None] * len(identities)
    for start in range(0, trials, per):
        probes = draw(n, gen, min(per, trials - start))
        block = np.stack(residuals(probes), axis=-1)
        # first occurrence of the worst rank, within the block and across blocks
        for index, row in enumerate(_rank(block).argmax(axis=0)):
            if worst[index] is None or _rank(block[row, index]) > _rank(worst[index][0]):
                worst[index] = (block[row, index], start + int(row), record(probes, row))
    results = [_result(name, item, tol) for (name, tol), item in zip(identities, worst)]
    return {
        "suite": suite,
        "n": n,
        "trials": trials,
        "seed": seed,
        "identities": results,
        "pass": all(item["pass"] for item in results),
    }
