"""Identity verification suites behind `cmv verify`.

Each suite sweeps seeded random probe points, evaluates a family of
bracket/Jacobian identities numerically, and reports the worst residual
against its tolerance.  One table, `_SUITES`, gives each suite its probe
draw (a probe record, in the serialize schemas), its per-probe residual
function (evaluated on the probe that record loads) and its (identity,
tolerance) list, and `run_suite` runs the one trial loop over it; a
comment at each entry lists the suite's identities.  Suites return a
plain dict ready for JSON.  A suite needs at least one trial and
n >= MIN_N[suite].

No probe is redrawn: canonical, cotangent and jacobian draw a stratified
measure (`random_measure`), the first two through the Szego recursion to
its coefficients, and brackets draws coefficients in a disk.

The per-probe residual functions (`brackets_residuals`,
`canonical_residuals`, `cotangent_residual`, `jacobian_residual`) read
their defects from one bracket matrix of exact gradients, or one exact
Jacobian, per probe.  Each identity records the trial and the probe
(coefficients or measure, in the serialize schemas) of its worst
residual, so that probe alone reproduces `max_residual` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .brackets import (
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
from .serialize import circle_measure_from_obj, circle_measure_to_obj, verblunsky_from_obj, verblunsky_to_obj

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


def _rank(residual: float) -> float:
    return np.inf if np.isnan(residual) else residual


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


def brackets_residuals(v: VerblunskySet) -> tuple[float, float, float]:
    """Worst defects at one probe of the coefficient bracket reconstruction,
    of antisymmetry, and of the trace Hamiltonians' involution.

    One bracket matrix covers every interior coordinate (rows 2j, 2j+1
    are u_j, v_j, whose gradients are the unit rows) and Re/Im K_m for
    m = 1..3.  The reconstruction and antisymmetry defects are 0 exactly,
    from the unit rows and since `bracket_matrix` is antisymmetric by
    construction; they guard that assembly and its rho^2 weights only.
    """
    d = 2 * (v.n - 1)
    ham = hamiltonian_gradients(v, HAMILTONIAN_DEGREES)
    rows = np.vstack([np.eye(d), np.stack([ham.real, ham.imag], axis=1).reshape(-1, d)])
    B = bracket_matrix(rows, v)
    # [k, l] entries: {u_k, u_l}, {u_k, v_l}, {v_k, u_l}, {v_k, v_l}
    uu, uv = B[0:d:2, 0:d:2], B[0:d:2, 1:d:2]
    vu, vv = B[1:d:2, 0:d:2], B[1:d:2, 1:d:2]
    # {a_k, conj(a_l)} = {u_k,u_l} + {v_k,v_l} + i({v_k,u_l} - {u_k,v_l}) = -2i delta_kl rho_k^2
    same = np.hypot(uu + vv, (vu - uv) + np.diag(2.0 * v.rho**2))
    # {a_k, a_l} = {u_k,u_l} - {v_k,v_l} + i({u_k,v_l} + {v_k,u_l}) = 0
    cross = np.hypot(uu - vv, uv + vu)
    worst_pair = np.maximum(same.max(), cross.max())
    worst_anti = np.abs(uv + vu.T).max()
    # {K_m parts, Re K_l}: rows Re/Im K_1..K_3, columns Re K_1..K_3
    worst_ham = np.abs(B[d:, d::2]).max()
    return float(worst_pair), float(worst_anti), float(worst_ham)


def canonical_residuals(v: VerblunskySet) -> tuple[float, float]:
    """Worst defects at one probe of {theta_j, theta_k} = 0 and of the
    pairing matrix {theta_l, (1/2) log(mu_j / mu_n)} = identity.

    One bracket matrix covers theta_0..theta_{n-1} (rows 0..n-1) and
    log(mu_j / mu_{n-1}), j < n-1 (rows n..2n-2), all from one
    eigensolve and one Jacobian solve.
    """
    n = v.n
    _, dtheta, dlog = spectral_gradients(v)
    B = bracket_matrix(np.vstack([dtheta, dlog[: n - 1] - dlog[n - 1]]), v)
    worst_theta = np.abs(B[:n, :n][np.triu_indices(n, 1)]).max()
    pairing = 0.5 * B[: n - 1, n:]
    return float(worst_theta), float(np.abs(pairing - np.eye(n - 1)).max())


def random_measure(n: int, gen) -> SpectralMeasureCircle:
    """Stratified probe measure, drawn from a fixed 2n + 1 variates.

    One angle per arc of 2 pi / n, each jittered by up to a quarter arc
    (pi / (2n)) and all rotated by one uniform angle, so every circular
    gap is at least pi / n; weights log-uniform on [W_LO, 1], normalized.
    """
    arcs = np.arange(n) + 0.5 + gen.uniform(-0.25, 0.25, n)
    theta = gen.uniform(-np.pi, np.pi) + arcs * (2.0 * np.pi / n)
    weights = W_LO ** gen.random(n)
    return SpectralMeasureCircle(theta, weights / weights.sum())


def jacobian_residual(mu: SpectralMeasureCircle) -> float:
    """Relative defect of the exact spectral Jacobian against its closed
    form at one measure."""
    numeric = spectral_to_verblunsky_jacobian(mu)
    predicted = jacobian_prediction(mu)
    return abs(numeric - predicted) / max(abs(predicted), 1e-12)


def _spectral_coefficients(n: int, gen) -> dict:
    """Record of the coefficients of a random_measure probe, through the
    Szego recursion."""
    return verblunsky_to_obj(verblunsky_from_measure(random_measure(n, gen)))


# suite -> (draw(n, gen) -> probe record, residuals(probe record), [(identity, tolerance)]).
# Residuals read the probe the record loads, so the record reproduces them bit
# for bit.  The lambdas look the package functions up at call time.
_SUITES = {
    # Coefficient brackets and the involution of the trace Hamiltonians:
    #   * the complex reconstruction {alpha_k, conj(alpha_l)} = -2i delta_kl rho_k^2
    #     and {alpha_k, alpha_l} = 0 from the four real coordinate brackets;
    #   * antisymmetry of the numeric bracket (0 by construction);
    #   * {Re K_m, Re K_l} = 0 and {Im K_m, Re K_l} = 0 for m, l <= 3.
    "brackets": (
        lambda n, gen: verblunsky_to_obj(random_verblunsky(n, gen, radius=0.65)),
        lambda probe: brackets_residuals(verblunsky_from_obj(probe)),
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
        lambda n, gen: _spectral_coefficients(n, gen),
        lambda probe: canonical_residuals(verblunsky_from_obj(probe)),
        [("eigenvalue angles commute", THETA_COMMUTE_TOL), ("canonical pairing matrix", CANONICAL_TOL)],
    ),
    # Mass-ratio bracket against the cotangent sum on well separated spectra.
    "cotangent": (
        # the labels are drawn after the measure
        lambda n, gen: dict(_spectral_coefficients(n, gen), labels=gen.permutation(n)[:3].tolist()),
        lambda probe: (abs(cotangent_residual(verblunsky_from_obj(probe), tuple(probe["labels"]))),),
        [("cotangent identity", COTANGENT_TOL)],
    ),
    # Exact spectral-to-coefficient Jacobian against its closed form.
    "jacobian": (
        lambda n, gen: circle_measure_to_obj(random_measure(n, gen)),
        lambda probe: (jacobian_residual(circle_measure_from_obj(probe)),),
        [("spectral jacobian determinant", JACOBIAN_TOL)],
    ),
}


def run_suite(suite: str, n: int, trials: int, seed: int) -> dict:
    """Run one suite: `trials` seeded probes and the worst residual of each
    identity.  A NaN residual ranks as the worst, so it fails.

    Rejects an unknown suite, a size below MIN_N[suite] or fewer than one
    trial before anything is drawn.
    """
    if suite not in _SUITES:
        raise InvalidParams(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if n < MIN_N[suite]:
        raise InvalidParams(f"{suite} suite needs n >= {MIN_N[suite]}, got {n}")
    if trials < 1:
        raise InvalidParams(f"need at least one trial, got {trials}")
    draw, residuals, identities = _SUITES[suite]
    gen = RngStream(seed).generator()
    worst = [None] * len(identities)
    for trial in range(trials):
        probe = draw(n, gen)
        for index, residual in enumerate(residuals(probe)):
            if worst[index] is None or _rank(residual) > _rank(worst[index][0]):
                worst[index] = (residual, trial, probe)
    results = [_result(name, item, tol) for (name, tol), item in zip(identities, worst)]
    return {
        "suite": suite,
        "n": n,
        "trials": trials,
        "seed": seed,
        "identities": results,
        "pass": all(item["pass"] for item in results),
    }
