"""Identity verification suites behind `cmv verify`.

Each suite sweeps seeded random probe points, evaluates a family of
bracket/Jacobian identities numerically, and reports the worst residual
against its tolerance.  One table, `_SUITES`, gives each suite its probe
draw, its per-probe residual function and its (identity, tolerance)
list, and `run_suite` runs the one trial loop over it; the `suite_*`
functions only fix each suite's default size and trial count.  Suites
return a plain dict ready for JSON.  A suite needs at least one trial
and n >= MIN_N[suite], and an identity that no trial evaluated (every
probe skipped near a branch cut) fails rather than passing with
residual 0.

The per-probe residual functions (`brackets_residuals`,
`canonical_residuals`, `cotangent_residual`, `jacobian_residual`) read
their defects from one bracket matrix, or one Jacobian, per probe.  Each
identity records the trial and the probe (coefficients or measure, in
the serialize schemas) of its worst residual, so that probe alone
reproduces `max_residual` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .brackets import (
    bracket_matrix,
    cotangent_residual,
    interior_coordinates,
    jacobian_prediction,
    spectral_observables,
    spectral_to_verblunsky_jacobian,
    trace_hamiltonians,
)
from .core import SpectralMeasureCircle, VerblunskySet
from .ensembles import RngStream, random_verblunsky
from .errors import BranchProximity, InvalidParams
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


def probe_separation(gap: float, n: int) -> float:
    """Minimum eigenvalue-angle gap asked of a probe: `gap`, or pi/n (half
    the mean spacing) once n gaps of that size become rare draws."""
    return min(gap, np.pi / n)


def _rank(residual: float) -> float:
    return np.inf if np.isnan(residual) else residual


class _Worst:
    """Running maximum of one identity's residual, with the trial and probe
    that produced it.  A NaN residual ranks as the worst, so it fails."""

    def __init__(self):
        self.residual = 0.0
        self.trial = None
        self.probe = None

    def update(self, residual: float, trial: int, probe: dict) -> None:
        if self.trial is None or _rank(residual) > _rank(self.residual):
            self.residual, self.trial, self.probe = residual, trial, probe


def _result(name: str, worst: _Worst, tolerance: float) -> dict:
    """One identity's report entry; an identity no trial evaluated fails."""
    return {
        "name": name,
        "max_residual": float(worst.residual),
        "tolerance": float(tolerance),
        "pass": bool(worst.trial is not None and worst.residual <= tolerance),
        "worst_trial": worst.trial,
        "worst_probe": worst.probe,
    }


def brackets_residuals(v: VerblunskySet) -> tuple[float, float, float]:
    """Worst defects at one probe of the coefficient bracket reconstruction,
    of antisymmetry, and of the trace Hamiltonians' involution.

    One bracket matrix covers every interior coordinate (rows 2j, 2j+1
    are u_j, v_j) and Re/Im K_m for m = 1..3 (one CMV matrix per stencil
    point).  The antisymmetry defect is 0 exactly, since `bracket_matrix`
    is antisymmetric by construction; it guards that assembly only.
    """
    d = 2 * (v.n - 1)

    def values(w):
        return np.concatenate([interior_coordinates(w), trace_hamiltonians(w, HAMILTONIAN_DEGREES)])

    names = [f"{p}_{j}" for j in range(v.n - 1) for p in "uv"]
    names += [f"{p} K_{m}" for m in HAMILTONIAN_DEGREES for p in ("Re", "Im")]
    B = bracket_matrix(values, v, names=names)[0]
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


def suite_brackets(n: int = 4, trials: int = 20, seed: int = 0) -> dict:
    """Coefficient brackets and the involution of the trace Hamiltonians.

    Checks, at random probe points:
      * the complex reconstruction {alpha_k, conj(alpha_l)} = -2i delta_kl rho_k^2
        and {alpha_k, alpha_l} = 0 from the four real coordinate brackets;
      * antisymmetry of the numeric bracket (0 by construction);
      * {Re K_m, Re K_l} = 0 and {Im K_m, Re K_l} = 0 for m, l <= 3.
    """
    return run_suite("brackets", n, trials, seed)


def canonical_residuals(v: VerblunskySet) -> tuple[float, float]:
    """Worst defects at one probe of {theta_j, theta_k} = 0 and of the
    pairing matrix {theta_l, (1/2) log(mu_j / mu_n)} = identity.

    One bracket matrix covers theta_0..theta_{n-1} (rows 0..n-1) and
    log(mu_j / mu_{n-1}), j < n-1 (rows n..2n-2), all from one eigensolve
    per stencil point.
    """
    n = v.n
    obs = spectral_observables(v)

    def values(w):
        theta, weights = obs.values(w)
        return np.concatenate([theta, np.log(weights[: n - 1] / weights[n - 1])])

    names = [f"theta_{j}" for j in range(n)] + [f"log(mu_{j}/mu_{n - 1})" for j in range(n - 1)]
    B = bracket_matrix(values, v, names=names)[0]
    worst_theta = np.abs(B[:n, :n][np.triu_indices(n, 1)]).max()
    pairing = 0.5 * B[: n - 1, n:]
    return float(worst_theta), float(np.abs(pairing - np.eye(n - 1)).max())


def suite_canonical(n: int = 4, trials: int = 10, seed: int = 0) -> dict:
    """Angle commutation and the canonical pairing with half log mass ratios.

    {theta_j, theta_k} should vanish and the matrix
    {theta_l, (1/2) log(mu_j / mu_n)} over j, l < n should be the identity.
    """
    return run_suite("canonical", n, trials, seed)


def suite_cotangent(n: int = 4, trials: int = 25, seed: int = 0) -> dict:
    """Mass-ratio bracket against the cotangent sum on well separated spectra."""
    return run_suite("cotangent", n, trials, seed)


def random_measure(n: int, gen, margin: float | None = None) -> SpectralMeasureCircle:
    """Measure with comfortable angle separations, weights, and branch margins.

    The angles keep `margin` from -pi and pi and from each other; the
    default min(0.35, pi/(2n)) is the fixed 0.35 up to n = 4 and shrinks
    with n, so that n well separated angles still fit on the circle.
    """
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


def jacobian_residual(mu: SpectralMeasureCircle) -> float:
    """Relative defect of the numeric spectral Jacobian against its closed
    form at one measure; raises BranchProximity near the phase cut."""
    numeric = spectral_to_verblunsky_jacobian(mu)
    predicted = jacobian_prediction(mu)
    return abs(numeric - predicted) / max(abs(predicted), 1e-12)


def suite_jacobian(n: int = 3, trials: int = 25, seed: int = 0) -> dict:
    """Numeric spectral-to-coefficient Jacobian against its closed form."""
    return run_suite("jacobian", n, trials, seed)


def _coefficients(n: int, gen, radius: float, gap: float | None = None):
    """A coefficient probe and its record; with `gap`, its eigenvalue
    angles are at least probe_separation(gap, n) apart."""
    separation = None if gap is None else probe_separation(gap, n)
    v = random_verblunsky(n, gen, radius=radius, min_separation=separation)
    return v, verblunsky_to_obj(v)


def _labelled_coefficients(n: int, gen):
    v, record = _coefficients(n, gen, 0.55, 0.5)
    labels = tuple(gen.permutation(n)[:3].tolist())
    return (v, labels), dict(record, labels=list(labels))


def _measure(n: int, gen):
    mu = random_measure(n, gen)
    return mu, circle_measure_to_obj(mu)


# suite -> (draw(n, gen) -> (probe, probe record), residuals(probe), [(identity, tolerance)]).
# The lambdas look the package functions up at call time.
_SUITES = {
    "brackets": (
        lambda n, gen: _coefficients(n, gen, 0.65),
        lambda v: brackets_residuals(v),
        [
            ("coefficient bracket reconstruction", BRACKET_TOL),
            ("antisymmetry", BRACKET_TOL),
            ("trace hamiltonians in involution", BRACKET_TOL),
        ],
    ),
    "canonical": (
        lambda n, gen: _coefficients(n, gen, 0.6, 0.35),
        lambda v: canonical_residuals(v),
        [("eigenvalue angles commute", THETA_COMMUTE_TOL), ("canonical pairing matrix", CANONICAL_TOL)],
    ),
    "cotangent": (
        _labelled_coefficients,
        lambda probe: (abs(cotangent_residual(*probe)),),
        [("cotangent identity", COTANGENT_TOL)],
    ),
    "jacobian": (
        _measure,
        lambda mu: (jacobian_residual(mu),),
        [("spectral jacobian determinant", JACOBIAN_TOL)],
    ),
}


def run_suite(suite: str, n: int, trials: int, seed: int) -> dict:
    """Run one suite: `trials` seeded probes, the worst residual of each
    identity, and the trials skipped near a branch cut (BranchProximity).

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
    worst = [_Worst() for _ in identities]
    skipped = 0
    for trial in range(trials):
        probe, record = draw(n, gen)
        try:
            values = residuals(probe)
        except BranchProximity:
            skipped += 1
            continue
        for tracker, residual in zip(worst, values):
            tracker.update(residual, trial, record)
    results = [_result(name, tracker, tol) for (name, tol), tracker in zip(identities, worst)]
    return {
        "suite": suite,
        "n": n,
        "trials": trials,
        "skipped": skipped,
        "seed": seed,
        "identities": results,
        "pass": all(item["pass"] for item in results),
    }
