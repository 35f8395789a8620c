"""Identity verification suites behind `cmv verify`.

Each suite sweeps seeded random probe points, evaluates a family of
bracket/Jacobian identities numerically, and reports the worst residual
against its tolerance.  Suites return a plain dict ready for JSON.  A
suite needs at least one trial and n >= MIN_N[suite], and an identity
that no trial evaluated (every probe skipped) fails rather than passing
with residual 0.

Each suite computes its residuals at one probe with one function
(`brackets_residuals`, `canonical_residuals`, `cotangent_residual`,
`jacobian_residual`), and each identity records the trial and the probe
(coefficients or measure, in the serialize schemas) of its worst
residual, so that probe alone reproduces `max_residual` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .brackets import (
    coordinate_jacobian,
    cotangent_residual,
    interior_coordinates,
    jacobian_prediction,
    richardson_bracket,
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


def _probes(suite: str, n: int, trials: int, seed: int) -> np.random.Generator:
    """The generator of a suite's probe points; rejects a size or trial
    count the suite cannot evaluate before anything is drawn."""
    if n < MIN_N[suite]:
        raise InvalidParams(f"{suite} suite needs n >= {MIN_N[suite]}, got {n}")
    if trials < 1:
        raise InvalidParams(f"need at least one trial, got {trials}")
    return RngStream(seed).generator()


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


def _finish(suite: str, n: int, trials: int, seed: int, identities: list[dict], skipped: int = 0) -> dict:
    return {
        "suite": suite,
        "n": n,
        "trials": trials,
        "skipped": skipped,
        "seed": seed,
        "identities": identities,
        "pass": all(item["pass"] for item in identities),
    }


def brackets_residuals(v: VerblunskySet) -> tuple[float, float, float]:
    """Worst defects at one probe of the coefficient bracket reconstruction,
    of antisymmetry, and of the trace Hamiltonians' involution.

    One stencil sweep differentiates every interior coordinate (rows 2j,
    2j+1 are u_j, v_j) and Re/Im K_m for m = 1..3 (one CMV matrix per
    stencil point).
    """
    d = 2 * (v.n - 1)

    def values(w):
        return np.concatenate([interior_coordinates(w), trace_hamiltonians(w, HAMILTONIAN_DEGREES)])

    names = [f"{p}_{j}" for j in range(v.n - 1) for p in "uv"]
    names += [f"{p} K_{m}" for m in HAMILTONIAN_DEGREES for p in ("Re", "Im")]
    _, g1, g2 = coordinate_jacobian(values, v, names=names)

    def rich(a, b):
        return richardson_bracket(g1, g2, a, b, v.rho)[0]

    worst_pair = 0.0
    worst_anti = 0.0
    for kk in range(v.n - 1):
        for ll in range(v.n - 1):
            u_k, v_k, u_l, v_l = 2 * kk, 2 * kk + 1, 2 * ll, 2 * ll + 1
            uu = rich(u_k, u_l)
            uv = rich(u_k, v_l)
            vu = rich(v_k, u_l)
            vv = rich(v_k, v_l)
            # {a_k, conj(a_l)} = {u_k,u_l} + {v_k,v_l} + i({v_k,u_l} - {u_k,v_l})
            same = complex(uu + vv, vu - uv)
            cross = complex(uu - vv, uv + vu)
            expected = -2j * v.rho[kk] ** 2 if kk == ll else 0.0
            worst_pair = max(worst_pair, abs(same - expected), abs(cross))
            worst_anti = max(worst_anti, abs(uv + rich(v_l, u_k)))
    worst_ham = 0.0
    for m in range(len(HAMILTONIAN_DEGREES)):
        for l in range(len(HAMILTONIAN_DEGREES)):
            for pf in (0, 1):
                worst_ham = max(worst_ham, abs(rich(d + 2 * m + pf, d + 2 * l)))
    return worst_pair, worst_anti, worst_ham


def suite_brackets(n: int = 4, trials: int = 20, seed: int = 0) -> dict:
    """Coefficient brackets and the involution of the trace Hamiltonians.

    Checks, at random probe points:
      * the complex reconstruction {alpha_k, conj(alpha_l)} = -2i delta_kl rho_k^2
        and {alpha_k, alpha_l} = 0 from the four real coordinate brackets;
      * antisymmetry of the numeric bracket;
      * {Re K_m, Re K_l} = 0 and {Im K_m, Re K_l} = 0 for m, l <= 3.
    """
    gen = _probes("brackets", n, trials, seed)
    worst = [_Worst() for _ in range(3)]
    for trial in range(trials):
        v = random_verblunsky(n, gen, radius=0.65)
        probe = verblunsky_to_obj(v)
        for tracker, residual in zip(worst, brackets_residuals(v)):
            tracker.update(residual, trial, probe)
    names = ("coefficient bracket reconstruction", "antisymmetry", "trace hamiltonians in involution")
    return _finish(
        "brackets",
        n,
        trials,
        seed,
        [_result(name, tracker, BRACKET_TOL) for name, tracker in zip(names, worst)],
    )


def canonical_residuals(v: VerblunskySet) -> tuple[float, float]:
    """Worst defects at one probe of {theta_j, theta_k} = 0 and of the
    pairing matrix {theta_l, (1/2) log(mu_j / mu_n)} = identity.

    One stencil sweep differentiates theta_0..theta_{n-1} (rows 0..n-1)
    and log(mu_j / mu_{n-1}), j < n-1 (rows n..2n-2), all from one
    eigensolve per stencil point.
    """
    n = v.n
    obs = spectral_observables(v)

    def values(w):
        theta, weights = obs.values(w)
        return np.concatenate([theta, np.log(weights[: n - 1] / weights[n - 1])])

    names = [f"theta_{j}" for j in range(n)] + [f"log(mu_{j}/mu_{n - 1})" for j in range(n - 1)]
    _, g1, g2 = coordinate_jacobian(values, v, names=names)
    worst_theta = 0.0
    for j in range(n):
        for l in range(j + 1, n):
            worst_theta = max(worst_theta, abs(richardson_bracket(g1, g2, j, l, v.rho)[0]))
    mat = np.empty((n - 1, n - 1))
    for l in range(n - 1):
        for j in range(n - 1):
            mat[l, j] = richardson_bracket(g1, g2, l, n + j, v.rho, scale=0.5)[0]
    return worst_theta, float(np.abs(mat - np.eye(n - 1)).max())


def suite_canonical(n: int = 4, trials: int = 10, seed: int = 0) -> dict:
    """Angle commutation and the canonical pairing with half log mass ratios.

    {theta_j, theta_k} should vanish and the matrix
    {theta_l, (1/2) log(mu_j / mu_n)} over j, l < n should be the identity.
    """
    gen = _probes("canonical", n, trials, seed)
    worst = [_Worst(), _Worst()]
    for trial in range(trials):
        v = random_verblunsky(n, gen, radius=0.6, min_separation=probe_separation(0.35, n))
        probe = verblunsky_to_obj(v)
        for tracker, residual in zip(worst, canonical_residuals(v)):
            tracker.update(residual, trial, probe)
    return _finish(
        "canonical",
        n,
        trials,
        seed,
        [
            _result("eigenvalue angles commute", worst[0], THETA_COMMUTE_TOL),
            _result("canonical pairing matrix", worst[1], CANONICAL_TOL),
        ],
    )


def suite_cotangent(n: int = 4, trials: int = 25, seed: int = 0) -> dict:
    """Mass-ratio bracket against the cotangent sum on well separated spectra."""
    gen = _probes("cotangent", n, trials, seed)
    worst = _Worst()
    for trial in range(trials):
        v = random_verblunsky(n, gen, radius=0.55, min_separation=probe_separation(0.5, n))
        labels = tuple(gen.permutation(n)[:3].tolist())
        probe = dict(verblunsky_to_obj(v), labels=list(labels))
        worst.update(abs(cotangent_residual(v, labels)), trial, probe)
    return _finish(
        "cotangent",
        n,
        trials,
        seed,
        [_result("cotangent identity", worst, COTANGENT_TOL)],
    )


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
    gen = _probes("jacobian", n, trials, seed)
    worst = _Worst()
    skipped = 0
    for trial in range(trials):
        mu = random_measure(n, gen)
        try:
            residual = jacobian_residual(mu)
        except BranchProximity:
            skipped += 1
            continue
        worst.update(residual, trial, circle_measure_to_obj(mu))
    return _finish(
        "jacobian",
        n,
        trials,
        seed,
        [_result("spectral jacobian determinant", worst, JACOBIAN_TOL)],
        skipped,
    )


def run_suite(suite: str, n: int, trials: int, seed: int) -> dict:
    if suite == "brackets":
        return suite_brackets(n, trials, seed)
    if suite == "canonical":
        return suite_canonical(n, trials, seed)
    if suite == "cotangent":
        return suite_cotangent(n, trials, seed)
    if suite == "jacobian":
        return suite_jacobian(n, trials, seed)
    raise InvalidParams(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
