"""Identity verification suites behind `cmv verify`.

Each suite sweeps seeded random probe points, evaluates a family of
bracket/Jacobian identities numerically, and reports the worst residual
against its tolerance.  Suites return a plain dict ready for JSON.  A
suite needs at least one trial, and an identity that no trial evaluated
(every probe skipped) fails rather than passing with residual 0.
"""

from __future__ import annotations

import numpy as np

from .brackets import (
    bracket_from_gradients,
    coordinate_gradient,
    coordinate_observables,
    cotangent_residual,
    hamiltonian_observables,
    jacobian_prediction,
    spectral_observables,
    spectral_to_verblunsky_jacobian,
)
from .core import SpectralMeasureCircle
from .ensembles import RngStream, random_verblunsky
from .errors import BranchProximity, InvalidParams

SUITES = ("brackets", "canonical", "cotangent", "jacobian")

BRACKET_TOL = 1e-6
CANONICAL_TOL = 1e-5
THETA_COMMUTE_TOL = 1e-6
COTANGENT_TOL = 1e-5
JACOBIAN_TOL = 1e-6


def _probes(trials: int, seed: int) -> np.random.Generator:
    """The generator of a suite's probe points; rejects a suite with no trials."""
    if trials < 1:
        raise InvalidParams(f"need at least one trial, got {trials}")
    return RngStream(seed).generator()


def _result(name: str, residual: float, tolerance: float, evaluated: bool = True) -> dict:
    return {
        "name": name,
        "max_residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(evaluated and residual <= tolerance),
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


def suite_brackets(n: int = 4, trials: int = 20, seed: int = 0) -> dict:
    """Coefficient brackets and the involution of the trace Hamiltonians.

    Checks, at random probe points:
      * the complex reconstruction {alpha_k, conj(alpha_l)} = -2i delta_kl rho_k^2
        and {alpha_k, alpha_l} = 0 from the four real coordinate brackets;
      * antisymmetry of the numeric bracket;
      * {Re K_m, Re K_l} = 0 and {Im K_m, Re K_l} = 0 for m, l <= 3.
    """
    gen = _probes(trials, seed)
    worst_pair = 0.0
    worst_anti = 0.0
    worst_ham = 0.0
    for _ in range(trials):
        v = random_verblunsky(n, gen, radius=0.65)
        grads = []
        for j in range(n - 1):
            u, w = coordinate_observables(v, j)
            gu = coordinate_gradient(u, v)
            gw = coordinate_gradient(w, v)
            grads.append((gu, gw))
        for kk in range(n - 1):
            for ll in range(n - 1):
                gu_k, gv_k = grads[kk]
                gu_l, gv_l = grads[ll]

                def rich(ga, gb):
                    coarse = bracket_from_gradients(ga[1], gb[1], v.rho)
                    fine = bracket_from_gradients(ga[2], gb[2], v.rho)
                    return (4.0 * fine - coarse) / 3.0

                uu = rich(gu_k, gu_l)
                uv = rich(gu_k, gv_l)
                vu = rich(gv_k, gu_l)
                vv = rich(gv_k, gv_l)
                # {a_k, conj(a_l)} = {u_k,u_l} + {v_k,v_l} + i({v_k,u_l} - {u_k,v_l})
                same = complex(uu + vv, vu - uv)
                cross = complex(uu - vv, uv + vu)
                expected = -2j * v.rho[kk] ** 2 if kk == ll else 0.0
                worst_pair = max(worst_pair, abs(same - expected), abs(cross))
                worst_anti = max(worst_anti, abs(uv + rich(gv_l, gu_k)))
        hams = {m: hamiltonian_observables(v, m) for m in (1, 2, 3)}
        hgrads = {
            (m, p): coordinate_gradient(hams[m][p], v) for m in hams for p in (0, 1)
        }
        for m in hams:
            for l in hams:
                for pf in (0, 1):
                    ga = hgrads[(m, pf)]
                    gb = hgrads[(l, 0)]
                    coarse = bracket_from_gradients(ga[1], gb[1], v.rho)
                    fine = bracket_from_gradients(ga[2], gb[2], v.rho)
                    worst_ham = max(worst_ham, abs((4.0 * fine - coarse) / 3.0))
    return _finish(
        "brackets",
        n,
        trials,
        seed,
        [
            _result("coefficient bracket reconstruction", worst_pair, BRACKET_TOL),
            _result("antisymmetry", worst_anti, BRACKET_TOL),
            _result("trace hamiltonians in involution", worst_ham, BRACKET_TOL),
        ],
    )


def suite_canonical(n: int = 4, trials: int = 10, seed: int = 0) -> dict:
    """Angle commutation and the canonical pairing with half log mass ratios.

    {theta_j, theta_k} should vanish and the matrix
    {theta_l, (1/2) log(mu_j / mu_n)} over j, l < n should be the identity.
    """
    gen = _probes(trials, seed)
    worst_theta = 0.0
    worst_matrix = 0.0
    for _ in range(trials):
        v = random_verblunsky(n, gen, radius=0.6, min_separation=0.35)
        obs = spectral_observables(v)
        tgrads = [coordinate_gradient(obs.theta(j), v) for j in range(n)]
        rgrads = [coordinate_gradient(obs.log_mass_ratio(j, n - 1), v) for j in range(n - 1)]
        for j in range(n):
            for l in range(j + 1, n):
                coarse = bracket_from_gradients(tgrads[j][1], tgrads[l][1], v.rho)
                fine = bracket_from_gradients(tgrads[j][2], tgrads[l][2], v.rho)
                worst_theta = max(worst_theta, abs((4.0 * fine - coarse) / 3.0))
        if n > 1:
            mat = np.empty((n - 1, n - 1))
            for l in range(n - 1):
                for j in range(n - 1):
                    coarse = 0.5 * bracket_from_gradients(tgrads[l][1], rgrads[j][1], v.rho)
                    fine = 0.5 * bracket_from_gradients(tgrads[l][2], rgrads[j][2], v.rho)
                    mat[l, j] = (4.0 * fine - coarse) / 3.0
            worst_matrix = max(worst_matrix, np.abs(mat - np.eye(n - 1)).max())
    return _finish(
        "canonical",
        n,
        trials,
        seed,
        [
            _result("eigenvalue angles commute", worst_theta, THETA_COMMUTE_TOL),
            _result("canonical pairing matrix", worst_matrix, CANONICAL_TOL),
        ],
    )


def suite_cotangent(n: int = 4, trials: int = 25, seed: int = 0) -> dict:
    """Mass-ratio bracket against the cotangent sum on well separated spectra."""
    gen = _probes(trials, seed)
    worst = 0.0
    if n < 3:
        raise InvalidParams("cotangent suite needs n >= 3")
    for _ in range(trials):
        v = random_verblunsky(n, gen, radius=0.55, min_separation=0.5)
        labels = tuple(gen.permutation(n)[:3].tolist())
        worst = max(worst, abs(cotangent_residual(v, labels)))
    return _finish(
        "cotangent",
        n,
        trials,
        seed,
        [_result("cotangent identity", worst, COTANGENT_TOL)],
    )


def random_measure(n: int, gen, margin: float = 0.35) -> SpectralMeasureCircle:
    """Measure with comfortable angle separations, weights, and branch margins."""
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


def suite_jacobian(n: int = 3, trials: int = 25, seed: int = 0) -> dict:
    """Numeric spectral-to-coefficient Jacobian against its closed form."""
    gen = _probes(trials, seed)
    worst = 0.0
    skipped = 0
    for _ in range(trials):
        mu = random_measure(n, gen)
        try:
            numeric = spectral_to_verblunsky_jacobian(mu)
        except BranchProximity:
            skipped += 1
            continue
        predicted = jacobian_prediction(mu)
        worst = max(worst, abs(numeric - predicted) / max(abs(predicted), 1e-12))
    return _finish(
        "jacobian",
        n,
        trials,
        seed,
        [_result("spectral jacobian determinant", worst, JACOBIAN_TOL, evaluated=skipped < trials)],
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
