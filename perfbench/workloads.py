"""Workload passes and the output checks that feed the error rate.

A pass is a fixed list of ``cmv`` invocations whose flags are drawn from
``random.Random(f"{workload}:{seed}:{index}")``, so the workload seed and
the pass index pin every input.  Each invocation carries a ``check``
that reads the files the command wrote and returns a list of failure
messages (empty when the output is correct; output it cannot parse
raises), and a ``units`` callable
giving the workload's domain units (eigenvalues, states or trials).

The checks use plain numpy, never cmvkit, so that a defect in the
package cannot vouch for its own output and so that traced runs attribute
no check time to the package's layers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

FLOW_DT = 1e-3
# (n, t range): n=6 is the README size, n=64 the top of desk scale.  t is
# drawn, not snapped to multiples of dt, so the rk4/spectral grid
# mismatch shows wherever it occurs; the ranges are narrow so that every
# pass does nearly the same work.
FLOW_SIZES = ((6, (0.09, 0.1)), (64, (0.018, 0.02)))
FLOW_DRIFT_TOL = 1e-10
FLOW_UNITARITY_TOL = 1e-12
FLOW_ENDPOINT_TOL = 1e-9
ROUND_TRIP_TOL = 1e-8
COEFFS_MATCH_TOL = 1e-8
HIST_RANGE = (-3.1416, 3.1416)

# bound before a traced run rebinds np.linalg.eigvals, so the checks'
# own eigensolves never show up as spans
_eigvals = np.linalg.eigvals


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[], list[str]]
    units: Callable[[], float] = lambda: 0.0
    # writes an input that an earlier invocation of the pass produced
    prepare: Callable[[], None] | None = None
    # counts of the two known defects, filled in by the checks
    defects: dict = field(default_factory=dict)


def build_pass(workload: str, seed: int, index: int, work: Path) -> list[Invocation]:
    rnd = random.Random(f"{workload}:{seed}:{index}")
    return PASSES[workload](rnd, work)


def _seed(rnd: random.Random) -> str:
    return str(rnd.randrange(2**31))


# --- sample ----------------------------------------------------------------


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_samples(path: Path, count: int, n: int, lo: float, hi: float, lo_open: bool) -> list[str]:
    rows = read_csv(path)
    errors = []
    if rows.shape != (count, n):
        errors.append(f"{path.name}: shape {rows.shape}, expected {(count, n)}")
        return errors
    if not np.all(np.isfinite(rows)):
        errors.append(f"{path.name}: non-finite values")
    if np.any(np.diff(rows, axis=1) < 0.0):
        errors.append(f"{path.name}: a row is not sorted")
    below = rows <= lo if lo_open else rows < lo
    if np.any(below) or np.any(rows > hi):
        errors.append(f"{path.name}: values outside the family's range")
    return errors


def check_histogram(path: Path, expected_total: int, bins: int) -> list[str]:
    table = read_csv(path)
    if table.shape != (bins, 3):
        return [f"{path.name}: shape {table.shape}, expected {(bins, 3)}"]
    total = int(table[:, 2].sum())
    if total != expected_total:
        return [f"{path.name}: counts sum to {total}, expected {expected_total}"]
    return []


def cmv_oracle(alpha: np.ndarray) -> np.ndarray:
    """Dense CMV matrix L @ M of one coefficient vector (plain numpy)."""
    n = alpha.size
    L = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    M[0, 0] = 1.0
    for k in range(n - 1):
        rho = math.sqrt(max(1.0 - abs(alpha[k]) ** 2, 0.0))
        block = np.array([[np.conj(alpha[k]), rho], [rho, -alpha[k]]])
        target = L if k % 2 == 0 else M
        target[k : k + 2, k : k + 2] = block
    (L if (n - 1) % 2 == 0 else M)[n - 1, n - 1] = np.conj(alpha[n - 1])
    return L @ M


def coeffs_mismatch_rows(csv_path: Path, json_path: Path) -> int:
    """Rows whose --coeffs-out coefficients do not reproduce the CSV angles."""
    rows = read_csv(csv_path)
    objs = json.loads(json_path.read_text(encoding="utf-8"))
    bad = 0
    for row, obj in zip(rows, objs):
        alpha = np.array([complex(re, im) for re, im in obj["alpha"]])
        angles = np.sort(np.angle(_eigvals(cmv_oracle(alpha))))
        if angles.shape != row.shape or np.abs(angles - row).max() > COEFFS_MATCH_TOL:
            bad += 1
    return bad + abs(len(objs) - rows.shape[0])


def sample_pass(rnd: random.Random, work: Path) -> list[Invocation]:
    out = []

    def sample(family, n, beta, count, name, extra=(), lo=-2.0, hi=2.0, lo_open=False, coeffs=None):
        path = work / name
        argv = ["sample", "--family", family, "--n", str(n), "--beta", str(beta),
                "--count", str(count), "--seed", _seed(rnd), "--out", str(path), *extra]
        if coeffs is not None:
            argv += ["--coeffs-out", str(work / coeffs)]
        inv = Invocation(argv + ["--quiet"], lambda: check_samples(path, count, n, lo, hi, lo_open),
                         lambda: float(count * n))
        out.append(inv)
        return inv

    pi = math.pi
    # LAPACK eig on complex CMV matrices (eigvals) ...
    sample("circular", 64, 2, 64, "circ64.csv", lo=-pi, hi=pi, lo_open=True)
    # ... against eigvalsh on real tridiagonals
    sample("jacobi", 64, 1, 256, "jac64.csv", extra=("--a", "0.5", "--b", "1"))
    sample("hermite", 64, 4, 256, "herm64.csv", lo=-math.inf, hi=math.inf)
    # the README's large-count case: CSV formatting dominates
    gaps, count = work / "circ2.csv", 20000
    sample("circular", 2, 2, count, gaps.name, lo=-pi, hi=pi, lo_open=True)
    hist = work / "hist.csv"
    bins = 64
    out.append(Invocation(
        ["histogram", "--input", str(gaps), "--bins", str(bins), "--range",
         str(HIST_RANGE[0]), str(HIST_RANGE[1]), "--out", str(hist), "--quiet"],
        lambda: check_histogram(hist, count * 2, bins),
    ))
    inv = sample("circular", 64, 2, 8, "coeffs.csv", lo=-pi, hi=pi, lo_open=True, coeffs="coeffs.json")
    base_check = inv.check

    def check_with_coeffs():
        errors = base_check()
        if not errors:
            inv.defects["ensembles.coeffs_mismatch_rows"] = coeffs_mismatch_rows(
                work / "coeffs.csv", work / "coeffs.json")
        return errors

    inv.check = check_with_coeffs
    return out


# --- flow ------------------------------------------------------------------


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def state_alpha(obj: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj["alpha"]])


def check_trajectory(path: Path, t_final: float) -> list[str]:
    traj = load_json(path)
    errors = []
    times = traj["times"]
    if len(times) != len(traj["states"]) or len(times) != len(traj["diagnostics"]):
        errors.append(f"{path.name}: times, states and diagnostics differ in length")
    if abs(times[-1] - t_final) > 1e-12:
        errors.append(f"{path.name}: ends at t={times[-1]!r}, expected {t_final!r}")
    drift = max(d["eig_drift"] for d in traj["diagnostics"])
    unit = max(d["unitarity"] for d in traj["diagnostics"])
    if not drift <= FLOW_DRIFT_TOL:
        errors.append(f"{path.name}: eig_drift {drift:.3e} > {FLOW_DRIFT_TOL:g}")
    if not unit <= FLOW_UNITARITY_TOL:
        errors.append(f"{path.name}: unitarity {unit:.3e} > {FLOW_UNITARITY_TOL:g}")
    return errors


def check_endpoints(rk4: Path, spectral: Path) -> list[str]:
    """rk4 and spectral endpoints of the same seed and t must agree."""
    a = state_alpha(load_json(rk4)["states"][-1])
    b = state_alpha(load_json(spectral)["states"][-1])
    if a.shape != b.shape:
        return [f"{rk4.name}/{spectral.name}: endpoint sizes differ"]
    gap = float(np.abs(a - b).max())
    if not gap <= FLOW_ENDPOINT_TOL:
        return [f"{rk4.name}/{spectral.name}: endpoints differ by {gap:.3e} > {FLOW_ENDPOINT_TOL:g}"]
    return []


def states_emitted(path: Path) -> float:
    return float(len(load_json(path)["times"]))


def round_trip(endpoint: Path, work: Path, n: int) -> list[Invocation]:
    """spectral --to measure on a flow endpoint, then --to coeffs back."""
    coeffs, measure, back = (work / f"{name}-n{n}.json" for name in ("endpoint", "measure", "back"))

    def endpoint_input():
        coeffs.write_text(json.dumps(load_json(endpoint)["states"][-1]), encoding="utf-8")

    def measure_check():
        weights = np.array([p["weight"] for p in load_json(measure)["points"]])
        if weights.size != n or abs(weights.sum() - 1.0) > 1e-12 or weights.min() <= 0.0:
            return [f"{measure.name}: not an {n}-point probability measure"]
        return []

    def round_trip_check():
        gap = np.abs(state_alpha(load_json(back)) - state_alpha(load_json(coeffs))).max()
        if not gap <= ROUND_TRIP_TOL:
            return [f"measure->coeffs round trip error {gap:.3e} > {ROUND_TRIP_TOL:g}"]
        return []

    return [
        Invocation(["spectral", "--input", str(coeffs), "--to", "measure", "--out", str(measure), "--quiet"],
                   measure_check, prepare=endpoint_input),
        Invocation(["spectral", "--input", str(measure), "--to", "coeffs", "--out", str(back), "--quiet"],
                   round_trip_check),
    ]


def flow_pass(rnd: random.Random, work: Path) -> list[Invocation]:
    flows, trips = [], []
    for n, (t_lo, t_hi) in FLOW_SIZES:
        for m in (1, 2):
            for part in ("re", "im"):
                seed = _seed(rnd)
                t = repr(rnd.uniform(t_lo, t_hi))
                paths = {}
                for method in ("rk4", "spectral"):
                    path = work / f"{method}-n{n}-m{m}-{part}.json"
                    paths[method] = path
                    argv = ["flow", "--random", "--n", str(n), "--seed", seed, "--m", str(m),
                            "--part", part, "--t", t, "--dt", repr(FLOW_DT),
                            "--method", method, "--out", str(path), "--quiet"]
                    flows.append(Invocation(argv, lambda p=path, t=float(t): check_trajectory(p, t),
                                            lambda p=path: states_emitted(p)))
                pair = flows[-1]
                spectral_check = pair.check

                def check_pair(pair=pair, rk4=paths["rk4"], spec=paths["spectral"], own=spectral_check):
                    errors = own() or check_endpoints(rk4, spec)
                    if not errors:
                        pair.defects["cli.flow_grid_mismatch"] = int(
                            states_emitted(rk4) != states_emitted(spec))
                    return errors

                pair.check = check_pair
        # one round trip per size, on its last spectral endpoint; with the
        # four conversions the median invocation is the middle of the
        # n=6 flows rather than the edge of the gap up to the n=64 ones
        trips += round_trip(paths["spectral"], work, n)
    return flows + trips


# --- verify ----------------------------------------------------------------

# (suite, n, trials): each suite once, small enough that a pass stays short.
VERIFY_SUITES = (("brackets", 4, 3), ("canonical", 4, 2), ("cotangent", 4, 4), ("jacobian", 3, 4))


def check_report(path: Path, suite: str) -> list[str]:
    report = load_json(path)
    errors = []
    if report.get("suite") != suite or not report.get("identities"):
        errors.append(f"{path.name}: not a {suite} report")
    failing = [item["name"] for item in report.get("identities", ()) if item.get("pass") is not True]
    if failing or report.get("pass") is not True:
        errors.append(f"{path.name}: identities not passing: {failing}")
    return errors


def verify_pass(rnd: random.Random, work: Path) -> list[Invocation]:
    out = []
    for suite, n, trials in VERIFY_SUITES:
        path = work / f"report-{suite}.json"
        argv = ["verify", "--suite", suite, "--n", str(n), "--trials", str(trials),
                "--seed", _seed(rnd), "--report", str(path), "--quiet"]
        out.append(Invocation(argv, lambda p=path, s=suite: check_report(p, s), lambda t=trials: float(t)))
    return out


PASSES = {"sample": sample_pass, "flow": flow_pass, "verify": verify_pass}

# the domain unit each workload's throughput metric counts
THROUGHPUT = {"sample": "eigs_per_s", "flow": "steps_per_s", "verify": "trials_per_s"}
