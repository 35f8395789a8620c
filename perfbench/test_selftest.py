"""Self-tests of the benchmark: its output checks reject corrupted output,
and a smoke size of every workload runs end to end, untraced and traced.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import spans  # noqa: E402
import workloads  # noqa: E402
from cmvkit import cli  # noqa: E402


def cmv(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


def rejects(check, *args) -> bool:
    """A check rejects output by listing errors or by failing to parse it."""
    try:
        return bool(check(*args))
    except ValueError:
        return True


def test_sample_check_rejects_corrupted_csv(tmp_path):
    path = tmp_path / "s.csv"
    cmv("sample", "--family", "jacobi", "--n", 4, "--beta", 2, "--count", 5, "--seed", 1,
        "--out", path, "--quiet")
    assert workloads.check_samples(path, 5, 4, -2.0, 2.0, False) == []
    rows = path.read_text().splitlines()
    good = rows[1].split(",")

    def corrupt(row):
        path.write_text("\n".join(rows[:1] + [row] + rows[2:]) + "\n")
        return rejects(workloads.check_samples, path, 5, 4, -2.0, 2.0, False)

    assert corrupt(",".join([good[1], good[0]] + good[2:]))       # unsorted row
    assert corrupt(",".join(good[:-1] + ["2.5"]))                  # outside [-2, 2]
    assert corrupt(",".join(good[:-1] + ["nan"]))                  # not finite
    assert corrupt(",".join(good[:-1]))                            # short row
    path.write_text("\n".join(rows[:-1]) + "\n")
    assert rejects(workloads.check_samples, path, 5, 4, -2.0, 2.0, False)  # missing row


def test_histogram_check_rejects_wrong_total(tmp_path):
    samples, hist = tmp_path / "s.csv", tmp_path / "h.csv"
    cmv("sample", "--family", "circular", "--n", 2, "--beta", 2, "--count", 50, "--seed", 1,
        "--out", samples, "--quiet")
    cmv("histogram", "--input", samples, "--bins", 8, "--range", -3.1416, 3.1416, "--out", hist, "--quiet")
    assert workloads.check_histogram(hist, 100, 8) == []
    assert workloads.check_histogram(hist, 102, 8)


def test_verify_check_rejects_non_passing_report(tmp_path):
    path = tmp_path / "r.json"
    cmv("verify", "--suite", "jacobian", "--n", 3, "--trials", 2, "--seed", 1, "--report", path, "--quiet")
    assert workloads.check_report(path, "jacobian") == []
    report = json.loads(path.read_text())
    report["identities"][0]["pass"] = False
    path.write_text(json.dumps(report))
    assert workloads.check_report(path, "jacobian")
    report["identities"] = []
    report["pass"] = True
    path.write_text(json.dumps(report))
    assert workloads.check_report(path, "jacobian")


def test_flow_check_rejects_endpoint_mismatch(tmp_path):
    paths = {m: tmp_path / f"{m}.json" for m in ("rk4", "spectral")}
    for method, path in paths.items():
        cmv("flow", "--random", "--n", 6, "--seed", 3, "--m", 1, "--part", "re", "--t", 0.0123,
            "--dt", 1e-3, "--method", method, "--out", path, "--quiet")
    assert workloads.check_endpoints(paths["rk4"], paths["spectral"]) == []
    assert workloads.check_trajectory(paths["rk4"], 0.0123) == []
    traj = json.loads(paths["spectral"].read_text())
    traj["states"][-1]["alpha"][0][0] += 1e-7
    paths["spectral"].write_text(json.dumps(traj))
    assert workloads.check_endpoints(paths["rk4"], paths["spectral"])
    traj["diagnostics"][-1]["eig_drift"] = 1e-6
    paths["spectral"].write_text(json.dumps(traj))
    assert workloads.check_trajectory(paths["spectral"], 0.0123)


def test_coeffs_mismatch_counts_rows(tmp_path):
    csv, coeffs = tmp_path / "s.csv", tmp_path / "c.json"
    cmv("sample", "--family", "circular", "--n", 5, "--beta", 2, "--count", 3, "--seed", 4,
        "--out", csv, "--coeffs-out", coeffs, "--quiet")
    objs = json.loads(coeffs.read_text())
    angles = [sorted(workloads.np.angle(workloads._eigvals(workloads.cmv_oracle(
        workloads.state_alpha(o))))) for o in objs]
    csv.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in angles))
    assert workloads.coeffs_mismatch_rows(csv, coeffs) == 0
    csv.write_text("".join(",".join(repr(float(x) + 1e-3) for x in row) + "\n" for row in angles))
    assert workloads.coeffs_mismatch_rows(csv, coeffs) == 3


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(workload, tmp_path):
    inv = run.measure(workload, 5, 0.0, tmp_path, min_invocations=1)
    assert inv.failed == 0, inv.failures
    metrics, details = run.end_to_end(inv, setup_s=1.0)
    assert details["invocations"] == inv.attempted > 0
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload, tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a)
                 for targets in spans.LAYERS.values() for m, a in targets}
    inv, metrics, details = run.traced(workload, 5, tmp_path, passes=1)
    assert inv.failed == 0, inv.failures
    wall = metrics["trace.wall_s"][0]
    assert details["self_sum_plus_unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert sum(v for k, (v, _) in metrics.items()
               if k.count(".") == 1 and k.endswith(".self_pct")) == pytest.approx(100.0)
    runs_on = {
        "sample": ("ensembles", "serialize", "linalg"),
        "flow": ("core", "opuc", "alflows", "serialize", "linalg"),
        "verify": ("core", "opuc", "brackets", "verify", "linalg"),
    }[workload]
    for layer in ("cli",) + runs_on:
        assert metrics[f"{layer}.self_pct"][0] > 0.0, layer
    # every binding is restored once the traced run ends
    for (module_name, attr), fn in originals.items():
        assert getattr(sys.modules[module_name], attr) is fn, f"{module_name}.{attr}"


def test_refuses_without_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
