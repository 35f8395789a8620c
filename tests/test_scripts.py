"""Smoke runs of the example scripts with tiny arguments."""

import json
import os
import pathlib
import subprocess
import sys

import cmvkit

SRC = pathlib.Path(cmvkit.__file__).resolve().parents[1]
SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_ensemble_spectra(tmp_path):
    proc = run_script("ensemble_spectra.py", "--count", 200, "--outdir", tmp_path / "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for family in ("circular", "jacobi", "hermite"):
        assert (tmp_path / "out" / f"{family}_samples.csv").stat().st_size > 0
        assert (tmp_path / "out" / f"{family}_hist.csv").stat().st_size > 0


def test_identity_report(tmp_path):
    # three trials, so every suite evaluates a stack of probes
    out = tmp_path / "report.json"
    proc = run_script("identity_report.py", "--trials", 3, "--out", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[pass]") == 7 and "FAIL" not in proc.stdout
    for report in json.loads(out.read_text()):
        assert report["trials"] == 3 and report["pass"]
        for item in report["identities"]:
            assert 0 <= item["worst_trial"] < 3 and item["worst_probe"]
            assert f"(worst trial {item['worst_trial']})" in proc.stdout


def test_sorting_flow_demo(tmp_path):
    # the demo writes no file; it prints the weights and the endpoint error
    proc = run_script("sorting_flow_demo.py", "--n", 4, "--t", 0.2, "--dt", 0.01, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "rk4 vs exact spectral endpoint" in proc.stdout
