import json
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cmvkit
from cmvkit import serialize
from cmvkit import cli
from cmvkit.cli import SAMPLE_CHUNK, main
from cmvkit.ensembles import BETA_MAX, EnsembleSpec, RngStream, eigenvalue_samples, random_verblunsky

from oracles import cmv_pattern, eigvals_angles

SRC = pathlib.Path(cmvkit.__file__).resolve().parents[1]


def run(*argv):
    return main([str(a) for a in argv])


def run_subprocess(*argv, timeout=60):
    """The cmv command in a fresh interpreter, killed after timeout seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "cmvkit.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)


def rebuilt_spectrum(family, obj):
    """Sorted eigenvalues of the matrix a --coeffs-out row describes."""
    if family == "circular":
        return eigvals_angles(cmv_pattern(serialize.verblunsky_from_obj(obj)))
    b, a = np.array(obj["b"]), np.array(obj["a"])
    return np.linalg.eigvalsh(np.diag(b) + np.diag(a, 1) + np.diag(a, -1))


class TestSample:
    def test_shape_and_range(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            "sample", "--family", "circular", "--n", 2, "--beta", 2, "--count", 500,
            "--seed", 1, "--out", out, "--quiet",
        )
        assert code == 0
        rows = serialize.read_samples_csv(out)
        assert rows.shape == (500, 2)
        assert rows.min() > -np.pi and rows.max() <= np.pi
        assert np.all(np.diff(rows, axis=1) >= 0)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(
                "sample", "--family", "hermite", "--n", 3, "--beta", 1, "--count", 200,
                "--seed", 42, "--out", out, "--quiet",
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jacobi_exponent_range(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            "sample", "--family", "jacobi", "--n", 2, "--beta", 2, "--a", -0.5, "--b", 3,
            "--count", 50, "--seed", 1, "--out", out, "--quiet",
        )
        assert code == 0

    def test_invalid_params_exit_2(self, tmp_path):
        code = run(
            "sample", "--family", "jacobi", "--n", 2, "--beta", 2, "--a", -1.5, "--b", 0,
            "--count", 5, "--seed", 1, "--out", tmp_path / "x.csv", "--quiet",
        )
        assert code == 2

    def test_unknown_flag_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("sample", "--family", "circular", "--n", 2, "--beta", 2,
                "--count", 5, "--seed", 1, "--out", tmp_path / "x.csv", "--bogus", 3)
        assert err.value.code == 2

    def test_coefficient_json(self, tmp_path):
        out = tmp_path / "s.csv"
        coeffs = tmp_path / "c.json"
        run(
            "sample", "--family", "circular", "--n", 3, "--beta", 4, "--count", 4,
            "--seed", 7, "--out", out, "--coeffs-out", coeffs, "--quiet",
        )
        objs = serialize.load_json(coeffs)
        assert len(objs) == 4
        assert all(o["n"] == 3 for o in objs)

    @pytest.mark.parametrize("n, count", [(1, 25), (6, 25), (2, SAMPLE_CHUNK + 8)])
    @pytest.mark.parametrize("family", ["circular", "jacobi", "hermite"])
    def test_coefficient_json_reproduces_rows(self, tmp_path, family, n, count):
        out, coeffs = tmp_path / "s.csv", tmp_path / "c.json"
        assert run("sample", "--family", family, "--n", n, "--beta", 2, "--a", 0.5, "--count", count,
                   "--seed", 1, "--out", out, "--coeffs-out", coeffs, "--quiet") == 0
        rows, objs = serialize.read_samples_csv(out), serialize.load_json(coeffs)
        assert len(objs) == rows.shape[0] == count
        for row, obj in zip(rows, objs):
            d = np.abs(rebuilt_spectrum(family, obj) - row)
            if family == "circular":
                d = np.minimum(d, 2.0 * np.pi - d)
            assert d.max() <= 1e-12

    def test_jacobi_small_beta_coefficient_json(self, tmp_path):
        # interval draws within 1e-12 of 1 used to fail the JSON with exit 3
        assert run("sample", "--family", "jacobi", "--n", 6, "--beta", 0.01, "--count", 10, "--seed", 1,
                   "--out", tmp_path / "s.csv", "--coeffs-out", tmp_path / "c.json", "--quiet") == 0

    def test_circular_coefficient_domain_checked_before_writing(self, tmp_path, capsys):
        # at beta = 1e-9 every interior modulus rounds to 1, so the redraw
        # loop gives up (exit 2) before either file is written
        out, coeffs = tmp_path / "s.csv", tmp_path / "c.json"
        assert run("sample", "--family", "circular", "--n", 6, "--beta", 1e-9, "--count", 5, "--seed", 1,
                   "--out", out, "--coeffs-out", coeffs, "--quiet") == 2
        assert "256 draws" in capsys.readouterr().err
        assert not out.exists() and not coeffs.exists()

    @pytest.mark.parametrize("seed", range(10))
    def test_circular_small_beta_coefficient_json(self, tmp_path, seed):
        # interior moduli within 1e-12 of 1 used to fail the JSON with exit 3
        # on 9 of these seeds while the CSV of the same command succeeded
        out, coeffs = tmp_path / "s.csv", tmp_path / "c.json"
        assert run("sample", "--family", "circular", "--n", 6, "--beta", 0.1, "--count", 10, "--seed", seed,
                   "--out", out, "--coeffs-out", coeffs, "--quiet") == 0
        rows, objs = serialize.read_samples_csv(out), serialize.load_json(coeffs)
        for row, obj in zip(rows, objs):
            d = np.abs(rebuilt_spectrum("circular", obj) - row)
            assert np.minimum(d, 2.0 * np.pi - d).max() <= 1e-12

    @pytest.mark.parametrize("family", ["jacobi", "hermite"])
    @pytest.mark.parametrize("coeffs", [False, True])
    def test_tiny_beta_exit_2_in_bounded_time(self, tmp_path, family, coeffs):
        out = tmp_path / "s.csv"
        extra = ["--coeffs-out", tmp_path / "c.json"] if coeffs else []
        proc = run_subprocess("sample", "--family", family, "--n", 6, "--beta", 1e-9, "--count", 10,
                              "--seed", 1, "--out", out, "--quiet", *extra)
        assert proc.returncode == 2, proc.stderr
        assert "256 draws" in proc.stderr and not out.exists()

    @pytest.mark.parametrize("count", [0, -5])
    def test_count_below_one_exit_2(self, tmp_path, count):
        out = tmp_path / "s.csv"
        assert run("sample", "--family", "circular", "--n", 2, "--beta", 2, "--count", count,
                   "--seed", 1, "--out", out, "--quiet") == 2
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path):
        assert run("sample", "--family", "circular", "--n", 2, "--beta", 2, "--count", 5,
                   "--seed", -1, "--out", tmp_path / "s.csv", "--quiet") == 2

    @pytest.mark.parametrize("family, flag", [
        ("circular", "--beta"), ("hermite", "--beta"), ("jacobi", "--beta"), ("jacobi", "--a"), ("jacobi", "--b"),
    ])
    def test_infinite_parameter_exit_2(self, tmp_path, capsys, family, flag):
        out = tmp_path / "s.csv"
        args = {"--beta": 2, "--a": 0.5, "--b": 0.5, flag: "inf"}
        assert run("sample", "--family", family, "--n", 3, *(x for kv in args.items() for x in kv),
                   "--count", 2, "--seed", 1, "--out", out, "--quiet") == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("family", ["circular", "jacobi", "hermite"])
    def test_beta_at_the_bound_draws(self, tmp_path, family):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("sample", "--family", family, "--n", 4, "--beta", BETA_MAX, "--count", 4,
                       "--seed", 1, "--out", out, "--quiet") == 0
        assert serialize.read_samples_csv(out).shape == (4, 4)

    @pytest.mark.parametrize("family", ["circular", "jacobi", "hermite"])
    @pytest.mark.parametrize("beta", ["1.0000000000001e12", "1e18", "1e308"])
    def test_beta_above_the_bound_exit_2(self, tmp_path, capsys, family, beta):
        # jacobi draws round to +-1 from about 1e18 (reported as "beta is
        # too small"), and near 1e308 every family's shapes overflow
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("sample", "--family", family, "--n", 4, "--beta", beta, "--count", 4,
                       "--seed", 1, "--out", out, "--quiet")
        assert code == 2 and not out.exists()
        assert f"outside (0, {BETA_MAX:g}]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--a", "1e308"), ("--a", "1e20"), ("--b", "1e308"), ("--b", "1e20")])
    def test_huge_jacobi_exponent_exit_2(self, tmp_path, capsys, flag, value):
        # gamma shapes this large overflow (1e308) or put every draw within
        # rounding of -1 or 1 (1e20); the exponent is refused before drawing
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("sample", "--family", "jacobi", "--n", 3, "--beta", 1, flag, value, "--count", 2,
                       "--seed", 1, "--out", out, "--quiet")
        assert code == 2 and not out.exists()
        assert f"jacobi exponent {flag[2:]} = " in capsys.readouterr().err


class TestFlow:
    def test_zero_time_single_state(self, tmp_path):
        out = tmp_path / "t.json"
        code = run("flow", "--random", "--n", 4, "--seed", 3, "--t", 0, "--out", out, "--quiet")
        assert code == 0
        traj = serialize.trajectory_from_obj(serialize.load_json(out))
        assert len(traj.states) == 1

    def test_methods_agree(self, tmp_path):
        init = tmp_path / "v.json"
        v = random_verblunsky(4, RngStream(5), radius=0.55, min_separation=0.3)
        serialize.dump_json(serialize.verblunsky_to_obj(v), init)
        rk4, spectral = tmp_path / "rk4.json", tmp_path / "spec.json"
        assert run("flow", "--init", init, "--t", 0.5, "--dt", "1e-2",
                   "--method", "rk4", "--out", rk4, "--quiet") == 0
        assert run("flow", "--init", init, "--t", 0.5, "--dt", "1e-2",
                   "--method", "spectral", "--out", spectral, "--quiet") == 0
        t1 = serialize.trajectory_from_obj(serialize.load_json(rk4))
        t2 = serialize.trajectory_from_obj(serialize.load_json(spectral))
        assert np.abs(t1.states[-1].alpha - t2.states[-1].alpha).max() <= 1e-6

    def test_diagnostics_present(self, tmp_path):
        out = tmp_path / "t.json"
        run("flow", "--random", "--n", 3, "--seed", 4, "--t", 0.1, "--dt", "1e-2",
            "--out", out, "--quiet")
        obj = serialize.load_json(out)
        assert {"eig_drift", "unitarity"} <= set(obj["diagnostics"][0])

    def test_domain_error_exit_3(self, tmp_path):
        init = tmp_path / "v.json"
        serialize.dump_json({"n": 2, "alpha": [[1.0 - 1e-9, 0.0], [1.0, 0.0]]}, init)
        code = run("flow", "--init", init, "--t", 1, "--dt", "1e-2", "--out", tmp_path / "t.json", "--quiet")
        assert code == 3

    @pytest.mark.parametrize("method", ["rk4", "spectral"])
    def test_grid_shared_by_methods(self, tmp_path, method):
        out = tmp_path / "t.json"
        assert run("flow", "--random", "--n", 4, "--seed", 3, "--t", 1, "--dt", 0.3,
                   "--method", method, "--out", out, "--quiet") == 0
        times = serialize.load_json(out)["times"]
        assert len(times) == 5 and times[-1] == 1.0

    @pytest.mark.parametrize("method, t, dt", [
        ("spectral", -1, 1e-3),
        ("spectral", 1, 0),
        ("rk4", 1, -0.1),
        ("spectral", 1, -0.1),
    ])
    def test_invalid_grid_exit_2(self, tmp_path, method, t, dt):
        out = tmp_path / "t.json"
        code = run("flow", "--random", "--n", 4, "--seed", 3, "--t", t, "--dt", dt,
                   "--method", method, "--out", out, "--quiet")
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("method", ["rk4", "spectral"])
    def test_step_count_above_the_limit_exit_2(self, tmp_path, capsys, method):
        out = tmp_path / "f.json"
        assert run("flow", "--random", "--n", 4, "--seed", 1, "--t", 1, "--dt", 1e-300,
                   "--method", method, "--out", out, "--quiet") == 2
        assert "1e+300 steps, more than the 10000000 allowed" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path):
        out = tmp_path / "t.json"
        assert run("flow", "--random", "--n", 3, "--seed", -4, "--t", 0.1, "--out", out, "--quiet") == 2
        assert not out.exists()

    def test_random_without_seed_exit_2(self, tmp_path):
        code = run("flow", "--random", "--n", 3, "--t", 0.1, "--out", tmp_path / "t.json", "--quiet")
        assert code == 2

    @pytest.mark.parametrize("n", [0, -3])
    def test_random_n_below_one_exit_2(self, tmp_path, n, capsys):
        out = tmp_path / "t.json"
        assert run("flow", "--random", "--n", n, "--seed", 1, "--t", 0.01, "--out", out, "--quiet") == 2
        assert "need at least one coefficient" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["rk4", "spectral"])
    def test_order_below_one_exit_2(self, tmp_path, method, capsys):
        out = tmp_path / "t.json"
        assert run("flow", "--random", "--n", 4, "--seed", 1, "--m", 0, "--t", 0, "--method", method,
                   "--out", out, "--quiet") == 2
        assert "need m >= 1" in capsys.readouterr().err
        assert not out.exists()


def final_alpha(path):
    return np.array([complex(*z) for z in json.loads(path.read_text())["states"][-1]["alpha"]])


@pytest.mark.parametrize("sweep", range(8))
def test_benchmark_flow_checks(tmp_path, sweep):
    """The output checks of the benchmark's flow workload, on the flows of
    eight of its passes (sizes, orders, parts, dt and t ranges as there).
    The bounds are literals copied from perfbench/workloads.py (FLOW_SIZES,
    FLOW_DRIFT_TOL, FLOW_UNITARITY_TOL and FLOW_ENDPOINT_TOL)."""
    rnd = random.Random(f"flow-sweep:{sweep}")
    for n, (t_lo, t_hi) in ((6, (0.09, 0.1)), (64, (0.018, 0.02))):
        for m in (1, 2):
            for part in ("re", "im"):
                seed, t = rnd.randrange(2**31), rnd.uniform(t_lo, t_hi)
                paths = {method: tmp_path / f"{method}-{n}-{m}-{part}.json" for method in ("rk4", "spectral")}
                for method, path in paths.items():
                    assert run("flow", "--random", "--n", n, "--seed", seed, "--m", m, "--part", part,
                               "--t", repr(t), "--dt", 1e-3, "--method", method, "--out", path, "--quiet") == 0
                    diagnostics = json.loads(path.read_text())["diagnostics"]
                    assert max(d["eig_drift"] for d in diagnostics) <= 1e-10
                    assert max(d["unitarity"] for d in diagnostics) <= 1e-12
                gap = np.abs(final_alpha(paths["rk4"]) - final_alpha(paths["spectral"])).max()
                assert gap <= 1e-9, (n, m, part, seed, t, gap)


@pytest.mark.parametrize("sweep", range(8))
def test_benchmark_verify_checks(tmp_path, capsys, sweep):
    """The output check of the benchmark's verify workload (every identity
    and the report pass) on each of its (suite, n, trials), a literal copy
    of VERIFY_SUITES in perfbench/workloads.py, at a seed drawn as there."""
    rnd = random.Random(f"verify-sweep:{sweep}")
    for suite, n, trials in (("brackets", 4, 3), ("canonical", 4, 2), ("cotangent", 4, 4), ("jacobian", 3, 4)):
        seed, path = rnd.randrange(2**31), tmp_path / f"report-{suite}.json"
        assert run("verify", "--suite", suite, "--n", n, "--trials", trials, "--seed", seed,
                   "--report", path, "--quiet") == 0, (suite, seed)
        report = json.loads(path.read_text())
        assert report["suite"] == suite and report["pass"] is True and report["skipped"] == 0
        assert report["identities"] and all(item["pass"] is True for item in report["identities"])
    assert capsys.readouterr().out == ""


class TestSpectral:
    def test_round_trip(self, tmp_path):
        v = random_verblunsky(5, RngStream(6), radius=0.7)
        cfile, mfile, back = tmp_path / "c.json", tmp_path / "m.json", tmp_path / "b.json"
        serialize.dump_json(serialize.verblunsky_to_obj(v), cfile)
        assert run("spectral", "--input", cfile, "--to", "measure", "--out", mfile, "--quiet") == 0
        assert run("spectral", "--input", mfile, "--to", "coeffs", "--out", back, "--quiet") == 0
        again = serialize.verblunsky_from_obj(serialize.load_json(back))
        assert np.abs(again.alpha - v.alpha).max() <= 1e-8


    @pytest.mark.parametrize("to,obj", [
        ("coeffs", {"pts": []}),
        ("coeffs", {"points": [{"theta": 0.1}]}),
        ("coeffs", {"points": [{"theta": "east", "weight": 1.0}]}),
        ("coeffs", [0.1, 1.0]),
        ("measure", {"n": 1, "alpha": [[1]]}),
        ("measure", {"n": 1, "alpha": [[1, 0, 5]]}),
        ("measure", {"n": 1, "alpha": [["1", 0]]}),
        ("measure", {"n": "one", "alpha": [[1, 0]]}),
        ("measure", {"n": 1.7, "alpha": [[1, 0]]}),
        ("measure", {"alpha": [[1, 0]]}),
    ])
    def test_malformed_input_exit_2(self, tmp_path, to, obj, capsys):
        src, out = tmp_path / "in.json", tmp_path / "out.json"
        serialize.dump_json(obj, src)
        assert run("spectral", "--input", src, "--to", to, "--out", out, "--quiet") == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestVerify:
    def test_passing_suite(self, tmp_path):
        report = tmp_path / "r.json"
        code = run("verify", "--suite", "jacobian", "--n", 2, "--trials", 5,
                   "--seed", 9, "--report", report)
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["pass"] is True
        assert all("max_residual" in item for item in obj["identities"])

    def test_canonical_suite_small(self):
        assert run("verify", "--suite", "canonical", "--n", 3, "--trials", 2, "--seed", 1) == 0

    @pytest.mark.parametrize("suite", ["brackets", "jacobian"])
    def test_zero_trials_exit_2(self, suite, capsys):
        assert run("verify", "--suite", suite, "--n", 4, "--trials", 0) == 2
        assert "[pass]" not in capsys.readouterr().out

    @pytest.mark.parametrize("quiet", [False, True])
    def test_quiet_prints_only_failures(self, tmp_path, monkeypatch, capsys, quiet):
        # reconstruction and antisymmetry pass, the involution is forced to fail
        monkeypatch.setattr("cmvkit.verify.brackets_residuals", lambda v: (0.0, 0.0, 1.0))
        report = tmp_path / "r.json"
        flags = ["--quiet"] if quiet else []
        assert run("verify", "--suite", "brackets", "--n", 3, "--trials", 2, "--report", report, *flags) == 4
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == (1 if quiet else 3)
        assert lines[-1].startswith("[FAIL] trace hamiltonians in involution: max residual 1.000e+00")
        assert [item["pass"] for item in json.loads(report.read_text())["identities"]] == [True, True, False]

    @pytest.mark.parametrize("quiet", [False, True])
    def test_quiet_passing_suite_prints_nothing(self, capsys, quiet):
        flags = ["--quiet"] if quiet else []
        assert run("verify", "--suite", "jacobian", "--n", 2, "--trials", 2, *flags) == 0
        out = capsys.readouterr().out
        assert out == "" if quiet else out.startswith("[pass] spectral jacobian determinant")

    @pytest.mark.parametrize("suite,n", [("brackets", 1), ("canonical", 1), ("cotangent", 2),
                                         ("jacobian", 0), ("brackets", 0), ("canonical", -1),
                                         ("cotangent", -1), ("jacobian", -1)])
    def test_n_below_suite_minimum_exit_2(self, suite, n, capsys):
        assert run("verify", "--suite", suite, "--n", n, "--trials", 2) == 2
        captured = capsys.readouterr()
        assert "[pass]" not in captured.out and "suite needs n >=" in captured.err

    def test_report_records_worst_probe(self, tmp_path):
        report = tmp_path / "r.json"
        assert run("verify", "--suite", "cotangent", "--n", 3, "--trials", 3, "--seed", 2,
                   "--report", report, "--quiet") == 0
        item = json.loads(report.read_text())["identities"][0]
        assert item["worst_trial"] in range(3)
        assert len(item["worst_probe"]["alpha"]) == 3 and len(item["worst_probe"]["labels"]) == 3

    def test_negative_seed_exit_2(self, capsys):
        assert run("verify", "--suite", "jacobian", "--n", 2, "--trials", 1, "--seed", -1) == 2
        assert "[pass]" not in capsys.readouterr().out

    def test_unknown_suite_exit_2(self):
        with pytest.raises(SystemExit) as err:
            run("verify", "--suite", "bogus")
        assert err.value.code == 2


class TestHistogram:
    def test_single_value(self, tmp_path):
        src, out = tmp_path / "s.csv", tmp_path / "h.csv"
        serialize.write_samples_csv(src, np.array([[0.3]]))
        assert run("histogram", "--input", src, "--bins", 1, "--range", 0, 1,
                   "--out", out, "--quiet") == 0
        assert out.read_text().strip().endswith(",1")

    def test_totals(self, tmp_path):
        src, out = tmp_path / "s.csv", tmp_path / "h.csv"
        rows = RngStream(10).generator().uniform(-np.pi, np.pi, size=(100, 2))
        serialize.write_samples_csv(src, rows)
        run("histogram", "--input", src, "--bins", 8, "--range", -3.2, 3.2, "--out", out, "--quiet")
        counts = [int(line.split(",")[2]) for line in out.read_text().strip().splitlines()]
        assert sum(counts) == 200

    def test_empty_input_exit_2(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("")
        code = run("histogram", "--input", src, "--bins", 4, "--range", 0, 1,
                   "--out", tmp_path / "h.csv", "--quiet")
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("0.1,abc\n", "'abc'"),
        ("0.1,0.2\n0.3\n", "rows of unequal length"),
        ("nan,0.1\n", "row 1 holds nan"),
        ("0.1,0.2\n0.3,-inf\n", "row 2 holds -inf"),
    ])
    def test_malformed_input_exit_2(self, tmp_path, capsys, text, message):
        src, out = tmp_path / "s.csv", tmp_path / "h.csv"
        src.write_text(text)
        assert run("histogram", "--input", src, "--bins", 4, "--range", 0, 1, "--out", out, "--quiet") == 2
        err = capsys.readouterr().err
        assert str(src) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi", [(0, "inf"), (-1, "inf"), (0, "nan"), (1, 0)])
    def test_bad_range_exit_2(self, tmp_path, capsys, lo, hi):
        src, out = tmp_path / "s.csv", tmp_path / "h.csv"
        serialize.write_samples_csv(src, np.array([[0.3]]))
        assert run("histogram", "--input", src, "--bins", 4, "--range", lo, hi, "--out", out, "--quiet") == 2
        assert "--range must be finite with LO < HI" in capsys.readouterr().err
        assert not out.exists()

    def test_uniform_angle_bins_within_5_sigma(self, tmp_path):
        from cmvkit.ensembles import EnsembleSpec, eigenvalue_samples

        count = 100000
        angles = eigenvalue_samples(EnsembleSpec("circular", 1, 2.0), count, RngStream(12))
        src, out = tmp_path / "s.csv", tmp_path / "h.csv"
        serialize.write_samples_csv(src, angles)
        run("histogram", "--input", src, "--bins", 4, "--range", -np.pi, np.pi,
            "--out", out, "--quiet")
        counts = np.array([int(line.split(",")[2]) for line in out.read_text().strip().splitlines()])
        assert counts.sum() == count
        sigma = np.sqrt(count * 0.25 * 0.75)
        assert np.abs(counts - count / 4).max() <= 5 * sigma


class TestParser:
    # flags set by one call and defaulted in the next, across subcommands
    SEQUENCE = [
        ["sample", "--family", "jacobi", "--n", "3", "--beta", "2", "--a", "0.5", "--b", "2", "--count", "2",
         "--seed", "1", "--out", "a.csv", "--coeffs-out", "c.json", "--quiet"],
        ["verify", "--suite", "canonical", "--n", "5", "--trials", "3", "--seed", "4", "--report", "r.json",
         "--quiet"],
        ["flow", "--random", "--n", "9", "--radius", "0.3", "--seed", "3", "--m", "2", "--part", "im",
         "--t", "1", "--dt", "0.01", "--method", "spectral", "--out", "f.json", "--quiet"],
        ["sample", "--family", "jacobi", "--n", "3", "--beta", "2", "--count", "2", "--seed", "1", "--out", "b.csv"],
        ["verify", "--suite", "jacobian"],
        ["flow", "--init", "v.json", "--t", "1", "--out", "g.json"],
        ["histogram", "--input", "a.csv", "--bins", "4", "--range", "0", "1", "--out", "h.csv"],
        ["spectral", "--input", "v.json", "--to", "measure", "--out", "m.json"],
    ]

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_cached_parser_parses_like_a_fresh_one(self):
        for argv in self.SEQUENCE + self.SEQUENCE[::-1]:
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_consecutive_calls_leak_no_defaults(self, tmp_path, capsys):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("sample", "--family", "jacobi", "--n", 3, "--beta", 2, "--a", 0.5, "--b", 2,
                   "--count", 2, "--seed", 1, "--out", first, "--coeffs-out", tmp_path / "c.json",
                   "--quiet") == 0
        assert run("verify", "--suite", "jacobian", "--n", 2, "--trials", 1, "--quiet") == 0
        assert run("sample", "--family", "jacobi", "--n", 3, "--beta", 2, "--count", 2, "--seed", 1,
                   "--out", second) == 0
        assert run("verify", "--suite", "jacobian", "--n", 2, "--trials", 1) == 0
        expected = tmp_path / "expected.csv"
        serialize.write_samples_csv(expected, eigenvalue_samples(EnsembleSpec("jacobi", 3, 2.0), 2, RngStream(1)))
        assert second.read_bytes() == expected.read_bytes() != first.read_bytes()
        captured = capsys.readouterr()
        # only the unquiet calls speak: the sample's progress and the verify line
        assert captured.out.startswith("[pass] spectral jacobian determinant")
        assert "wrote 2 rows" in captured.err and captured.err.count("sampled") == 1
