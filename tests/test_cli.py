import json

import numpy as np
import pytest

from cmvkit import serialize
from cmvkit.cli import main
from cmvkit.ensembles import RngStream, random_verblunsky


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_random_without_seed_exit_2(self, tmp_path):
        code = run("flow", "--random", "--n", 3, "--t", 0.1, "--out", tmp_path / "t.json", "--quiet")
        assert code == 2


class TestSpectral:
    def test_round_trip(self, tmp_path):
        v = random_verblunsky(5, RngStream(6), radius=0.7)
        cfile, mfile, back = tmp_path / "c.json", tmp_path / "m.json", tmp_path / "b.json"
        serialize.dump_json(serialize.verblunsky_to_obj(v), cfile)
        assert run("spectral", "--input", cfile, "--to", "measure", "--out", mfile, "--quiet") == 0
        assert run("spectral", "--input", mfile, "--to", "coeffs", "--out", back, "--quiet") == 0
        again = serialize.verblunsky_from_obj(serialize.load_json(back))
        assert np.abs(again.alpha - v.alpha).max() <= 1e-8


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

    def test_all_trials_skipped_exit_4(self, monkeypatch, capsys):
        from cmvkit.errors import BranchProximity

        def always_near_branch(mu):
            raise BranchProximity("forced")

        monkeypatch.setattr("cmvkit.verify.spectral_to_verblunsky_jacobian", always_near_branch)
        assert run("verify", "--suite", "jacobian", "--n", 3, "--trials", 2) == 4
        assert "skipped 2 of 2 trials" in capsys.readouterr().out

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


class TestThreading:
    def test_thread_env_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMV_THREADS", "2")
        a = tmp_path / "a.csv"
        assert run("sample", "--family", "circular", "--n", 2, "--beta", 1,
                   "--count", 200, "--seed", 11, "--out", a, "--quiet") == 0
        monkeypatch.setenv("CMV_THREADS", "1")
        b = tmp_path / "b.csv"
        assert run("sample", "--family", "circular", "--n", 2, "--beta", 1,
                   "--count", 200, "--seed", 11, "--out", b, "--quiet") == 0
        assert a.read_bytes() == b.read_bytes()
