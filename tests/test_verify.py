import importlib
import json

import numpy as np
import pytest

import oracles
from cmvkit import serialize
from cmvkit.brackets import cotangent_residual
from cmvkit.ensembles import RngStream
from cmvkit.errors import InvalidParams
from cmvkit.verify import (
    MIN_N,
    SUITES,
    brackets_residuals,
    canonical_residuals,
    probe_separation,
    jacobian_residual,
    random_measure,
    run_suite,
    suite_brackets,
    suite_canonical,
    suite_cotangent,
    suite_jacobian,
)


class TestSuites:
    def test_brackets(self):
        report = suite_brackets(n=3, trials=3, seed=1)
        assert report["pass"]
        names = [i["name"] for i in report["identities"]]
        assert "coefficient bracket reconstruction" in names

    def test_canonical(self):
        assert suite_canonical(n=3, trials=2, seed=2)["pass"]

    def test_cotangent(self):
        assert suite_cotangent(n=3, trials=4, seed=3)["pass"]

    def test_jacobian(self):
        assert suite_jacobian(n=2, trials=4, seed=4)["pass"]

    def test_dispatch(self):
        assert run_suite("jacobian", 1, 2, 0)["suite"] == "jacobian"
        with pytest.raises(InvalidParams):
            run_suite("nope", 3, 1, 0)

    def test_report_is_json_ready(self):
        json.dumps(suite_jacobian(n=2, trials=2, seed=5))

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, suite, trials):
        with pytest.raises(InvalidParams):
            run_suite(suite, 4, trials, 0)

    def test_no_skips_reported(self):
        assert suite_jacobian(n=2, trials=3, seed=4)["skipped"] == 0


class TestDomain:
    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("below", [1, 2])
    def test_n_below_minimum_rejected_before_any_draw(self, suite, below, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a probe")

        monkeypatch.setattr("cmvkit.verify.random_verblunsky", no_draw)
        monkeypatch.setattr("cmvkit.verify.random_measure", no_draw)
        with pytest.raises(InvalidParams, match=f"{suite} suite needs n >= {MIN_N[suite]}"):
            run_suite(suite, MIN_N[suite] - below, 1, 0)

    @pytest.mark.parametrize("suite", SUITES)
    def test_minimum_n_runs(self, suite):
        assert run_suite(suite, MIN_N[suite], 2, 3)["pass"]

    def test_separations_keep_the_benchmark_probes(self):
        # the probe stream only changes where pi/n undercuts the old constant
        assert [probe_separation(0.35, n) for n in range(2, 9)] == [0.35] * 7
        assert [probe_separation(0.5, n) for n in range(3, 7)] == [0.5] * 4
        assert probe_separation(0.35, 9) < 0.35 and probe_separation(0.5, 7) < 0.5

    @pytest.mark.parametrize("suite", ["canonical", "cotangent"])
    def test_n_12_reachable(self, suite):
        report = run_suite(suite, 12, 2, 0)
        assert report["pass"], report

    @pytest.mark.parametrize("n", [9, 12, 16])
    def test_jacobian_beyond_n_8(self, n):
        report = run_suite("jacobian", n, 10, 0)
        assert report["pass"] and report["skipped"] == 0, report

    def test_jacobian_margin_keeps_the_benchmark_probes(self):
        for n in range(1, 5):
            a = random_measure(n, RngStream(n).generator())
            b = random_measure(n, RngStream(n).generator(), margin=0.35)
            assert np.array_equal(a.theta, b.theta) and np.array_equal(a.weights, b.weights)
        assert random_measure(5, RngStream(5).generator()).n == 5


class TestWorstProbe:
    @staticmethod
    def reevaluate(suite, identity, probe):
        if suite == "jacobian":
            return jacobian_residual(serialize.circle_measure_from_obj(probe))
        v = serialize.verblunsky_from_obj(probe)
        if suite == "brackets":
            return brackets_residuals(v)[identity]
        if suite == "canonical":
            return canonical_residuals(v)[identity]
        return abs(cotangent_residual(v, tuple(probe["labels"])))

    @pytest.mark.parametrize("suite,n,trials", [("brackets", 3, 3), ("canonical", 4, 3), ("cotangent", 4, 4), ("jacobian", 3, 4)])
    def test_recorded_probe_reproduces_max_residual(self, suite, n, trials):
        # through JSON, as a report file carries it
        report = json.loads(json.dumps(run_suite(suite, n, trials, 11)))
        for index, item in enumerate(report["identities"]):
            assert 0 <= item["worst_trial"] < trials
            assert self.reevaluate(suite, index, item["worst_probe"]) == item["max_residual"]

    def test_worst_trial_is_the_argmax(self, monkeypatch):
        seen = []

        def recorded(v):
            seen.append(canonical_residuals(v))
            return seen[-1]

        monkeypatch.setattr("cmvkit.verify.canonical_residuals", recorded)
        report = run_suite("canonical", 3, 5, 5)
        for index, item in enumerate(report["identities"]):
            per_trial = [res[index] for res in seen]
            assert item["worst_trial"] == int(np.argmax(per_trial))
            assert item["max_residual"] == max(per_trial)

    def test_nan_observable_is_not_a_pass(self, monkeypatch):
        # a NaN Im K_3 gradient makes the involution residual NaN, which fails
        from cmvkit.brackets import hamiltonian_gradients

        def nan_im_k3(v, degrees):
            rows = hamiltonian_gradients(v, degrees)
            rows[-1] = rows[-1].real + 1j * np.nan
            return rows

        monkeypatch.setattr("cmvkit.verify.hamiltonian_gradients", nan_im_k3)
        report = run_suite("brackets", 4, 3, 0)
        item = report["identities"][2]
        assert np.isnan(item["max_residual"]) and item["pass"] is False and report["pass"] is False

    @pytest.mark.parametrize("suite,row,failing", [("brackets", -1, [2]), ("canonical", 0, [0, 1])])
    def test_nan_bracket_reaches_the_report(self, suite, row, failing, monkeypatch):
        # a NaN gradient row (K_3 for brackets, theta_0 for canonical) must
        # surface in the worst residual of every identity that reads it
        import cmvkit.brackets as brackets

        name = {"brackets": "hamiltonian_gradients", "canonical": "spectral_gradients"}[suite]
        original = getattr(brackets, name)

        def nan_row(*args):
            out = original(*args)
            rows = out if suite == "brackets" else out[1]
            rows[row, 0] = np.nan
            return out

        monkeypatch.setattr(f"cmvkit.verify.{name}", nan_row)
        report = run_suite(suite, 3, 2, 0)
        assert [i for i, item in enumerate(report["identities"]) if np.isnan(item["max_residual"])] == failing
        assert report["pass"] is False

    def test_nan_residual_fails(self, monkeypatch):
        residuals = iter([1e-9, float("nan"), 1e-8])
        monkeypatch.setattr("cmvkit.verify.jacobian_residual", lambda mu: next(residuals))
        item = suite_jacobian(n=2, trials=3, seed=4)["identities"][0]
        assert item["worst_trial"] == 1 and item["pass"] is False


class TestOneSweepPerProbe:
    @staticmethod
    def count_calls(monkeypatch, name, module="cmvkit.brackets"):
        home = importlib.import_module(module)
        calls = []
        original = getattr(home, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(home, name, counted)
        return calls

    @pytest.mark.parametrize("suite", ["canonical", "cotangent"])
    def test_eigensolves_per_trial(self, suite, monkeypatch):
        # one eigensolve gives the probe's measure; its tangents need none
        calls = self.count_calls(monkeypatch, "unitary_eigensystem")
        run_suite(suite, 4, 3, 0)
        assert len(calls) == 3

    def test_cmv_builds_per_brackets_trial(self, monkeypatch):
        # one pair of L and M factors per trial, and no CMVMatrix
        factors = self.count_calls(monkeypatch, "lm_factors")
        builds = self.count_calls(monkeypatch, "build_cmv")
        run_suite("brackets", 4, 3, 0)
        assert (len(factors), len(builds)) == (3, 0)

    @pytest.mark.parametrize("suite", SUITES)
    def test_no_cmv_checks(self, suite, monkeypatch):
        # the CMV invariants are checked on reported flow states only
        calls = [self.count_calls(monkeypatch, "check_cmv", m) for m in ("cmvkit.core", "cmvkit.alflows")]
        run_suite(suite, max(3, MIN_N[suite]), 2, 0)
        assert calls == [[], []]

    @pytest.mark.parametrize(
        "suite,n",
        [(suite, n) for suite in ("brackets", "canonical", "cotangent") for n in (2, 3, 4, 6) if n >= MIN_N[suite]],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_reports_match_the_scalar_sweep(self, suite, n, seed):
        # every identity vanishes, so each residual is an error: the exact
        # one sits at rounding level, within the finite-difference oracle's
        # accuracy (its own residual on the same probes) of the oracle's
        report = run_suite(suite, n, 2, seed)
        expected = oracles.suite_residuals_scalar(suite, n, 2, seed)
        for item, oracle in zip(report["identities"], expected, strict=True):
            assert item["max_residual"] <= 1e-13
            assert abs(item["max_residual"] - oracle) <= max(oracle, 1e-13) <= 1e-3 * item["tolerance"]
