import json

import numpy as np
import pytest

import reference
from cmvkit import serialize
from cmvkit.brackets import cotangent_residual
from cmvkit.ensembles import RngStream
from cmvkit.errors import BranchProximity, InvalidParams, NonDifferentiable
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

    def test_skipped_trials_counted_and_fail(self, monkeypatch):
        def always_near_branch(mu):
            raise BranchProximity("forced")

        monkeypatch.setattr("cmvkit.verify.spectral_to_verblunsky_jacobian", always_near_branch)
        report = suite_jacobian(n=3, trials=4, seed=4)
        assert report["skipped"] == 4
        assert report["identities"][0]["pass"] is False and report["pass"] is False

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

    def test_unevaluated_identity_has_no_probe(self, monkeypatch):
        def always_near_branch(mu):
            raise BranchProximity("forced")

        monkeypatch.setattr("cmvkit.verify.spectral_to_verblunsky_jacobian", always_near_branch)
        item = suite_jacobian(n=3, trials=2, seed=4)["identities"][0]
        assert item["worst_trial"] is None and item["worst_probe"] is None

    def test_nan_observable_is_not_a_pass(self, monkeypatch):
        # Im K_3 is NaN at every stencil point: the gradient guard names it
        from cmvkit.brackets import trace_hamiltonians

        def nan_im_k3(w, ms):
            values = trace_hamiltonians(w, ms)
            values[-1] = np.nan
            return values

        monkeypatch.setattr("cmvkit.verify.trace_hamiltonians", nan_im_k3)
        with pytest.raises(NonDifferentiable, match="^Im K_3:"):
            run_suite("brackets", 4, 3, 0)

    @pytest.mark.parametrize("suite,row,failing", [("brackets", -1, [2]), ("canonical", 0, [0, 1])])
    def test_nan_bracket_reaches_the_report(self, suite, row, failing, monkeypatch):
        # a NaN gradient past the guard must surface in the worst residual
        import cmvkit.brackets as brackets

        original = brackets.coordinate_jacobian

        def nan_row(*args, **kwargs):
            grad, g1, g2 = original(*args, **kwargs)
            g1[row, 0] = g2[row, 0] = np.nan
            return grad, g1, g2

        monkeypatch.setattr(brackets, "coordinate_jacobian", nan_row)
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
    def count_calls(monkeypatch, name):
        import cmvkit.brackets as brackets

        calls = []
        original = getattr(brackets, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(brackets, name, counted)
        return calls

    @pytest.mark.parametrize("suite", ["canonical", "cotangent"])
    def test_eigensolves_per_trial(self, suite, monkeypatch):
        # one for the base labels, one per stencil point: 1 + 4 * 2(n - 1)
        calls = self.count_calls(monkeypatch, "unitary_eigensystem")
        run_suite(suite, 4, 1, 0)
        assert len(calls) == 25

    def test_cmv_builds_per_brackets_trial(self, monkeypatch):
        calls = self.count_calls(monkeypatch, "build_cmv")
        run_suite("brackets", 4, 1, 0)
        assert len(calls) == 24

    @pytest.mark.parametrize(
        "suite,n",
        [(suite, n) for suite in ("brackets", "canonical", "cotangent") for n in (2, 3, 4, 6) if n >= MIN_N[suite]],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_reports_match_the_scalar_sweep(self, suite, n, seed):
        report = run_suite(suite, n, 2, seed)
        expected = reference.suite_residuals_scalar(suite, n, 2, seed)
        assert [item["max_residual"] for item in report["identities"]] == expected
