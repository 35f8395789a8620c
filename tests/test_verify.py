import importlib
import json

import numpy as np
import pytest

import oracles
from cmvkit import serialize
from cmvkit.brackets import cotangent_residual
from cmvkit.core import circular_gaps
from cmvkit.ensembles import RngStream
from cmvkit.errors import InvalidParams
from cmvkit.verify import (
    MIN_N,
    SUITES,
    W_LO,
    brackets_residuals,
    canonical_residuals,
    jacobian_residual,
    random_measure,
    run_suite,
)


class TestSuites:
    def test_brackets(self):
        report = run_suite("brackets", 3, 3, 1)
        assert report["pass"]
        names = [i["name"] for i in report["identities"]]
        assert "coefficient bracket reconstruction" in names

    def test_canonical(self):
        assert run_suite("canonical", 3, 2, 2)["pass"]

    def test_cotangent(self):
        assert run_suite("cotangent", 3, 4, 3)["pass"]

    def test_jacobian(self):
        assert run_suite("jacobian", 2, 4, 4)["pass"]

    def test_dispatch(self):
        assert run_suite("jacobian", 1, 2, 0)["suite"] == "jacobian"
        with pytest.raises(InvalidParams):
            run_suite("nope", 3, 1, 0)

    def test_report_is_json_ready(self):
        json.dumps(run_suite("jacobian", 2, 2, 5))

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, suite, trials):
        with pytest.raises(InvalidParams):
            run_suite(suite, 4, trials, 0)

    def test_report_keys(self):
        # no probe is ever skipped, so the report carries no skip count
        report = run_suite("jacobian", 2, 3, 4)
        assert list(report) == ["suite", "n", "trials", "seed", "identities", "pass"]


class TestDomain:
    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("below", [1, 2])
    def test_n_below_minimum_rejected_before_any_draw(self, suite, below, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a probe")

        monkeypatch.setattr("cmvkit.verify.random_verblunsky", no_draw)
        monkeypatch.setattr("cmvkit.verify.random_measure", no_draw)
        monkeypatch.setattr("cmvkit.verify._measure_variates", no_draw)
        with pytest.raises(InvalidParams, match=f"{suite} suite needs n >= {MIN_N[suite]}"):
            run_suite(suite, MIN_N[suite] - below, 1, 0)

    @pytest.mark.parametrize("suite", SUITES)
    def test_minimum_n_runs(self, suite):
        assert run_suite(suite, MIN_N[suite], 2, 3)["pass"]

    @pytest.mark.parametrize("suite", SUITES)
    def test_n_64_reachable(self, suite):
        # the README's advertised size, drawn and passed by every suite
        report = run_suite(suite, 64, 2, 0)
        assert report["pass"], report

    @pytest.mark.parametrize("n", [9, 12, 16])
    def test_jacobian_beyond_n_8(self, n):
        report = run_suite("jacobian", n, 10, 0)
        assert report["pass"], report


class TestRandomMeasure:
    SIZES = (1, 2, 3, 6, 64)

    @pytest.mark.parametrize("n", SIZES)
    def test_deterministic_per_seed(self, n):
        a, b = (random_measure(n, RngStream(7).generator()) for _ in range(2))
        assert a.theta.tobytes() == b.theta.tobytes() and a.weights.tobytes() == b.weights.tobytes()
        other = random_measure(n, RngStream(8).generator())
        assert not np.array_equal(a.theta, other.theta)

    @pytest.mark.parametrize("n", SIZES)
    def test_gaps_at_least_pi_over_n(self, n):
        # one angle per arc of 2 pi / n, each within a quarter arc of its
        # centre; the bound holds up to the rounding of the angles
        gen = RngStream(n).generator()
        for _ in range(50):
            assert circular_gaps(random_measure(n, gen).theta).min() >= np.pi / n * (1.0 - 1e-12)

    @pytest.mark.parametrize("n", SIZES)
    def test_weights(self, n):
        # raw weights in [W_LO, 1] leave every ratio of normalized weights
        # within [W_LO, 1 / W_LO]
        gen = RngStream(n).generator()
        for _ in range(50):
            w = random_measure(n, gen).weights
            assert abs(w.sum() - 1.0) <= 1e-15 and np.all(w > 0.0)
            assert w.max() * W_LO <= w.min() * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", SIZES)
    def test_fixed_variates_per_draw(self, n):
        # 2n + 1 uniforms per draw, whatever they are: nothing is redrawn
        gen, replay = RngStream(3).generator(), RngStream(3).generator()
        for _ in range(5):
            random_measure(n, gen)
            replay.random(2 * n + 1)
            assert gen.bit_generator.state == replay.bit_generator.state


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

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_record_reproduces_its_residual(self, suite):
        # the suites evaluate the probes they draw and record only the
        # worst; a coefficient set and a measure are fixed points of their
        # fields, so each record loads as the probe that was evaluated
        for seed in range(20):
            report = json.loads(json.dumps(run_suite(suite, 5, 3, seed)))
            for index, item in enumerate(report["identities"]):
                assert self.reevaluate(suite, index, item["worst_probe"]) == item["max_residual"], seed

    def test_worst_trial_is_the_argmax(self, monkeypatch):
        self.check_worst_trial_is_the_argmax(None, monkeypatch)

    @pytest.mark.parametrize("probes_per_block", [1, 3])
    def test_worst_trial_is_the_argmax_across_blocks(self, probes_per_block, monkeypatch):
        self.check_worst_trial_is_the_argmax(probes_per_block, monkeypatch)

    @staticmethod
    def check_worst_trial_is_the_argmax(probes_per_block, monkeypatch):
        # the stacked residuals of every block, one tuple per trial in order
        seen = []

        def recorded(v):
            out = canonical_residuals(v)
            seen.extend(zip(*out))
            return out

        monkeypatch.setattr("cmvkit.verify.canonical_residuals", recorded)
        if probes_per_block:
            monkeypatch.setattr("cmvkit.verify.SUITE_BLOCK", probes_per_block * 3 * 5)
        report = run_suite("canonical", 3, 5, 5)
        assert len(seen) == 5
        for index, item in enumerate(report["identities"]):
            per_trial = [res[index] for res in seen]
            assert item["worst_trial"] == int(np.argmax(per_trial))
            assert item["max_residual"] == max(per_trial)

    def test_nan_observable_is_not_a_pass(self, monkeypatch):
        # a NaN Im K_3 gradient makes the involution residual NaN, which fails
        from cmvkit.brackets import hamiltonian_gradients

        def nan_im_k3(v, degrees):
            rows = hamiltonian_gradients(v, degrees)
            rows[..., -1, :] = rows[..., -1, :].real + 1j * np.nan
            return rows

        monkeypatch.setattr("cmvkit.verify.hamiltonian_gradients", nan_im_k3)
        report = run_suite("brackets", 4, 3, 0)
        item = report["identities"][2]
        assert np.isnan(item["max_residual"]) and item["pass"] is False and report["pass"] is False

    @pytest.mark.parametrize("suite,row,failing", [("brackets", -1, [2]), ("canonical", 0, [0, 1])])
    def test_nan_bracket_reaches_the_report(self, suite, row, failing, monkeypatch):
        # a NaN gradient row (K_3 for brackets, theta_0 for canonical) of
        # every probe of the stack must surface in the worst residual of
        # every identity that reads it
        import cmvkit.brackets as brackets

        name = {"brackets": "hamiltonian_gradients", "canonical": "spectral_gradients"}[suite]
        original = getattr(brackets, name)

        def nan_row(*args):
            out = original(*args)
            rows = out if suite == "brackets" else out[1]
            rows[..., row, 0] = np.nan
            return out

        monkeypatch.setattr(f"cmvkit.verify.{name}", nan_row)
        report = run_suite(suite, 3, 2, 0)
        assert [i for i, item in enumerate(report["identities"]) if np.isnan(item["max_residual"])] == failing
        assert report["pass"] is False

    def test_nan_residual_fails(self, monkeypatch):
        self.check_nan_residual_fails(None, monkeypatch)

    @pytest.mark.parametrize("probes_per_block", [1, 2])
    def test_nan_residual_fails_across_blocks(self, probes_per_block, monkeypatch):
        self.check_nan_residual_fails(probes_per_block, monkeypatch)

    @staticmethod
    def check_nan_residual_fails(probes_per_block, monkeypatch):
        # the NaN of trial 1 ranks above both finite residuals, in its
        # block and across blocks
        residuals = iter([1e-9, float("nan"), 1e-8])
        monkeypatch.setattr("cmvkit.verify.jacobian_residual",
                            lambda mu: np.array([next(residuals) for _ in range(mu.theta.shape[0])]))
        if probes_per_block:
            monkeypatch.setattr("cmvkit.verify.SUITE_BLOCK", probes_per_block * 2 * 3)
        item = run_suite("jacobian", 2, 3, 4)["identities"][0]
        assert item["worst_trial"] == 1 and item["pass"] is False


class TestBlocks:
    CASES = [(suite, n) for suite in SUITES for n in (1, 2, 3, 4, 6) if n >= MIN_N[suite]]

    @pytest.mark.parametrize("suite,n", CASES)
    @pytest.mark.parametrize("block", [1, 3])
    def test_report_does_not_depend_on_the_block(self, suite, n, block, monkeypatch):
        # the block bounds memory only: a report is byte-identical whether
        # the probes run one at a time, three at a time (a SUITE_BLOCK of 1,
        # or 3 probes' entries) or in the default blocks
        default = json.dumps(run_suite(suite, n, 7, 3))
        entries = 1 if block == 1 else block * n * (2 * n - 1)
        monkeypatch.setattr("cmvkit.verify.SUITE_BLOCK", entries)
        assert json.dumps(run_suite(suite, n, 7, 3)) == default

    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("probes_per_block", [None, 4])
    def test_records_only_for_worst_probes(self, suite, probes_per_block, monkeypatch):
        # the stack a suite draws is what it evaluates; a JSON record is
        # built only for the worst probe of each identity in each block
        from cmvkit import verify

        built = []
        for name in ("verblunsky_to_obj", "circle_measure_to_obj"):
            monkeypatch.setattr(verify, name, lambda probe, build=getattr(verify, name): built.append(1) or build(probe))
        blocks = 1
        if probes_per_block:
            monkeypatch.setattr(verify, "SUITE_BLOCK", probes_per_block * 3 * 5)
            blocks = 20 // probes_per_block
        report = run_suite(suite, 3, 20, 0)
        assert 0 < len(built) <= len(report["identities"]) * blocks

    def test_block_size(self):
        # the benchmark's sizes run in one block, n = 64 one probe at a time
        from cmvkit import verify

        assert max(verify.SUITE_BLOCK // (4 * 7), 1) >= 4
        assert max(verify.SUITE_BLOCK // (64 * 127), 1) == 1

    def test_memory_is_bounded_by_the_block(self):
        # n = 64 runs one probe per block, so 12 trials peak as 2 do
        import tracemalloc

        def peak(trials):
            run_suite("jacobian", 64, 1, 0)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                run_suite("jacobian", 64, trials, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(12) <= 1.5 * peak(2)


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
        self.check_eigensolves(suite, None, monkeypatch)

    @pytest.mark.parametrize("suite", ["canonical", "cotangent"])
    def test_eigensolves_one_probe_per_block(self, suite, monkeypatch):
        self.check_eigensolves(suite, 1, monkeypatch)

    @staticmethod
    def check_eigensolves(suite, probes_per_block, monkeypatch):
        # one eigensolved matrix gives each probe's measure, its tangents
        # need none; one batched eig per block
        import cmvkit.brackets as brackets

        matrices, original = [], brackets.unitary_eigensystem

        def counted(C):
            matrices.append(int(np.prod(C.entries.shape[:-2])))
            return original(C)

        monkeypatch.setattr(brackets, "unitary_eigensystem", counted)
        if probes_per_block:
            monkeypatch.setattr("cmvkit.verify.SUITE_BLOCK", probes_per_block * 4 * 7)
        run_suite(suite, 4, 3, 0)
        assert sum(matrices) == 3
        assert len(matrices) == (3 if probes_per_block else 1)

    def test_cmv_builds_per_brackets_trial(self, monkeypatch):
        # one banded kernel call (one pair of L and M bands) per trial, all
        # in one block, and no dense factors or CMVMatrix
        kernel = self.count_calls(monkeypatch, "_trace_gradient_blocks")
        factors = self.count_calls(monkeypatch, "lm_factors", "cmvkit.core")
        builds = self.count_calls(monkeypatch, "build_cmv")
        run_suite("brackets", 4, 3, 0)
        assert (len(kernel), len(factors), len(builds)) == (3, 0, 0)

    @pytest.mark.parametrize("suite", SUITES)
    def test_no_cmv_checks(self, suite, monkeypatch):
        # the CMV invariants are checked on reported flow states only
        calls = self.count_calls(monkeypatch, "check_cmv_band", "cmvkit.alflows")
        run_suite(suite, max(3, MIN_N[suite]), 2, 0)
        assert calls == []

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
