import pytest

from cmvkit.errors import BranchProximity, InvalidParams
from cmvkit.verify import SUITES, run_suite, suite_brackets, suite_canonical, suite_cotangent, suite_jacobian


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
        import json

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
