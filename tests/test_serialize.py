import numpy as np
import pytest

from cmvkit import serialize
from cmvkit.alflows import FlowHamiltonian, integrate_flow, spectral_trajectory
from cmvkit.core import SpectralMeasureCircle, SpectralMeasureLine, VerblunskySet
from cmvkit.ensembles import RngStream, random_verblunsky
from cmvkit.errors import InvalidParams

from oracles import trajectory_to_obj_loop


class TestVerblunskyJson:
    def test_round_trip_exact(self):
        v = random_verblunsky(6, RngStream(1))
        obj = serialize.verblunsky_to_obj(v)
        again = serialize.verblunsky_from_obj(obj)
        assert np.array_equal(v.alpha, again.alpha)

    def test_schema_shape(self):
        v = VerblunskySet([0.25 - 0.5j, 1j])
        obj = serialize.verblunsky_to_obj(v)
        assert obj["n"] == 2
        assert obj["alpha"] == [[0.25, -0.5], [0.0, 1.0]]

    def test_pair_count_enforced(self):
        with pytest.raises(InvalidParams):
            serialize.verblunsky_from_obj({"n": 3, "alpha": [[0.0, 0.0]]})

    def test_file_round_trip(self, tmp_path):
        v = random_verblunsky(4, RngStream(2))
        path = tmp_path / "v.json"
        serialize.dump_json(serialize.verblunsky_to_obj(v), path)
        again = serialize.verblunsky_from_obj(serialize.load_json(path))
        assert np.array_equal(v.alpha, again.alpha)


class TestMatrixJson:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0.5], [-1j, 3.0]])
        again = serialize.matrix_from_obj(serialize.matrix_to_obj(m))
        assert np.array_equal(m, again)

    def test_bad_entry_count(self):
        with pytest.raises(InvalidParams):
            serialize.matrix_from_obj({"rows": 2, "cols": 2, "entries": [[0.0, 0.0]]})


class TestMeasureJson:
    def test_circle_round_trip(self):
        mu = SpectralMeasureCircle([-0.4, 1.3], [0.7, 0.3])
        again = serialize.circle_measure_from_obj(serialize.circle_measure_to_obj(mu))
        assert np.array_equal(mu.theta, again.theta)
        assert np.array_equal(mu.weights, again.weights)

    def test_line_round_trip(self):
        nu = SpectralMeasureLine([-1.0, 0.3, 2.0], [0.2, 0.3, 0.5])
        again = serialize.line_measure_from_obj(serialize.line_measure_to_obj(nu))
        assert np.array_equal(nu.x, again.x)
        assert np.array_equal(nu.weights, again.weights)

    @pytest.mark.parametrize("obj", [{}, {"points": 3}, {"points": [{"weight": 1.0}]},
                                     {"points": [{"x": [], "weight": 1.0}]}])
    def test_malformed_line_object_rejected(self, obj):
        # the circle reader shares this parser; tests/test_cli.py covers it through `cmv spectral`
        with pytest.raises(InvalidParams, match="malformed measure object"):
            serialize.line_measure_from_obj(obj)


class TestTrajectoryJson:
    def test_round_trip(self, tmp_path):
        v = random_verblunsky(3, RngStream(3), radius=0.5)
        traj = integrate_flow(v, 1, "re", 0.05, 1e-2)
        path = tmp_path / "traj.json"
        serialize.dump_json(serialize.trajectory_to_obj(traj), path)
        again = serialize.trajectory_from_obj(serialize.load_json(path))
        assert np.array_equal(traj.times, again.times)
        assert np.array_equal(traj.alpha_matrix(), again.alpha_matrix())
        assert np.array_equal(traj.eig_drift, again.eig_drift)


    @pytest.mark.parametrize("n", [1, 6, 64])
    def test_file_equals_the_per_float_build(self, tmp_path, n):
        v = random_verblunsky(n, RngStream(n), radius=0.6)
        traj = spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), 0.01, 1e-3)
        serialize.dump_json(serialize.trajectory_to_obj(traj), tmp_path / "a.json")
        serialize.dump_json(trajectory_to_obj_loop(traj), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert serialize.verblunsky_to_obj(v) == trajectory_to_obj_loop(traj)["states"][0]


class TestCsv:
    def test_samples_round_trip(self, tmp_path):
        rows = RngStream(4).generator().normal(size=(7, 3))
        path = tmp_path / "s.csv"
        serialize.write_samples_csv(path, rows)
        again = serialize.read_samples_csv(path)
        assert np.array_equal(rows, again)

    def test_histogram_format(self, tmp_path):
        path = tmp_path / "h.csv"
        serialize.write_histogram_csv(path, np.array([0.0, 0.5, 1.0]), np.array([3, 4]))
        lines = path.read_text().strip().splitlines()
        assert lines == ["0,0.5,3", "0.5,1,4"]
