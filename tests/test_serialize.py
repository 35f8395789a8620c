import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cmvkit import cli, serialize
from cmvkit.alflows import FlowHamiltonian, Trajectory, integrate_flow, spectral_trajectory
from cmvkit.core import SpectralMeasureCircle, VerblunskySet, build_cmv
from cmvkit.ensembles import RngStream, random_verblunsky
from cmvkit.errors import InvalidParams
from cmvkit.opuc import christoffel_measure, unitary_eigensystem
from cmvkit.verify import _measure_variates, random_measure

from oracles import (
    dump_json_loop,
    read_samples_csv_loop,
    trajectory_to_obj_loop,
    write_histogram_csv_loop,
    write_samples_csv_loop,
)

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3,
               123456789012345680.0, np.nan, np.inf, -np.inf]


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


class TestMeasureJson:
    def test_circle_round_trip(self, tmp_path):
        # a measure file loads back as the measure that was written, bit for
        # bit: the fields are a fixed point of SpectralMeasureCircle
        path = tmp_path / "m.json"
        for n in (1, 4, 16, 64):
            gen = np.random.default_rng(n)
            sets = [random_verblunsky(n, RngStream(s), radius=0.8) for s in range(4)]
            raw = np.array([_measure_variates(n, gen) for _ in range(4)])
            raw[:, 0] += 2.0 * np.pi * gen.integers(-1, 2, (4, n))
            families = [
                [SpectralMeasureCircle([-0.4, 1.3], [0.7, 0.3])],
                [random_measure(n, gen) for _ in range(4)],
                [SpectralMeasureCircle(t, w) for t, w in raw],
                [unitary_eigensystem(build_cmv(v)) for v in sets],
                [christoffel_measure(build_cmv(v)) for v in sets],
            ]
            for mus in families:
                serialize.dump_json([serialize.circle_measure_to_obj(mu) for mu in mus], path)
                objs = serialize.load_json(path)
                for mu, obj in zip(mus, objs):
                    again = serialize.circle_measure_from_obj(obj)
                    assert again.theta.tobytes() == mu.theta.tobytes()
                    assert again.weights.tobytes() == mu.weights.tobytes()

    @pytest.mark.parametrize("obj", [{}, {"points": 3}, {"points": [{"weight": 1.0}]},
                                     {"points": [{"theta": [], "weight": 1.0}]}])
    def test_malformed_circle_object_rejected(self, obj):
        # tests/test_cli.py also covers the parser through `cmv spectral`
        with pytest.raises(InvalidParams, match="malformed measure object"):
            serialize.circle_measure_from_obj(obj)


class TestTrajectoryJson:
    def test_round_trip(self, tmp_path):
        v = random_verblunsky(3, RngStream(3), radius=0.5)
        traj = integrate_flow(v, 1, "re", 0.05, 1e-2)
        path = tmp_path / "traj.json"
        serialize.dump_json(serialize.trajectory_to_obj(traj), path)
        again = serialize.trajectory_from_obj(serialize.load_json(path))
        for name in ("times", "alpha", "eig_drift", "unitarity"):
            assert getattr(traj, name).tobytes() == getattr(again, name).tobytes()

    @pytest.mark.parametrize("n", [1, 6, 64])
    @pytest.mark.parametrize("method", ["rk4", "spectral"])
    def test_flow_file_read_back_and_rewritten_is_byte_identical(self, tmp_path, n, method):
        # the rows are kept as written: no boundary is renormalized again
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert cli.main(["flow", "--random", "--n", str(n), "--seed", "5", "--t", "0.02", "--dt", "1e-3",
                         "--method", method, "--out", str(first), "--quiet"]) == 0
        serialize.dump_json(serialize.trajectory_to_obj(serialize.trajectory_from_obj(serialize.load_json(first))),
                            second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda o: o.pop("states"),
        lambda o: o["states"][1]["alpha"].pop(),
        lambda o: o["states"][1]["alpha"][0].append(0.0),
        lambda o: o["states"][1]["alpha"][0].__setitem__(0, "0.5"),
        lambda o: o["states"][1].__setitem__("n", 2.0),
        lambda o: o["states"][1].__setitem__("n", 3),
        lambda o: o["diagnostics"][0].pop("unitarity"),
        lambda o: o["diagnostics"].pop(),
        lambda o: o["times"].pop(),
        lambda o: o.__setitem__("states", []),
    ])
    def test_malformed_trajectory_object_rejected(self, edit):
        traj = integrate_flow(random_verblunsky(2, RngStream(4), radius=0.5), 1, "re", 0.02, 1e-2)
        obj = trajectory_to_obj_loop(traj)
        edit(obj)
        with pytest.raises(InvalidParams):
            serialize.trajectory_from_obj(obj)


    @pytest.mark.parametrize("index, value", [(1, "NaN"), (0, "NaN"), (2, "Infinity"), (0, "-Infinity")])
    def test_non_finite_time_rejected(self, index, value):
        # JSON text may spell NaN and Infinity, and a NaN passes any
        # comparison-based increasing check unless it fails on NaN
        traj = integrate_flow(random_verblunsky(2, RngStream(4), radius=0.5), 1, "re", 0.02, 1e-2)
        obj = trajectory_to_obj_loop(traj)
        obj["times"][index] = "@"
        text = json.dumps(obj).replace('"@"', value)
        with pytest.raises(InvalidParams, match="times must be finite"):
            serialize.trajectory_from_obj(json.loads(text))

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


def written_by_both(write, oracle, *args):
    """The bytes write and its oracle put in a file for the same arguments."""
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours", Path(tmp) / "theirs"
        write(ours, *args)
        oracle(theirs, *args)
        return ours.read_bytes(), theirs.read_bytes()


def edge_rows(shape, seed=0):
    """Wide-range floats with every edge value in the first rows."""
    gen = RngStream(seed).generator()
    values = gen.normal(size=shape) * 10.0 ** gen.integers(-300, 300, size=shape)
    flat = values.reshape(-1)
    flat[: len(EDGE_FLOATS)] = EDGE_FLOATS[: flat.size]
    return values


class TestSamplesCsvWriter:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 64), (13, 1), (4095, 2), (4096, 2), (4097, 2),
                                       (8193, 3), (256, 64), (0, 3), (3, 0)])
    def test_bytes_equal_the_per_float_loop(self, shape):
        ours, theirs = written_by_both(serialize.write_samples_csv, write_samples_csv_loop, edge_rows(shape))
        assert ours == theirs

    @pytest.mark.parametrize("rows", [2.5, [0.5, -0.0, np.nan], [[1, 2], [3, 4]]])
    def test_scalars_vectors_and_ints(self, rows):
        ours, theirs = written_by_both(serialize.write_samples_csv, write_samples_csv_loop, rows)
        assert ours == theirs

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9)))
    def test_any_floats(self, rows):
        ours, theirs = written_by_both(serialize.write_samples_csv, write_samples_csv_loop, rows)
        assert ours == theirs


class TestHistogramCsvWriter:
    @pytest.mark.parametrize("edges,counts", [
        ([0.0, 0.5, 1.0], [3, 4]),
        ([-0.0, 5e-324, 1e308], [0, 2**52]),
        (np.linspace(-3.1416, 3.1416, 65), RngStream(5).generator().integers(0, 10**9, 64)),
        ([1.0], []),
    ])
    def test_bytes_equal_the_per_bin_loop(self, edges, counts):
        edges, counts = np.array(edges, dtype=float), np.array(counts, dtype=np.int64)
        ours, theirs = written_by_both(serialize.write_histogram_csv, write_histogram_csv_loop, edges, counts)
        assert ours == theirs


def read_both(text: str):
    """What the reader and its oracle make of a file holding text: the
    array, or the InvalidParams message."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.csv"
        path.write_bytes(text.encode("utf-8"))
        for read in (serialize.read_samples_csv, read_samples_csv_loop):
            try:
                results.append(read(path))
            except InvalidParams as exc:
                results.append(str(exc))
    return results


def assert_same_reading(ours, theirs):
    assert type(ours) is type(theirs)
    if isinstance(ours, str):
        assert ours == theirs
    else:
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


EDGE_TOKENS = [" 2", "1_0", "\u0967\u0968", "1e400", "-1e400", "0x1p3", "", "1.5e", "abc", "nan", "-inf",
               "Infinity", "5e-324", "-0.0", "1e-400", "+.5", "\x0c3", "1 2", "0.1"]


class TestSamplesCsvReader:
    @pytest.mark.parametrize("text", [
        "", "\n\n", "  \n\t\n", "1,2\n3,4\n", "1,2\r\n3,4\r\n", "1,2\r3,4", "\n1,2\n\n 3,4 \n\n",
        "1,2,3\n4\n5,6\n", "1,2\n3\n", "1\n2\n3", "1,2\n3,abc\n", "1,,2\n", "nan,1\n", "1,2\n-inf,0\n",
        "5e-324,-0.0,1e308\n", "1,2\n3,4\n5,x,6\n",
    ])
    def test_equals_the_per_token_reader(self, text):
        assert_same_reading(*read_both(text))

    @pytest.mark.parametrize("token", EDGE_TOKENS)
    def test_edge_tokens(self, token):
        assert_same_reading(*read_both(f"0.5,{token}\n{token},1\n"))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.sampled_from(EDGE_TOKENS) | st.floats().map(repr)
                             | st.text(alphabet=" 0123456789.e-+_naif\t", max_size=6),
                             min_size=1, max_size=4), max_size=5),
           st.sampled_from(["\n", "\r\n", "\r", "\n \n"]))
    def test_any_token_grid(self, rows, newline):
        text = newline.join(",".join(row) for row in rows)
        assert_same_reading(*read_both(text))


def long_csv(rows, edits=(), width=2, newline="\n"):
    """rows sample rows of width tokens, row i (counted from 0) replaced by
    the text of edits where it names one; a "" edit is a blank line, which
    is no row."""
    lines = [",".join(f"{i}.{k}25" for k in range(width)) for i in range(rows)]
    for i, text in dict(edits).items():
        lines[i] = text
    return newline.join(lines) + newline


B = serialize.CSV_BLOCK
# files past one CSV_BLOCK of lines whose defects lie in different blocks
LONG_CSVS = {
    "clean": long_csv(3 * B + 5),
    "clean-crlf-blank-lines": long_csv(2 * B + 9, {0: "", B - 1: "", B: " ", 2 * B + 3: ""}, newline="\r\n"),
    "clean-one-column": long_csv(B + 1, width=1),
    "ragged-late-bad-token-early": long_csv(3 * B, {10: "1,abc", 2 * B + 7: "1,2,3"}),
    "ragged-late-non-finite-early": long_csv(3 * B, {5: "nan,1", 3 * B - 1: "1"}),
    "ragged-across-blocks": long_csv(B, width=2) + long_csv(B, width=3),
    "non-finite-in-block-2": long_csv(3 * B, {B + 17: "0.5,-inf"}),
    "non-finite-in-block-2-after-blank-lines": long_csv(3 * B, {3: "", 4: " ", B + 17: "inf,0.5"}),
    "non-finite-in-blocks-2-and-3": long_csv(3 * B, {2 * B + 1: "nan,0", B + 2: "0,1e400"}),
    "bad-token-late-non-finite-early": long_csv(3 * B, {1: "nan,0", 2 * B + 9: "0,x"}),
    "bad-tokens-in-blocks-2-and-4": long_csv(4 * B, {B + 3: "0,1.5e", 3 * B: "abc,0"}),
    "non-finite-at-block-edge": long_csv(2 * B, {B - 1: "0,nan", B: "inf,0"}),
}


class TestSamplesCsvBlocks:
    @pytest.mark.parametrize("name", LONG_CSVS)
    def test_equals_the_per_token_reader(self, name):
        ours, theirs = read_both(LONG_CSVS[name])
        assert_same_reading(ours, theirs)
        assert isinstance(ours, np.ndarray) == name.startswith("clean")

    @pytest.mark.parametrize("name", LONG_CSVS)
    def test_histogram_equals_binning_the_whole_file(self, tmp_path, capsys, name):
        src, out, expected = tmp_path / "s.csv", tmp_path / "h.csv", tmp_path / "e.csv"
        src.write_bytes(LONG_CSVS[name].encode("utf-8"))
        code = cli.main(["histogram", "--input", str(src), "--bins", "16", "--range", "0", "4000",
                         "--out", str(out), "--quiet"])
        try:
            data = read_samples_csv_loop(src)
        except InvalidParams as exc:
            assert code == 2 and capsys.readouterr().err == f"error: {exc}\n" and not out.exists()
            return
        assert code == 0
        write_histogram_csv_loop(expected, *np.histogram(data.reshape(-1), bins=16, range=(0, 4000))[::-1])
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("name", ["ragged-late-bad-token-early", "non-finite-in-block-2"])
    def test_a_defect_comes_before_a_bad_range(self, tmp_path, capsys, name):
        src = tmp_path / "s.csv"
        src.write_bytes(LONG_CSVS[name].encode("utf-8"))
        code = cli.main(["histogram", "--input", str(src), "--bins", "4", "--range", "1", "0",
                         "--out", str(tmp_path / "h.csv"), "--quiet"])
        with pytest.raises(InvalidParams) as oracle:
            read_samples_csv_loop(src)
        assert code == 2 and capsys.readouterr().err == f"error: {oracle.value}\n"

    def test_blank_blocks_hold_no_samples(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        src.write_text("\n \n" * B)
        code = cli.main(["histogram", "--input", str(src), "--bins", "4", "--range", "1", "0",
                         "--out", str(tmp_path / "h.csv"), "--quiet"])
        assert code == 2 and capsys.readouterr().err == f"error: no samples in {src}\n"

    def test_bad_utf8_late_in_the_file_names_its_offset(self, tmp_path):
        # lines are decoded in chunks; the message gives the byte offset in
        # the whole file, as a read of the whole file does
        text = long_csv(3 * B).encode("utf-8")
        src = tmp_path / "s.csv"
        src.write_bytes(text + b"0.5,\xff1\n")
        with pytest.raises(InvalidParams) as err:
            serialize.read_samples_csv(src)
        assert str(err.value) == f"cannot read {src}: not UTF-8 text (invalid start byte at byte {len(text) + 4})"

    def test_reading_50000_rows_keeps_memory_bounded(self, tmp_path):
        # the array the reader returns is 0.8 MB; parsing a block at a time
        # keeps the peak of traced allocations within 3 MiB of it (2.2 MB in
        # all), where one str per line and per token of the file took 14 MB
        rows = RngStream(8).generator().uniform(-np.pi, np.pi, size=(50000, 2))
        src = tmp_path / "s.csv"
        serialize.write_samples_csv(src, rows)
        tracemalloc.start()
        try:
            data = serialize.read_samples_csv(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.tobytes() == rows.tobytes()
        assert peak <= data.nbytes + 3 * 2**20, peak


def non_finite_trajectory():
    v = random_verblunsky(3, RngStream(6), radius=0.5)
    traj = spectral_trajectory(v, FlowHamiltonian.matching_lax_flow(1, "re"), 0.003, 1e-3)
    return Trajectory(traj.times, traj.alpha, np.array([0.0, np.nan, np.inf, 1e-17]),
                      np.array([-np.inf, 5e-324, 0.0, -0.0]))


JSON_CASES = [
    np.float64(0.1), [np.float64(-0.0), np.float64(np.nan), np.float64(-np.inf)], True, False, None,
    0, -7, 2**70, [], {}, [[], {}, [[]]], {"a": [], "b": {}},
    {"50%": "100%s", "%d": ["%", "%%r", "%(x)s"]}, "\u00e9\u2028\"\\/\x00",
    [1.5, -0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf],
    {"x": np.array([[1.0, -0.0], [5e-324, 1e308]]), "y": [np.array([0.25]), np.array([0.25])],
     "z": np.array([0.75])},
    np.array(2.5), np.zeros(0), np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((2, 1, 3)),
    {"a": np.array([1.0, np.nan, -np.inf]), "b": np.array([0.5]), "c": 0.1},
    np.arange(4).reshape(2, 2), np.array([True, False]), np.float32([0.1, 2.0]), (1, 2.0, "t"),
    # past serialize.JSON_CHUNK floats: one array, and many with text between them
    [np.linspace(-1.0, 1.0, 70001)],
    {"%": [{"a%s": np.full((2, 300, 2), 1 / 3) * k} for k in range(60)], "t": "%r"},
    # objects of one layout, in one block and past JSON_CHUNK values in many
    serialize.Records({"n": 3, "%s": "%r", "alpha": np.arange(24.0).reshape(4, 3, 2), "u": np.zeros(4)}),
    {"r": serialize.Records({"a": np.zeros((0, 2))}), "s": [serialize.Records({"x": np.array([np.nan, -0.0])})]},
    serialize.Records({"x": np.linspace(0.0, 1.0, 40001), "y": np.full((40001, 1), -1e-300), "z": None}),
    # NaN and infinities past the first JSON_CHUNK values: in a later piece
    # only, and inside a first piece that runs past JSON_CHUNK
    [np.linspace(-1.0, 1.0, 70001), np.array([np.nan, 1.0, -np.inf]), np.array([np.inf])],
    {"a": np.where(np.arange(70001) == 66000, np.nan, 0.5), "b": np.array([1e-300])},
    serialize.Records({"x": np.where(np.arange(40001) % 9999 == 0, np.inf, 0.25), "y": np.full((40001, 1), np.nan)}),
]


def dumped_by_both(obj):
    return written_by_both(lambda path: serialize.dump_json(obj, path), lambda path: dump_json_loop(obj, path))


class TestDumpJson:
    @pytest.mark.parametrize("obj", JSON_CASES)
    def test_bytes_equal_json_dump(self, obj):
        ours, theirs = dumped_by_both(obj)
        assert ours == theirs

    @pytest.mark.parametrize("traj", [non_finite_trajectory(), integrate_flow(
        random_verblunsky(6, RngStream(7), radius=0.6), 2, "im", 0.05, 1e-2)])
    def test_trajectory_bytes_equal_json_dump(self, traj):
        ours, theirs = dumped_by_both(serialize.trajectory_to_obj(traj))
        assert ours == theirs == dumped_by_both(trajectory_to_obj_loop(traj))[1]
        assert dumped_by_both(trajectory_to_obj_loop(traj))[0] == ours

    @pytest.mark.parametrize("fields", [{}, {"n": 1}, {"a": np.zeros(2), "b": np.zeros(3)},
                                        {"a": np.zeros(2, dtype=int)}, {"a": np.float64(1.0)}])
    def test_records_need_float_rows(self, fields):
        with pytest.raises(TypeError):
            serialize.Records(fields)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 4).flatmap(lambda rows: st.dictionaries(
        st.text(max_size=3),
        hnp.arrays(np.float64, st.tuples(st.just(rows)) | st.tuples(st.just(rows), st.integers(0, 3)))
        | st.none() | st.integers() | st.floats() | st.text(max_size=3),
        min_size=1, max_size=4,
    ).filter(lambda d: any(isinstance(v, np.ndarray) for v in d.values()))))
    def test_any_records(self, fields):
        ours, theirs = dumped_by_both(serialize.Records(fields))
        assert ours == theirs

    @pytest.mark.parametrize("obj", [1j, np.int64(3), {1: 2.0}, object()])
    def test_unserializable_values_raise(self, tmp_path, obj):
        with pytest.raises(TypeError):
            serialize.dump_json([obj], tmp_path / "x.json")
        assert not (tmp_path / "x.json").exists()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
        | hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=12,
    ))
    def test_any_tree(self, obj):
        ours, theirs = dumped_by_both(obj)
        assert ours == theirs
