"""The names the benchmark's span tracer wraps must exist in the package.

`perfbench/spans.py` rebinds every (module, attribute) of its LAYERS
table and patches `cmvkit.brackets.Observable.__call__`.  A rename in the
package also fails `perfbench/test_selftest.py::test_smoke_traced`, which
runs every workload under the tracer; this check names the missing
attribute directly and takes milliseconds.

The tracer's serialize spans and its serialize.bytes_written count
cover the output files only while every command writes them through the
serialize writers, and its core spans see every dense CMV build only
while each goes through core.lm_factors; the next two tests hold the
subcommands to that.  The last one guards the circular `sample` path
that sets the benchmark's tail latency: one dense Cayley pass per
matrix, and one stacked Newton step per block of draws.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from cmvkit import alflows, cli, core, ensembles, opuc, serialize

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name,attr",
    [target for targets in load_spans().LAYERS.values() for target in targets],
)
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_observable_call_is_patchable():
    observable = importlib.import_module("cmvkit.brackets").Observable
    assert callable(observable.__call__)


# the writers every output file goes through, and the argument that names it
WRITERS = {"dump_json": 1, "write_samples_csv": 0, "write_histogram_csv": 0}


def test_every_output_goes_through_a_serialize_writer(tmp_path, monkeypatch):
    """The serialize spans and serialize.bytes_written see a file only when
    a command writes it through one of WRITERS, so no command may write
    around them."""
    written = []
    for name, path_arg in WRITERS.items():
        def recorder(*args, original=getattr(serialize, name), path_arg=path_arg):
            written.append(Path(args[path_arg]))
            return original(*args)

        monkeypatch.setattr(serialize, name, recorder)
    (tmp_path / "in.json").write_text(json.dumps({"n": 2, "alpha": [[0.5, 0.25], [0.0, 1.0]]}))
    commands = [
        ["sample", "--family", "circular", "--n", "3", "--beta", "2", "--count", "4", "--seed", "1",
         "--out", "s.csv", "--coeffs-out", "c.json"],
        ["histogram", "--input", "s.csv", "--bins", "4", "--range", "-3.2", "3.2", "--out", "h.csv"],
        ["flow", "--init", "in.json", "--t", "0.01", "--dt", "5e-3", "--method", "rk4", "--out", "rk4.json"],
        ["flow", "--init", "in.json", "--t", "0.01", "--dt", "5e-3", "--method", "spectral", "--out", "sp.json"],
        ["spectral", "--input", "in.json", "--to", "measure", "--out", "m.json"],
        ["spectral", "--input", "m.json", "--to", "coeffs", "--out", "back.json"],
        ["verify", "--suite", "jacobian", "--n", "2", "--trials", "1", "--report", "r.json"],
    ]
    for argv in commands:
        before, written[:] = set(tmp_path.iterdir()), []
        assert cli.main([str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv] + ["--quiet"]) == 0
        assert sorted(set(tmp_path.iterdir()) - before) == sorted(written), argv[0]


def test_every_dense_cmv_matrix_is_built_by_lm_factors(tmp_path, monkeypatch):
    """Every matrix that a command's dense eigen-reads (unitary_angles and
    np.linalg.eig) see is the product of an lm_factors build, so the core
    spans time every dense CMV build the CLI makes."""
    built, read = set(), []
    original_factors, original_eig = core.lm_factors, np.linalg.eig

    def as_matrices(a):
        a = np.asarray(a)
        return [m.tobytes() for m in a.reshape((-1,) + a.shape[-2:])]

    def factors(v):
        L, M = original_factors(v)
        built.update(as_matrices(L @ M))
        return L, M

    def angles(C, *args, original=opuc.unitary_angles):
        read.extend(as_matrices(C.entries))
        return original(C, *args)

    def eig(a):
        read.extend(as_matrices(a))
        return original_eig(a)

    monkeypatch.setattr(core, "lm_factors", factors)
    monkeypatch.setattr(np.linalg, "eig", eig)
    for module in (opuc, alflows, ensembles):
        monkeypatch.setattr(module, "unitary_angles", angles)
    (tmp_path / "in.json").write_text(json.dumps({"n": 3, "alpha": [[0.5, 0.25], [0.1, -0.3], [0.0, 1.0]]}))
    flow = ["flow", "--init", "in.json", "--t", "0.01", "--dt", "5e-3"]
    commands = [
        ["sample", "--family", "circular", "--n", "3", "--beta", "2", "--count", "4", "--seed", "1", "--out", "s.csv"],
        [*flow, "--method", "rk4", "--out", "rk4.json"],
        [*flow, "--method", "spectral", "--out", "sp.json"],
        [*flow, "--method", "rk4", "--out", "dense.json"],
        ["spectral", "--input", "in.json", "--to", "measure", "--out", "m.json"],
        *(["verify", "--suite", suite, "--n", "3", "--trials", "2"] for suite in cli.SUITES),
    ]
    verify_reads = 0  # some suites read no spectrum
    for argv in commands:
        built.clear()
        read.clear()
        if argv[-1] == "dense.json":  # no Newton drift trusted: every state gets a dense read
            monkeypatch.setattr(opuc, "DRIFT_TRUST", -1.0)
        assert cli.main([str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv] + ["--quiet"]) == 0
        assert set(read) <= built, argv
        verify_reads += len(read) if argv[0] == "verify" else 0
        assert read or argv[0] == "verify", argv
        if argv[-1] == "dense.json":
            # the first state's angles, then the fallback read of all 3 states
            assert len(read) == 4
    assert verify_reads


def test_circular_sample_inverts_each_matrix_once(tmp_path, monkeypatch):
    """A circular n = 64 `cmv sample` of 64 draws whose coarse Cayley rows
    all keep their Newton step inverts each matrix once, and takes the
    step in one newton_angle_steps call per eigenvalue_samples block (two
    blocks here), not one per unitary_angles block."""
    inverted, verdicts = [], []

    def inv(a, original=np.linalg.inv):
        inverted.append(int(np.prod(np.shape(a)[:-2])))
        return original(a)

    def newton(alpha, theta, original=opuc.newton_angle_steps):
        result = original(alpha, theta)
        verdicts.append(opuc.newton_trusted(result[1], theta))
        return result

    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(opuc, "newton_angle_steps", newton)
    monkeypatch.setattr(ensembles, "SPECTRA_BLOCK", 32 * 64 * 64)
    argv = ["sample", "--family", "circular", "--n", "64", "--beta", "2", "--count", "64", "--seed", "1",
            "--out", str(tmp_path / "s.csv"), "--quiet"]
    assert cli.main(argv) == 0
    assert len(verdicts) == 2 and all(ok.size and ok.all() for ok in verdicts)
    assert sum(inverted) == 64
