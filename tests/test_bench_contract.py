"""The names the benchmark's span tracer wraps must exist in the package.

`perfbench/spans.py` rebinds every (module, attribute) of its LAYERS
table and patches `cmvkit.brackets.Observable.__call__`.  A rename in the
package also fails `perfbench/test_selftest.py::test_smoke_traced`, which
runs every workload under the tracer; this check names the missing
attribute directly and takes milliseconds.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
