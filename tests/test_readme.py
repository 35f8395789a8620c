"""The package's public names: the README's "Removed API" table names only
what the package no longer has, and `cmvkit.__all__` lists exactly what
`__init__.py` imports."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import cmvkit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name: importlib.import_module(f"cmvkit.{m.name}") for m in pkgutil.iter_modules(cmvkit.__path__)}
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?")


def removed_names() -> list[str]:
    """Every entry of a "removed" cell made only of backticked `name` or
    `prefix.name` entries, joined by commas or "and"; other cells (calls,
    arguments, prose) are skipped."""
    section = README.read_text(encoding="utf-8").split("\n## Removed API\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        entries = re.split(r", | and ", line.split("|")[1].strip())
        inner = [e[1:-1] for e in entries if len(e) > 2 and e[0] == e[-1] == "`"]
        if len(inner) == len(entries) and all(NAME.fullmatch(e) for e in inner):
            names += inner
    return names


def top_level_bindings(module) -> set[str]:
    """The names a module's source binds at top level, other than by import."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return bound


def test_table_is_read():
    names = removed_names()
    assert "circle_weights" in names and "verify.probe_separation" in names and len(names) >= 20
    assert {"verblunsky_to_objs", "verblunsky_from_objs", "circle_measure_from_objs", "core.DET_TOL"} <= set(names)


@pytest.mark.parametrize("entry", removed_names())
def test_removed_name_is_absent(entry):
    prefix, _, name = entry.rpartition(".")
    if not prefix:
        # a bare name: no module of the package, nor the package, has it
        holders = [m for m, module in MODULES.items() if hasattr(module, name)]
        assert not hasattr(cmvkit, name) and not holders, holders
    elif prefix in MODULES:
        # module.name: the module no longer defines it (it may import the
        # name from the module that now does, as ensembles imports TWO_PI)
        assert name not in top_level_bindings(MODULES[prefix])
    else:
        # Class.attribute of a public class
        assert not hasattr(getattr(cmvkit, prefix), name)


def test_all_lists_each_import_once():
    tree = ast.parse(pathlib.Path(cmvkit.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert len(cmvkit.__all__) == len(set(cmvkit.__all__))
    assert set(cmvkit.__all__) == imported
