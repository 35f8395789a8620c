"""Span tracing of cmvkit's layers from outside the package.

Each traced function is replaced by a wrapper that records one span
(name, start, end, parent span) per call, plus optional counts.  The
wrapper is rebound in every ``cmvkit.*`` namespace that holds the
original object, because ``from .core import build_cmv`` copies the
binding into the importing module; numpy/scipy kernels are rebound on
their public module (``np.linalg``, ``scipy.linalg``), which is where
cmvkit looks them up at call time.

Spans are kept in memory; ``Tracer.summary`` turns them into per-name
call counts and self times (span duration minus the spans it caused),
and ``Tracer.write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> [(module, attribute)]; the order fixes the metric order.
LAYERS = {
    "cli": [("cmvkit.cli", "main")],
    "core": [("cmvkit.core", "build_cmv"), ("cmvkit.core", "lm_factors")],
    "opuc": [
        ("cmvkit.opuc", "unitary_eigensystem"),
        ("cmvkit.opuc", "szego_coefficients"),
        ("cmvkit.opuc", "verblunsky_from_measure"),
    ],
    "ensembles": [
        ("cmvkit.ensembles", "eigenvalue_samples"),
        ("cmvkit.ensembles", "random_verblunsky"),
    ],
    "alflows": [
        ("cmvkit.alflows", "al_vector_field"),
        ("cmvkit.alflows", "integrate_flow"),
        ("cmvkit.alflows", "flow_via_spectral"),
    ],
    "brackets": [
        ("cmvkit.brackets", "coordinate_gradient"),
        ("cmvkit.brackets", "spectral_to_verblunsky_jacobian"),
    ],
    "verify": [("cmvkit.verify", "run_suite")],
    "serialize": [
        ("cmvkit.serialize", "write_samples_csv"),
        ("cmvkit.serialize", "read_samples_csv"),
        ("cmvkit.serialize", "dump_json"),
        ("cmvkit.serialize", "load_json"),
    ],
    "linalg": [
        ("numpy.linalg", "eigvals"),
        ("numpy.linalg", "eigvalsh"),
        ("scipy.linalg", "schur"),
        ("numpy.linalg", "det"),
    ],
}

COUNTERS = (
    "opuc.eig_calls",
    "opuc.eig_distinct",
    "ensembles.draws",
    "alflows.rk4_steps",
    "brackets.observable_evals",
    "serialize.bytes_written",
    "linalg.eigvals.matrices",
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._eig_inputs: set[bytes] = set()

    def wrap(self, name: str, fn, after=None):
        """Span-recording wrapper; ``after(args, kwargs, result)`` runs
        once the span has ended, to update counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # --- count hooks -------------------------------------------------

    def _after_unitary_eigensystem(self, args, kwargs, result):
        cmv = args[0] if args else kwargs["C"]
        self.counts["opuc.eig_calls"] += 1
        key = hashlib.blake2b(cmv.source.alpha.tobytes(), digest_size=16).digest()
        if key not in self._eig_inputs:
            self._eig_inputs.add(key)
            self.counts["opuc.eig_distinct"] += 1

    def _after_eigenvalue_samples(self, args, kwargs, result):
        self.counts["ensembles.draws"] += int(result.shape[0])

    def _after_integrate_flow(self, args, kwargs, result):
        self.counts["alflows.rk4_steps"] += len(result.times) - 1

    def _after_write(self, path_arg: int):
        def after(args, kwargs, result):
            self.counts["serialize.bytes_written"] += os.path.getsize(args[path_arg])

        return after

    def _after_eigvals(self, args, kwargs, result):
        shape = np.shape(args[0] if args else kwargs["a"])
        self.counts["linalg.eigvals.matrices"] += int(np.prod(shape[:-2], dtype=np.int64))

    def _count_observable(self, fn):
        @functools.wraps(fn)
        def counted(obs, v):
            self.counts["brackets.observable_evals"] += 1
            return fn(obs, v)

        return counted

    # --- installation ------------------------------------------------

    def install(self):
        """Rebind every traced function; returns an undo callable."""
        hooks = {
            "unitary_eigensystem": self._after_unitary_eigensystem,
            "eigenvalue_samples": self._after_eigenvalue_samples,
            "integrate_flow": self._after_integrate_flow,
            "write_samples_csv": self._after_write(0),
            "dump_json": self._after_write(1),
            "eigvals": self._after_eigvals,
        }
        undo = []
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                home = importlib.import_module(module_name)
                orig = getattr(home, attr)
                wrapper = self.wrap(f"{layer}.{attr}", orig, hooks.get(attr))
                for mod in [home] + _cmvkit_modules():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
        observable = importlib.import_module("cmvkit.brackets").Observable
        orig_call = observable.__call__
        observable.__call__ = self._count_observable(orig_call)
        undo.append((observable, "__call__", orig_call))

        def uninstall():
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

        return uninstall

    # --- results -----------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self seconds, and the wall time top-level
        spans cover."""
        child = defaultdict(float)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        top_level_s = 0.0
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            if self.parents[i] < 0:
                top_level_s += dur
        return {"calls": dict(calls), "self_s": dict(self_s), "top_level_s": top_level_s}

    def write_spans(self, path) -> None:
        """One span per line: id, parent id, name, start and end in µs."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{name},"
                    f"{(self.starts[i] - t0) * 1e6:.3f},{(self.ends[i] - t0) * 1e6:.3f}\n"
                )


def _cmvkit_modules():
    return [m for k, m in sys.modules.items() if k == "cmvkit" or k.startswith("cmvkit.")]
