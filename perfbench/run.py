"""cmvkit benchmark: the ``cmv`` CLI end to end, and its layers from a trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {sample,flow,verify} --seed N --seconds S --trace {0,1}

One process, one client thread, closed loop: ``cmvkit.cli.main(argv)``
is called in-process and the next invocation starts when the previous
one returns.  cmvkit is imported from ``src/``; ``CMV_THREADS`` and the
BLAS thread settings are left as the environment has them.

``--trace 0`` times whole passes of the workload for ``--seconds`` and
prints the end-to-end metrics, scaled to a nominal machine speed by a
reference kernel timed after every invocation (``reference.py``).  ``--trace 1`` runs a fixed list of
passes, each once untraced and once traced, and prints the per-layer
metrics; the difference between the two is the tracing overhead.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a run record with versions, settings and the
per-function detail goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# the keys of workloads.PASSES, spelled out so that argument parsing needs no numpy
WORKLOADS = ("sample", "flow", "verify")
SETUP_PROBES = 3          # fresh processes per run; setup_s is their median
TAIL_RUNGS = (90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10      # invocations that must lie beyond the tail percentile
# the timed loop also runs until the top rung is reachable, so every full
# run reports p90 and commits that complete more work compare like for like
MIN_INVOCATIONS = math.ceil(MIN_BEYOND_TAIL / (1.0 - TAIL_RUNGS[0] / 100.0))
# passes per phase of a traced run: fixed, so counts repeat under a seed
TRACE_PASSES = {"sample": 20, "flow": 6, "verify": 48}
PROBE_TIMEOUT_S = 40
# the warm-up pass has fixed inputs, so setup_s times the same work in every run
WARMUP_SEED, WARMUP_PASS = 0, -1


class Invoker:
    """Runs one workload's invocations through ``cmvkit.cli.main``."""

    def __init__(self, workload: str, seed: int, work: Path):
        import cmvkit.cli
        import workloads

        self.cli = cmvkit.cli
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.work = work
        self.latencies: list[float] = []
        self.attempted = 0
        self.scales: list[float] = []   # nominal / measured machine speed, per invocation
        self.scaled: list[float] = []   # latencies times their scales
        self.units = 0.0
        self.failed = 0
        self.failures: list[str] = []
        self.defects = {"ensembles.coeffs_mismatch_rows": 0, "cli.flow_grid_mismatch": 0}

    def run_pass(self, index: int) -> None:
        for call in self.workloads.build_pass(self.workload, self.seed, index, self.work):
            self.invoke(call)

    def invoke(self, call) -> None:
        self.attempted += 1
        rc = None
        errors: list[str] = []
        try:
            if call.prepare is not None:
                call.prepare()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    rc = self.cli.main(call.argv)
                finally:
                    self.latencies.append(time.perf_counter() - start)
        except SystemExit as exc:  # argparse rejected the flags
            rc = exc.code
        except Exception as exc:  # a failed invocation is counted, not fatal
            errors.append(f"{call.argv[0]}: {type(exc).__name__}: {exc}")
        if not errors and rc != 0:
            errors.append(f"{call.argv[0]}: exit code {rc}")
        if not errors:
            try:
                errors = call.check()
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
                errors = [f"{call.argv[0]}: output check raised {type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            self.failures.extend(f"{' '.join(map(str, call.argv))}: {e}" for e in errors)
            return
        self.units += call.units()
        for key, value in call.defects.items():
            self.defects[key] += value


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ascending values."""
    rank = max(math.ceil(pct / 100.0 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def tail_rung(count: int) -> float:
    """Highest rung with at least MIN_BEYOND_TAIL invocations beyond it."""
    for pct in TAIL_RUNGS:
        if count - math.ceil(pct / 100.0 * count) >= MIN_BEYOND_TAIL:
            return pct
    return 100.0


def measure(workload: str, seed: int, seconds: float, work: Path,
            min_invocations: int = MIN_INVOCATIONS) -> Invoker:
    """Closed loop of whole passes until both limits are reached.

    The reference kernel is timed after every invocation, and the
    latencies are also kept scaled to the nominal machine speed.
    """
    import reference

    inv = Invoker(workload, seed, work)
    ref = reference.Reference()
    kernel: list[float] = []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or len(inv.latencies) < min_invocations:
        for call in inv.workloads.build_pass(workload, seed, index, work):
            done = len(inv.latencies)
            inv.invoke(call)
            if len(inv.latencies) > done:
                kernel.append(ref.once())
        index += 1
    inv.scales = reference.scales(kernel)
    inv.scaled = [lat * s for lat, s in zip(inv.latencies, inv.scales)]
    return inv


def end_to_end(inv: Invoker, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics from the scaled latencies; raw ones go to the record."""

    def summary(latencies):
        lat = sorted(latencies)
        return statistics.median(lat) * 1e3, percentile(lat, rung) * 1e3, inv.units / sum(lat)

    rung = tail_rung(len(inv.latencies))
    p50, tail, throughput = summary(inv.scaled)
    raw_p50, raw_tail, raw_throughput = summary(inv.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_ms_p50": (p50, "ms"),
        "cmd_ms_tail": (tail, "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "success_rate": (1.0 - inv.failed / inv.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    unit = inv.workloads.THROUGHPUT[inv.workload]
    details = {
        "tail_percentile": rung,
        "invocations": len(inv.latencies),
        "throughput_unit": unit,
        unit: throughput,
        "error_rate": inv.failed / inv.attempted,
        "raw": {"cmd_ms_p50": raw_p50, "cmd_ms_tail": raw_tail, unit: raw_throughput},
        "scale_median": statistics.median(inv.scales),
        "defects": inv.defects,
    }
    return metrics, details


def traced(workload: str, seed: int, work: Path, passes: int) -> tuple[Invoker, dict, dict]:
    """Each pass untraced, then traced; per-layer metrics from the trace.

    Alternating the two phases pass by pass keeps drifts of machine
    speed out of the tracing overhead.
    """
    import spans

    plain = Invoker(workload, seed, work)
    inv = Invoker(workload, seed, work)
    tracer = spans.Tracer()
    wall = 0.0
    for index in range(passes):
        plain.run_pass(index)
        uninstall = tracer.install()
        start = time.perf_counter()
        try:
            inv.run_pass(index)
        finally:
            wall += time.perf_counter() - start
            uninstall()
    summary = tracer.summary()
    calls, self_s = summary["calls"], summary["self_s"]
    total_self = sum(self_s.values())
    unattributed = wall - summary["top_level_s"]

    def pct(seconds: float) -> float:
        return 100.0 * seconds / total_self

    metrics: dict[str, tuple[float, str]] = {}
    for layer, targets in spans.LAYERS.items():
        names = [f"{layer}.{attr}" for _, attr in targets]
        metrics[f"{layer}.self_pct"] = (pct(sum(self_s.get(k, 0.0) for k in names)), "%")
        for name in names:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            if len(names) > 1:
                metrics[f"{name}.self_pct"] = (pct(self_s.get(name, 0.0)), "%")
    counts = tracer.counts
    eig_calls = counts["opuc.eig_calls"]
    metrics["opuc.eig_distinct_ratio"] = (counts["opuc.eig_distinct"] / eig_calls if eig_calls else 1.0, "ratio")
    for key in ("ensembles.draws", "alflows.rk4_steps", "brackets.observable_evals",
                "serialize.bytes_written", "linalg.eigvals.matrices"):
        metrics[key] = (counts[key], "bytes" if key.endswith("bytes_written") else "count")
    for key, value in inv.defects.items():
        metrics[key] = (value, "count")
    overhead = sum(inv.latencies) / sum(plain.latencies) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (unattributed, "s")

    rk4_s = sum(tracer.ends[i] - tracer.starts[i]
                for i, name in enumerate(tracer.names) if name == "alflows.integrate_flow")
    details = {
        "passes": passes,
        "untraced_busy_s": sum(plain.latencies),
        "traced_busy_s": sum(inv.latencies),
        "self_s": self_s,
        "calls": calls,
        "self_sum_plus_unattributed_s": total_self + unattributed,
        "alflows.rk4_step_ms": 1e3 * rk4_s / counts["alflows.rk4_steps"] if counts["alflows.rk4_steps"] else None,
        "counts": counts,
    }
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.csv")
    # failures in either phase count against the run
    inv.failed += plain.failed
    inv.failures.extend(plain.failures)
    inv.attempted += plain.attempted
    return inv, metrics, details


def setup_time(workload: str) -> float:
    """Median over fresh processes of: import cmvkit.cli and run the warm-up
    pass, each scaled by the reference kernel timed in the same process."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(WARMUP_SEED)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def setup_probe(workload: str) -> int:
    start = time.perf_counter()
    import cmvkit.cli  # noqa: F401  (numpy and scipy come with it)

    work = _work_dir(workload, WARMUP_SEED)
    try:
        # the main process checks the same pass's output in its own warm-up
        Invoker(workload, WARMUP_SEED, work).run_pass(WARMUP_PASS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - start
    import reference

    print(json.dumps({"setup_s": elapsed * reference.Reference().scale()}))
    return 0


def _work_dir(workload: str, seed: int) -> Path:
    path = WORK_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_record(workload: str, seed: int, trace_on: bool) -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace_on),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CMV_THREADS")},
        "commit": git_commit(ROOT),
        "loop": "closed, one client thread, in-process cmvkit.cli.main",
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cmvkit" / "cli.py").is_file():
        print(f"error: {SRC / 'cmvkit'} not found; run from a cmvkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)

    work = _work_dir(args.workload, args.seed)
    try:
        # the untimed warm-up pass also compiles the package's bytecode,
        # so the probes below time imports as an installed package does
        warm = Invoker(args.workload, WARMUP_SEED, work)
        warm.run_pass(WARMUP_PASS)
        setup_s = setup_time(args.workload)
        if args.trace:
            inv, metrics, details = traced(args.workload, args.seed, work, TRACE_PASSES[args.workload])
        else:
            inv = measure(args.workload, args.seed, args.seconds, work)
            metrics, details = end_to_end(inv, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = warm.failures + inv.failures
    record = run_record(args.workload, args.seed, bool(args.trace))
    record.update(details)
    record["setup_s"] = setup_s
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failures"] = failures[:50]
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for line in failures[:20]:
        print(f"FAILED {line}")
    if not args.trace:
        print(f"cmd_ms_tail is p{details['tail_percentile']:g} of {details['invocations']} invocations; "
              f"throughput_per_s counts {details['throughput_unit']}")
    else:
        print(f"trace overhead {metrics['trace.overhead_pct'][0]:.1f}%, "
              f"unattributed {metrics['trace.unattributed_s'][0]:.3f} s of {metrics['trace.wall_s'][0]:.3f} s wall")
    print(f"run record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": not failures,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
