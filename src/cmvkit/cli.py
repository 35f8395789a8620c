"""Command-line interface.

Subcommands: sample (ensemble eigenvalue draws), flow (coefficient
propagation), spectral (coefficients <-> measure), verify (identity
suites), histogram (bin a sample CSV).  Every command is deterministic
given its flags and seed.

Exit codes: 2 for usage/parameter errors, 3 for mathematical domain
failures, 4 for a failed verification suite.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import serialize
from .alflows import FlowHamiltonian, integrate_flow, spectral_trajectory
from .core import VerblunskySet, build_cmv
from .ensembles import EnsembleSpec, RngStream, coefficient_samples, eigenvalue_samples, random_verblunsky
from .errors import CmvError, InvalidParams
from .opuc import unitary_eigensystem, verblunsky_from_measure
from .verify import SUITES, run_suite

USAGE_EXIT = 2
DOMAIN_EXIT = 3
VERIFY_EXIT = 4

SAMPLE_CHUNK = 8192  # draws per stream id: part of the seed-to-output mapping


def _progress(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg, file=sys.stderr)


def _coefficient_records(spec: EnsembleSpec, pieces: list) -> serialize.Records:
    """The coefficient_samples outputs of every stream as one list of JSON
    objects, one per draw; circular draws pass through one stacked
    VerblunskySet, as eigenvalue_samples builds their matrices."""
    if spec.family == "circular":
        return serialize.coefficient_records(VerblunskySet(np.concatenate(pieces)).alpha)
    b, a = (np.concatenate(parts) for parts in zip(*pieces))
    return serialize.Records({"b": b, "a": a})


def cmd_sample(args) -> int:
    spec = EnsembleSpec(args.family, args.n, args.beta, args.a, args.b)
    if args.count < 1:
        raise InvalidParams(f"--count must be at least 1, got {args.count}")
    chunks = [
        (RngStream(args.seed, i), min(SAMPLE_CHUNK, args.count - i * SAMPLE_CHUNK))
        for i in range((args.count + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK)
    ]
    pieces, drawn = [], []
    for stream, size in chunks:
        coeffs = coefficient_samples(spec, size, stream)
        pieces.append(eigenvalue_samples(spec, coeffs))
        if args.coeffs_out:
            drawn.append(coeffs)
        _progress(args.quiet, f"sampled {sum(len(p) for p in pieces)}/{args.count}")
    rows = np.vstack(pieces)
    if args.coeffs_out:
        records = _coefficient_records(spec, drawn)
    serialize.write_samples_csv(args.out, rows)
    _progress(args.quiet, f"wrote {rows.shape[0]} rows to {args.out}")
    if args.coeffs_out:
        serialize.dump_json(records, args.coeffs_out)
    return 0


def cmd_flow(args) -> int:
    if args.init:
        v0 = serialize.verblunsky_from_obj(serialize.load_json(args.init))
    else:
        if args.seed is None:
            raise InvalidParams("--random requires --seed")
        v0 = random_verblunsky(args.n, RngStream(args.seed), radius=args.radius)
    if args.method == "rk4":
        traj = integrate_flow(v0, args.m, args.part, args.t, args.dt)
    else:
        ham = FlowHamiltonian.matching_lax_flow(args.m, args.part)
        traj = spectral_trajectory(v0, ham, args.t, args.dt)
    serialize.dump_json(serialize.trajectory_to_obj(traj), args.out)
    _progress(
        args.quiet,
        f"flow m={args.m} part={args.part} t={args.t}: "
        f"max eigenvalue drift {traj.eig_drift.max():.3e}, wrote {args.out}",
    )
    return 0


def cmd_spectral(args) -> int:
    obj = serialize.load_json(args.input)
    if args.to == "measure":
        v = serialize.verblunsky_from_obj(obj)
        mu = unitary_eigensystem(build_cmv(v))
        serialize.dump_json(serialize.circle_measure_to_obj(mu), args.out)
    else:
        mu = serialize.circle_measure_from_obj(obj)
        v = verblunsky_from_measure(mu)
        serialize.dump_json(serialize.verblunsky_to_obj(v), args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.n, args.trials, args.seed)
    if args.report:
        serialize.dump_json(report, args.report)
    for item in report["identities"]:
        if args.quiet and item["pass"]:
            continue
        status = "pass" if item["pass"] else "FAIL"
        print(
            f"[{status}] {item['name']}: max residual {item['max_residual']:.3e}"
            f" (tolerance {item['tolerance']:g})"
        )
    return 0 if report["pass"] else VERIFY_EXIT


def cmd_histogram(args) -> int:
    data = serialize.read_samples_csv(args.input)
    if data.size == 0:
        raise InvalidParams(f"no samples in {args.input}")
    lo, hi = args.range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParams(f"--range must be finite with LO < HI, got {lo!r} {hi!r}")
    counts, edges = np.histogram(data.reshape(-1), bins=args.bins, range=(lo, hi))
    serialize.write_histogram_csv(args.out, edges, counts)
    _progress(args.quiet, f"binned {int(counts.sum())} values into {args.bins} bins")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cmv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw ensemble eigenvalue samples to CSV")
    p.add_argument("--family", required=True, choices=("circular", "jacobi", "hermite"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--coeffs-out", default=None, help="optional coefficient JSON")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("flow", help="integrate a hierarchy flow")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--init", help="coefficient JSON file")
    src.add_argument("--random", action="store_true")
    p.add_argument("--n", type=int, default=6, help="size for --random")
    p.add_argument("--radius", type=float, default=0.6, help="interior radius for --random")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--part", choices=("re", "im"), default="re")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--method", choices=("rk4", "spectral"), default="rk4")
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("spectral", help="coefficients <-> spectral measure")
    p.add_argument("--input", required=True)
    p.add_argument("--to", choices=("measure", "coeffs"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_spectral)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--quiet", action="store_true", help="print only failing identities")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("histogram", help="bin sample CSV values")
    p.add_argument("--input", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--range", type=float, nargs=2, required=True, metavar=("LO", "HI"))
    p.add_argument("--out", required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_histogram)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parse_args never changes a parser."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "bins", 1) < 1:
        parser.error("--bins must be at least 1")
    try:
        return args.fn(args)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CmvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
