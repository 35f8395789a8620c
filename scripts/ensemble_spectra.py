"""Draw eigenvalue samples from the three ensembles and bin them.

Writes one CSV of sorted draws and one histogram CSV per family into
--outdir.  Everything is seeded, so reruns reproduce the same files.
"""

import argparse
import pathlib

import numpy as np

from cmvkit import serialize
from cmvkit.ensembles import EnsembleSpec, RngStream, coefficient_samples, eigenvalue_samples


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=20000)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bins", type=int, default=60)
    ap.add_argument("--outdir", default="ensemble_out")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    specs = {
        "circular": (EnsembleSpec("circular", args.n, args.beta), (-np.pi, np.pi)),
        "jacobi": (EnsembleSpec("jacobi", args.n, args.beta, 0.5, 0.5), (-2.0, 2.0)),
        "hermite": (EnsembleSpec("hermite", args.n, args.beta), (-6.0, 6.0)),
    }
    for name, (spec, rng_range) in specs.items():
        rows = eigenvalue_samples(spec, coefficient_samples(spec, args.count, RngStream(args.seed)))
        sample_path = outdir / f"{name}_samples.csv"
        serialize.write_samples_csv(sample_path, rows)
        counts, edges = np.histogram(rows.reshape(-1), bins=args.bins, range=rng_range)
        serialize.write_histogram_csv(outdir / f"{name}_hist.csv", edges, counts)
        print(f"{name:8s} {args.count} draws of n={spec.n}, beta={spec.beta:g} -> {sample_path}")


if __name__ == "__main__":
    main()
