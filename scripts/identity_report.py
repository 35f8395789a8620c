"""Run every bracket/Jacobian identity suite and write one JSON report."""

import argparse

from cmvkit import serialize
from cmvkit.verify import run_suite


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="identity_report.json")
    args = ap.parse_args()

    reports = []
    for suite, n in (("brackets", 4), ("canonical", 4), ("cotangent", 4), ("jacobian", 3)):
        rep = run_suite(suite, n, args.trials, args.seed)
        reports.append(rep)
        for item in rep["identities"]:
            mark = "pass" if item["pass"] else "FAIL"
            print(f"[{mark}] {suite}: {item['name']} residual {item['max_residual']:.3e}"
                  f" (worst trial {item['worst_trial']})")
    serialize.dump_json(reports, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
