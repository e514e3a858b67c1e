#!/usr/bin/env python3
"""Rerun the built-in size/power benchmark suites and compare each cell
against the recorded reference rates.

Reference rows condition on one unpublished fixed draw (population or
assignment), so reruns agree statistically rather than exactly; the
`diff` columns make the spread visible. Suites: t3/t5 are size studies
(20 and 100 units), t4/t6 the matching power studies.
"""
import argparse
import csv
import sys

from randcompare import (
    DEFAULT_TEST_SUITE,
    ENUMERATION_CAP,
    REFERENCE_RATES,
    RngStream,
    known_scenarios,
    run_size_power,
)


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", default="all",
                        choices=("t3", "t4", "t5", "t6", "all"),
                        help="which benchmark suite to run")
    parser.add_argument("--replicates", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--exact-small", action="store_true",
                        help="exact tails, counted without enumerating, for the "
                             "resampling tests wherever the support has at most "
                             f"{ENUMERATION_CAP:,} assignments, at any n")
    parser.add_argument("--out", default=None, help="also write a CSV here")
    return parser


def fmt(value):
    return "  NA" if value is None else f"{value:4.1f}"


def main(argv=None):
    args = build_parser().parse_args(argv)
    prefixes = ("t3", "t4", "t5", "t6") if args.table == "all" else (args.table,)
    ids = [s for s in known_scenarios() if s.split(".")[0] in prefixes]

    csv_rows = []
    for sid in ids:
        estimates = run_size_power(
            sid,
            replicates=args.replicates,
            alpha=args.alpha,
            rng=RngStream(args.seed),
            threads=args.threads,
            exact_small=args.exact_small,
        )
        by_key = {(e.row, e.test_name): e for e in estimates}
        print(f"\n{sid}  ({args.replicates} replicates, seed {args.seed})")
        print(f"{'row':<15}{'':<6}" + "".join(f"{t:>13}" for t in DEFAULT_TEST_SUITE))
        for row in ("randomization", "process"):
            got = [by_key[(row, t)].rejection_rate for t in DEFAULT_TEST_SUITE]
            ref = REFERENCE_RATES[sid][row]
            diff = [
                None if (g is None or r is None) else g - r
                for g, r in zip(got, ref)
            ]
            print(f"{row:<15}{'run':<6}" + "".join(f"{fmt(g):>13}" for g in got))
            print(f"{'':<15}{'ref':<6}" + "".join(f"{fmt(r):>13}" for r in ref))
            print(f"{'':<15}{'diff':<6}" + "".join(
                "           NA" if d is None else f"{d:+13.1f}" for d in diff
            ))
            for test, g, r in zip(DEFAULT_TEST_SUITE, got, ref):
                csv_rows.append({
                    "scenario": sid, "row": row, "test": test,
                    "rate": "" if g is None else g,
                    "reference": "" if r is None else r,
                })
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=("scenario", "row", "test", "rate", "reference")
            )
            writer.writeheader()
            writer.writerows(csv_rows)
        print(f"\nwrote {len(csv_rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
