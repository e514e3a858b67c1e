#!/usr/bin/env python3
"""Full test battery for the bundled driving-distraction field study.

Runs every applicable procedure on the 64-participant dataset with a
seeded million-draw resampling engine and prints one line per test.
The tests run through one run_tests call, in the order of
`randcompare test --tests all`, which scores the resampling tests on one
set of draws. Under the uniform design the Fisher randomization and
permutation tests have one plan, so their p-values coincide exactly;
this is a property of the design, not a shortcut.
"""
import argparse
import sys
import time

from randcompare import (
    MonteCarloEngine,
    RandcompareError,
    RngStream,
    UniformCRD,
    bundled_dataset_path,
    load_dataset,
)
from randcompare.inference import run_tests
from randcompare.stats import d_statistic, neyman_se, resolve_weights


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=None,
                        help="CSV path; default is the bundled dataset")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mc", type=int, default=1_000_000,
                        help="resampling budget for the randomization tests")
    parser.add_argument("--alpha", type=float, default=0.05)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    path = args.data or bundled_dataset_path("cellphone")
    loaded = load_dataset(path)
    obs = loaded.observed
    design = UniformCRD(obs.n, obs.n1)

    weights = resolve_weights(design, obs.sample, obs.assignment)
    d_obs = d_statistic(obs.responses, obs.assignment, weights)
    se = neyman_se(obs, design)
    print(f"dataset: {path}")
    print(f"arms: {obs.n1} / {obs.n2}   mean difference: {d_obs:.4f}")
    print(f"variance-bound se: {se:.4f}   standardized: {d_obs / se:.4f}")
    print(f"resampling: {args.mc} draws, seed {args.seed}")
    print()

    engine = MonteCarloEngine(args.mc, RngStream(args.seed))
    t0 = time.perf_counter()
    reports = list(run_tests(obs, design, engine, ("fisher_rand", "neyman_rand", "permutation",
                                                   "wilcoxon", "welch_t", "pooled_t")))
    for rep in reports:
        if isinstance(rep, RandcompareError):
            raise rep
    elapsed = time.perf_counter() - t0

    header = f"{'test':<13}{'hypothesis':<11}{'p_value':>10}{'kind':>13}  at alpha={args.alpha:g}"
    print(header)
    print("-" * len(header))
    for rep in reports:
        verdict = "reject" if rep.p_value <= args.alpha else "retain"
        print(f"{rep.test:<13}{rep.hypothesis.value:<11}"
              f"{rep.p_value:>10.6f}{rep.p_value_kind:>13}  {verdict}")
    print()
    print(f"elapsed: {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
