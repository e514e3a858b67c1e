"""Command line interface: run tests on a dataset, run the simulation
harness, validate data files.

Output is a pure function of the input files, the flags, and the seed;
nothing time- or host-dependent is ever emitted. The seed falls back to
the RANDCOMPARE_SEED environment variable, then to 0.

Exit codes: 0 success, 2 data or configuration problem, 3 unsupported
design, 4 enumeration too large for exact mode.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .datasets import bundled_dataset_path, dataset_summary, load_dataset
from .designs import ENUMERATION_CAP, CensusCRD, RngStream, UniformCRD, explicit_from_json
from .errors import (
    DataValidationError,
    EnumerationTooLargeError,
    NoncomputableDistributionError,
    RandcompareError,
    UnsupportedDesignError,
)
from .inference import TESTS, ExactEngine, MonteCarloEngine, TestReport, run_tests
from .simulation import (
    get_scenario,
    known_scenarios,
    load_scenario_file,
    run_size_power,
)

# The budget of test's Monte Carlo engine when --mc is not given.
DEFAULT_MC_BUDGET = 1_000_000


# the tests --tests all runs, in order: the two difference statistics first
_ALL_ORDER = ("fisher_rand", "neyman_rand", "permutation", "wilcoxon", "welch_t", "pooled_t",
              "fisher_sel")

# report name by command-line spelling
_SPELLINGS = {entry.spelling: name for name, entry in TESTS.items()}


def _env_seed() -> int:
    raw = os.environ.get("RANDCOMPARE_SEED")
    if raw is None:
        return 0
    try:
        return _parse_seed(raw)
    except argparse.ArgumentTypeError:
        raise DataValidationError(
            f"RANDCOMPARE_SEED must be an unsigned 64-bit integer, got {raw!r}"
        ) from None


def _parse_seed(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}")
    if not (0 <= seed < 2**64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randcompare",
        description=(
            "Tests of no treatment effect in two-treatment comparative "
            "experiments, plus a size/power simulation harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run test procedures on a dataset")
    test.add_argument("--data", required=True, help="CSV file (unit_id,treatment,response)")
    test.add_argument(
        "--tests",
        default="all",
        help=f"comma list from {{{','.join(_SPELLINGS)}}} or 'all'",
    )
    test.add_argument("--design", default="crd",
                      help="'crd' or a JSON design file; neyman-sel needs crd")
    test.add_argument(
        "--engine", choices=("exact", "mc"), default=None,
        help="p-value engine of the resampling tests: exact tails or Monte "
             f"Carlo. Default: exact up to {ENUMERATION_CAP:,} assignments, else mc "
             f"with {DEFAULT_MC_BUDGET:,} draws; exact exits 4 past that size",
    )
    test.add_argument("--mc", type=int, default=None, metavar="BUDGET",
                      help="Monte Carlo budget (implies --engine mc)")
    test.add_argument("--seed", type=_parse_seed, default=None)
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument("--out", default=None)
    test.add_argument("--format", dest="fmt", choices=("json", "table", "csv"),
                      default="table")

    sim = sub.add_parser("simulate", help="estimate size/power for a scenario")
    sim.add_argument("scenario", nargs="?", default=None,
                     help="built-in id (e.g. t3.sc1) or a JSON/TOML scenario file")
    sim.add_argument("--replicates", type=int, default=1000)
    sim.add_argument("--seed", type=_parse_seed, default=None)
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--threads", type=int, default=1)
    sim.add_argument("--mc", type=int, default=None, metavar="BUDGET",
                     help="per-replicate resampling budget override")
    sim.add_argument("--exact-small", action="store_true",
                     help="exact per-replicate tails for 20-unit scenarios")
    sim.add_argument("--all-tables", action="store_true",
                     help="run every built-in scenario")
    sim.add_argument("--out", default=None)
    sim.add_argument("--format", dest="fmt", choices=("json", "table", "csv"),
                     default="table")

    val = sub.add_parser("validate", help="validate a dataset file")
    val.add_argument("--data", required=True)
    val.add_argument("--out", default=None)
    val.add_argument("--format", dest="fmt", choices=("json", "table"), default="table")
    return parser


def _resolve_data_path(raw: str) -> Path:
    path = Path(raw)
    if path.is_file():
        return path
    name = path.name
    if name.endswith(".csv"):
        name = name[: -len(".csv")]
    try:
        return bundled_dataset_path(name)
    except DataValidationError:
        raise DataValidationError(f"cannot read {raw}: no such file") from None


def _resolve_design(raw: str, observed):
    if raw == "crd":
        return UniformCRD(observed.n, observed.n1)
    path = Path(raw)
    if not path.is_file():
        raise DataValidationError(
            f"--design must be 'crd' or a JSON design file; {raw!r} not found"
        )
    design = explicit_from_json(path)
    if design.n != observed.n:
        raise DataValidationError(
            f"design covers {design.n} units but the dataset has {observed.n}"
        )
    return design


def _resolve_engine(args, design, seed):
    if args.mc is not None and args.engine == "exact":
        raise DataValidationError("--mc only applies to the Monte Carlo engine")
    choice = args.engine
    if choice is None:
        mc = args.mc is not None or design.support_exceeds(ENUMERATION_CAP)
        choice = "mc" if mc else "exact"
    if choice == "exact":
        return ExactEngine()
    budget = DEFAULT_MC_BUDGET if args.mc is None else args.mc
    return MonteCarloEngine(budget, RngStream(seed))


def _parse_test_list(raw: str) -> list:
    """The report names of the tests --tests spells, in its order."""
    if raw.strip() == "all":
        return list(_ALL_ORDER)
    spellings = [part.strip() for part in raw.split(",") if part.strip()]
    if not spellings:
        raise DataValidationError("--tests must name at least one test")
    for spelling in spellings:
        if spelling not in _SPELLINGS:
            raise DataValidationError(
                f"unknown test {spelling!r}; known: {', '.join(_SPELLINGS)}, all"
            )
    return [_SPELLINGS[spelling] for spelling in spellings]


def _write_output(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _fmt_float(x, digits=6) -> str:
    if x is None:
        return "-"
    return f"{x:.{digits}g}"


def _test_table(meta: dict, reports: list, notices: list) -> str:
    lines = []
    lines.append(
        f"dataset: {meta['data']} (n={meta['n']}, arm1={meta['n1']}, arm2={meta['n2']})"
    )
    lines.append(
        "arm means: "
        f"{_fmt_float(meta['arm1_mean'], 8)} / {_fmt_float(meta['arm2_mean'], 8)}"
        f"   difference: {_fmt_float(meta['mean_difference'], 8)}"
    )
    eng = meta["engine"]
    extra = ""
    if eng["kind"] == "monte_carlo":
        extra = f" (budget={eng['budget']}, seed={eng['seed']})"
    lines.append(f"design: {meta['design']}   engine: {eng['kind']}{extra}")
    lines.append("")
    header = f"{'test':<13}{'hypothesis':<12}{'statistic':>12}{'p_value':>12}{'kind':>13}{'mc_stderr':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for rep in reports:
        lines.append(
            f"{rep.test:<13}{rep.hypothesis.value:<12}"
            f"{_fmt_float(rep.statistic):>12}{_fmt_float(rep.p_value):>12}"
            f"{rep.p_value_kind:>13}{_fmt_float(rep.mc_stderr, 3):>12}"
            + ("  (degenerate)" if rep.degenerate else "")
        )
    for notice in notices:
        lines.append("")
        lines.append(f"note: {notice['test']}: {notice['message']}")
    return "\n".join(lines) + "\n"


def _csv(header, rows: list) -> str:
    """CSV of rows of dicts, one column per header key: a missing value
    is written empty, a list joined with '|' and a flag as 0/1."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, list):
            return "|".join(value)
        return int(value) if isinstance(value, bool) else value

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(row[key]) for key in header] for row in rows)
    return buf.getvalue()


def cmd_test(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    if not (0.0 < args.alpha <= 1.0):
        raise DataValidationError("alpha must lie in (0, 1]")
    path = _resolve_data_path(args.data)
    loaded = load_dataset(path)
    observed = loaded.observed
    design = _resolve_design(args.design, observed)
    census = CensusCRD(observed.n, observed.n1) if args.design == "crd" else None
    engine = _resolve_engine(args, design, seed)
    names = _parse_test_list(args.tests)
    reports = []
    notices = []
    # the first test in --tests order to fail decides the error
    for name, result in zip(names, run_tests(observed, design, engine, names, census)):
        if isinstance(result, NoncomputableDistributionError):
            notices.append(
                {"test": name,
                 "error": "noncomputable_distribution",
                 "message": str(result)}
            )
        elif isinstance(result, RandcompareError):
            raise result
        else:
            reports.append(result)
    summary = dataset_summary(loaded)
    meta = {
        "command": "test",
        "data": str(path),
        "n": observed.n,
        "n1": observed.n1,
        "n2": observed.n2,
        "arm1_mean": summary["arm1_mean"],
        "arm2_mean": summary["arm2_mean"],
        "mean_difference": summary["mean_difference"],
        "design": args.design,
        "engine": engine.to_dict(),
        "alpha": args.alpha,
        "seed": seed,
    }
    if args.fmt == "json":
        doc = dict(meta)
        doc["reports"] = [rep.to_dict() for rep in reports]
        doc["notices"] = notices
        text = json.dumps(doc, indent=2) + "\n"
    elif args.fmt == "csv":
        text = _csv([f.name for f in fields(TestReport)],
                    [rep.to_dict() for rep in reports])
    else:
        text = _test_table(meta, reports, notices)
    _write_output(text, args.out)
    return 0


_SIM_FIELDS = ("scenario", "row", "test", "rejection_rate", "mc_stderr",
               "rejections", "replicates")


def _sim_rows(scenario_name: str, estimates: list) -> list:
    return [
        dict(zip(_SIM_FIELDS, (scenario_name, est.row, est.test_name, est.rejection_rate,
                               est.mc_stderr, est.rejections, est.replicates)))
        for est in estimates
    ]


def _sim_table(meta: dict, rows: list) -> str:
    lines = [
        f"replicates: {meta['replicates']}   alpha: {meta['alpha']}   seed: {meta['seed']}",
        "",
    ]
    header = (
        f"{'scenario':<10}{'row':<15}{'test':<13}"
        f"{'rate_pct':>9}{'stderr':>8}{'rejections':>12}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        rate = "NA" if row["rejection_rate"] is None else f"{row['rejection_rate']:.1f}"
        err = "-" if row["mc_stderr"] is None else f"{row['mc_stderr']:.2f}"
        rej = "-" if row["rejections"] is None else str(row["rejections"])
        lines.append(
            f"{row['scenario']:<10}{row['row']:<15}{row['test']:<13}"
            f"{rate:>9}{err:>8}{rej:>12}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    if args.all_tables:
        scenarios = [get_scenario(name) for name in known_scenarios()]
    elif args.scenario is None:
        raise DataValidationError("name a scenario or pass --all-tables")
    elif args.scenario not in known_scenarios() and Path(args.scenario).is_file():
        scenarios = [load_scenario_file(args.scenario)]
    else:
        # a known id, or neither an id nor a file: raises with the known ids
        scenarios = [get_scenario(args.scenario)]
    rows = []
    for scenario in scenarios:
        estimates = run_size_power(
            scenario,
            replicates=args.replicates,
            alpha=args.alpha,
            rng=RngStream(seed),
            threads=args.threads,
            mc_budget=args.mc,
            exact_small=args.exact_small,
        )
        rows.extend(_sim_rows(scenario.name, estimates))
    meta = {
        "command": "simulate",
        "replicates": args.replicates,
        "alpha": args.alpha,
        "seed": seed,
        "threads": args.threads,
    }
    if args.fmt == "json":
        doc = dict(meta)
        doc["estimates"] = rows
        text = json.dumps(doc, indent=2) + "\n"
    elif args.fmt == "csv":
        text = _csv(_SIM_FIELDS, [
            row if row["rejection_rate"] is not None else {**row, "rejection_rate": "NA"}
            for row in rows])
    else:
        text = _sim_table(meta, rows)
    _write_output(text, args.out)
    return 0


def cmd_validate(args) -> int:
    path = _resolve_data_path(args.data)
    loaded = load_dataset(path)
    summary = dataset_summary(loaded)
    if args.fmt == "json":
        text = json.dumps(summary, indent=2) + "\n"
    else:
        lines = [f"{path}: OK"]
        for key in ("n", "n1", "n2", "arm1_mean", "arm2_mean",
                    "mean_difference", "arm1_variance", "arm2_variance"):
            value = summary[key]
            shown = "-" if value is None else (
                value if isinstance(value, int) else _fmt_float(value, 8)
            )
            lines.append(f"  {key}: {shown}")
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"test": cmd_test, "simulate": cmd_simulate, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except EnumerationTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except UnsupportedDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RandcompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
