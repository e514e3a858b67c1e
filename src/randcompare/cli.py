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
from pathlib import Path

from .datasets import bundled_dataset_path, dataset_summary, load_dataset
from .designs import CensusCRD, RngStream, UniformCRD, explicit_from_json
from .errors import (
    DataValidationError,
    EnumerationTooLargeError,
    NoncomputableDistributionError,
    RandcompareError,
    UnsupportedDesignError,
)
from .inference import (
    AsymptoticEngine,
    ExactEngine,
    MonteCarloEngine,
    fisher_exact_2x2,
    fisher_randomization_plan,
    fisher_selection_test,
    neyman_randomization_test,
    neyman_selection_test,
    permutation_plan,
    pooled_t_test,
    run_resampling_plans,
    welch_t_test,
    wilcoxon_plan,
)
from .simulation import (
    get_scenario,
    known_scenarios,
    load_scenario_file,
    run_size_power,
)

# Exact enumeration is the default engine up to this support size; past
# it the default drops to Monte Carlo with a 10^6 budget.
DEFAULT_EXACT_LIMIT = 200_000
DEFAULT_MC_BUDGET = 1_000_000


def _neyman_sel(observed, design, census):
    if census is None:
        raise UnsupportedDesignError(
            "the population average test needs a census; it is only "
            "available with --design crd"
        )
    return neyman_selection_test(observed, census)


# Every test by CLI spelling: (report name, resampled, build(observed,
# design, census)). A resampling test's build returns its plan, scored on
# one kernel call with the plans that resample the same design (see
# _resampled_together); the others return the report, or raise, as
# fisher-sel always does (reported as a notice). Entries call each test
# by its global name, so a rebinding of that name reaches them.
_TESTS = {
    "permutation": ("permutation", True, lambda obs, design, census: permutation_plan(obs)),
    "wilcoxon": ("wilcoxon", True, lambda obs, design, census: wilcoxon_plan(obs)),
    "welch": ("welch_t", False, lambda obs, design, census: welch_t_test(obs)),
    "pooled": ("pooled_t", False, lambda obs, design, census: pooled_t_test(obs)),
    "fisher-rand": ("fisher_rand", True,
                    lambda obs, design, census: fisher_randomization_plan(obs, design)),
    "neyman-rand": ("neyman_rand", False,
                    lambda obs, design, census: neyman_randomization_test(obs, design)),
    "neyman-sel": ("neyman_sel", False, _neyman_sel),
    "fisher-sel": ("fisher_sel", False, lambda obs, design, census:
                   fisher_selection_test(obs, census or CensusCRD(obs.n, obs.n1))),
    "fisher-exact": ("fisher_exact", False, lambda obs, design, census: fisher_exact_2x2(obs)),
}

# report order for --tests all: the two difference statistics first
_ALL_ORDER = ("fisher-rand", "neyman-rand", "permutation", "wilcoxon", "welch", "pooled")


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
        help=f"comma list from {{{','.join(_TESTS)}}} or 'all'",
    )
    test.add_argument("--design", default="crd", help="'crd' or a JSON design file")
    test.add_argument("--engine", choices=("exact", "mc", "asymptotic"), default=None)
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
                     help="exact per-replicate enumeration for 20-unit scenarios")
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
    if args.mc is not None and args.engine not in (None, "mc"):
        raise DataValidationError("--mc only applies to the Monte Carlo engine")
    choice = args.engine
    if choice is None and args.mc is not None:
        choice = "mc"
    if choice is None:
        try:
            small = design.support_size <= DEFAULT_EXACT_LIMIT
        except EnumerationTooLargeError:
            small = False
        choice = "exact" if small else "mc"
    if choice == "exact":
        return ExactEngine()
    if choice == "mc":
        budget = DEFAULT_MC_BUDGET if args.mc is None else args.mc
        return MonteCarloEngine(budget, RngStream(seed))
    return AsymptoticEngine()


def _parse_test_list(raw: str) -> list:
    if raw.strip() == "all":
        return list(_ALL_ORDER) + ["fisher-sel"]
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise DataValidationError("--tests must name at least one test")
    for name in names:
        if name not in _TESTS:
            raise DataValidationError(
                f"unknown test {name!r}; known: {', '.join(_TESTS)}, all"
            )
    return names


def _resampled_together(names: list, start: int, design) -> list:
    """Positions, from start on, of the resampling tests that resample the
    same design as names[start] and so share one kernel call."""
    def own_design(name):
        return name == "fisher-rand" and not isinstance(design, UniformCRD)

    return [i for i in range(start, len(names))
            if _TESTS[names[i]][1] and own_design(names[i]) == own_design(names[start])]


def _engine_meta(engine) -> dict:
    if isinstance(engine, ExactEngine):
        return {"kind": "exact", "enumeration_cap": engine.enumeration_cap}
    if isinstance(engine, MonteCarloEngine):
        return {"kind": "monte_carlo", "budget": engine.budget,
                "seed": engine.rng.seed}
    return {"kind": "asymptotic"}


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


def _test_csv(reports: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["test", "hypothesis", "statistic", "p_value", "p_value_kind",
         "mc_stderr", "assumptions", "n1", "n2", "degenerate"]
    )
    for rep in reports:
        writer.writerow(
            [rep.test, rep.hypothesis.value, repr(rep.statistic),
             repr(rep.p_value), rep.p_value_kind,
             "" if rep.mc_stderr is None else repr(rep.mc_stderr),
             "|".join(rep.assumptions), rep.n1, rep.n2,
             int(rep.degenerate)]
        )
    return buf.getvalue()


def cmd_test(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    if not (0.0 < args.alpha <= 1.0):
        raise DataValidationError("alpha must lie in (0, 1]")
    path = _resolve_data_path(args.data)
    loaded = load_dataset(path)
    observed = loaded.observed
    design = _resolve_design(args.design, observed)
    census = (
        CensusCRD(observed.n, observed.n1) if isinstance(design, UniformCRD) else None
    )
    engine = _resolve_engine(args, design, seed)
    names = _parse_test_list(args.tests)
    reports = []
    notices = []
    # Resampling tests are scored a group at a time, when the group's
    # first test is reached, so errors still surface in --tests order.
    resampled = {}
    for i, name in enumerate(names):
        report_name, is_resampled, build = _TESTS[name]
        if is_resampled:
            if i not in resampled:
                group = _resampled_together(names, i, design)
                plans = [_TESTS[names[j]][2](observed, design, census) for j in group]
                resampled.update(zip(group, run_resampling_plans(plans, engine)))
            reports.append(resampled.pop(i))
            continue
        try:
            reports.append(build(observed, design, census))
        except NoncomputableDistributionError as exc:
            notices.append(
                {"test": report_name,
                 "error": "noncomputable_distribution",
                 "message": str(exc)}
            )
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
        "engine": _engine_meta(engine),
        "alpha": args.alpha,
        "seed": seed,
    }
    if args.fmt == "json":
        doc = dict(meta)
        doc["reports"] = [rep.to_dict() for rep in reports]
        doc["notices"] = notices
        text = json.dumps(doc, indent=2) + "\n"
    elif args.fmt == "csv":
        text = _test_csv(reports)
    else:
        text = _test_table(meta, reports, notices)
    _write_output(text, args.out)
    return 0


def _sim_rows(scenario_name: str, estimates: list) -> list:
    rows = []
    for est in estimates:
        rows.append(
            {
                "scenario": scenario_name,
                "row": est.row,
                "test": est.test_name,
                "rejection_rate": est.rejection_rate,
                "mc_stderr": est.mc_stderr,
                "rejections": est.rejections,
                "replicates": est.replicates,
            }
        )
    return rows


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


def _sim_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["scenario", "row", "test", "rejection_rate", "mc_stderr",
         "rejections", "replicates"]
    )
    for row in rows:
        writer.writerow(
            [row["scenario"], row["row"], row["test"],
             "NA" if row["rejection_rate"] is None else repr(row["rejection_rate"]),
             "" if row["mc_stderr"] is None else repr(row["mc_stderr"]),
             "" if row["rejections"] is None else row["rejections"],
             row["replicates"]]
        )
    return buf.getvalue()


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    if args.all_tables:
        names = list(known_scenarios())
    elif args.scenario is None:
        raise DataValidationError("name a scenario or pass --all-tables")
    elif args.scenario in known_scenarios():
        names = [args.scenario]
    elif Path(args.scenario).is_file():
        names = [load_scenario_file(args.scenario)]
    else:
        # not a known id and not a file: raise with the list of known ids
        get_scenario(args.scenario)
        raise AssertionError("unreachable")
    rows = []
    for item in names:
        scenario = get_scenario(item) if isinstance(item, str) else item
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
        text = _sim_csv(rows)
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
