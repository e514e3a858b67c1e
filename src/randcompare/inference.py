"""The test procedures and the exact and Monte Carlo p-value engines of
the resampling tests; the closed-form tests read asymptotic p-values.

Each procedure reports the hypothesis it addresses and the assumptions
it needs, because the same arithmetic can mean different things: the
permutation test and the Fisher randomization test produce numerically
identical p-values under a uniform completely randomized design, yet one
speaks about the generating process and the other about the realized
potential values of the sampled units.

Two-sided conventions follow each statistic's own definition: the
absolute-value tail for difference statistics and the studentized
statistics, the doubled smaller tail (capped at 1) for the rank sum.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Callable, NamedTuple, NoReturn, Optional, Union

import numpy as np

from .core import Hypothesis, ObservedBlock, ObservedExperiment
from .designs import (
    ENUMERATION_CAP,
    AssignmentDesign,
    RngStream,
    SelectionDesign,
    TailMemo,
    UniformCRD,
    check_both_arm_inclusion,
    sample_assignment_batch,
    scan_tails,
)
from .errors import (
    DataValidationError,
    DegenerateDataError,
    DesignInvalidError,
    InsufficientDataError,
    NoncomputableDistributionError,
    RandcompareError,
    UnsupportedDesignError,
)
from .special import normal_cdf, student_t_cdf
from .stats import (
    d_affine_form,
    d_statistic,
    pooled_se,
    rank_midranks,
    rank_sum_statistic,
    resolve_weights,
    welch_df,
    welch_se,
)

# The size/power harness scores its replicates in blocks of at most this
# many responses (simulation.run_size_power).
MC_CHUNK = 8_192

# Monte Carlo draws are made and scored in batches of at most this many
# float64 arm-1 indicator rows, STOP_CHUNK * n * 8 bytes (256 KiB at
# n = 64), a stop rule, where one is given, checked before each.
STOP_CHUNK = 512

# The smallest Monte Carlo budget any engine or the harness accepts.
MIN_MC_BUDGET = 1000


def check_mc_budget(budget: int) -> None:
    """Refuse a Monte Carlo budget below MIN_MC_BUDGET."""
    if budget < MIN_MC_BUDGET:
        raise DataValidationError(f"Monte Carlo budget must be >= {MIN_MC_BUDGET}")


@dataclass(frozen=True)
class ExactEngine:
    """Exact tails over designs of up to ENUMERATION_CAP assignments, which
    the design computes (design.exact_tails: a uniform CRD counts them, an
    Explicit design scans its support) and past which it raises
    EnumerationTooLargeError. The engine's bounded TailMemo keeps what the
    design prepared for a design or column seen before; it changes no result."""

    kind = "exact"
    _memo: TailMemo = field(default_factory=TailMemo, init=False, repr=False, compare=False)

    def tails(self, design: AssignmentDesign, columns) -> list:
        """The resampling kernel: for each column (coef, offset, observed),
        whose statistic at an assignment with arm-1 indicator row m is
        m @ coef + offset, the hit counts [abs, upper, lower] over the
        support of |stat| >= |observed|, stat >= observed and
        stat <= observed, each up to design.tie_bounds; out of
        denominator(design) support points, or as probability masses out of
        1 for a design that does not count them."""
        return design.exact_tails([(coef, offset, design.tie_bounds(coef, offset, observed))
                                   for coef, offset, observed in columns], self._memo)

    def denominator(self, design: AssignmentDesign):
        return design.tail_denominator

    def to_dict(self) -> dict:
        return {"kind": self.kind, "enumeration_cap": ENUMERATION_CAP}


@dataclass(frozen=True)
class MonteCarloEngine:
    """Seeded resampling from the design with the add-one correction."""

    budget: int
    rng: RngStream

    kind = "monte_carlo"

    def __post_init__(self):
        check_mc_budget(self.budget)

    def tails(self, design: AssignmentDesign, columns, stop=None) -> list:
        """ExactEngine.tails as hit counts over budget draws from design on
        rng.generator(), made in chunks of STOP_CHUNK and shared by every
        column. Each chunk is scored before the next is drawn, so one chunk
        is alive at a time.

        stop(totals, drawn), if given, is asked before each chunk whether
        the (columns, 3) hit counts of the first drawn draws are enough; if
        so the draws end there and those counts are returned. The draws that
        are made are the budget's first ones, bit for bit: chunks drawn one
        after another from one generator are the rows of one batch. The
        size/power harness stops once every decision p <= alpha is fixed,
        so its decisions are the full budget's; the test command and the
        test functions pass no stop and report full-budget p-values."""
        gen = self.rng.generator()
        bounded = [(coef, offset, design.tie_bounds(coef, offset, observed))
                   for coef, offset, observed in columns]
        totals = np.zeros((len(columns), 3), dtype=np.int64)
        for start in range(0, self.budget, STOP_CHUNK):
            if stop is not None and stop(totals, start):
                break
            size = min(STOP_CHUNK, self.budget - start)
            totals += scan_tails(sample_assignment_batch(design, size, gen), bounded)
        return totals.tolist()

    def denominator(self, design: AssignmentDesign) -> int:
        return self.budget

    def to_dict(self) -> dict:
        return {"kind": self.kind, "budget": self.budget, "seed": self.rng.seed}


PValueEngine = Union[ExactEngine, MonteCarloEngine]


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test on one dataset.

    p_value_kind is "exact", "monte_carlo" (with mc_stderr set) or
    "asymptotic". degenerate flags data that admit no informative
    statistic (e.g. constant responses), where p = 1 by construction.
    """

    test: str
    hypothesis: Hypothesis
    statistic: float
    p_value: float
    p_value_kind: str
    mc_stderr: Optional[float]
    assumptions: tuple
    n1: int
    n2: int
    degenerate: bool = False

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise DataValidationError("p-value must lie in [0, 1]")

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "hypothesis": self.hypothesis.value,
                "assumptions": list(self.assumptions)}


def _report(test, observed, statistic, p_value, kind, mc_stderr=None) -> TestReport:
    """The test's report, degenerate when every response is the same."""
    entry, r = TESTS[test], observed.responses
    return TestReport(test, entry.hypothesis, statistic, p_value, kind, mc_stderr,
                      entry.assumptions, observed.n1, observed.n2, bool((r == r[0]).all()))


class ClosedFormPlan(NamedTuple):
    """A closed-form test on one experiment up to its reference CDF: its
    studentized statistic, and df, the degrees of freedom of the t law the
    statistic is referred to, or None for the standard normal.
    score_closed_form turns plans into reports, reading their p-values
    with one CDF call per law."""

    test: str
    statistic: float
    df: Optional[float]
    n1: int
    n2: int
    degenerate: bool

    def report(self, p_value: float) -> TestReport:
        """The TestReport once the plan's p-value is read."""
        entry = TESTS[self.test]
        return TestReport(self.test, entry.hypothesis, self.statistic, p_value, "asymptotic",
                          None, entry.assumptions, self.n1, self.n2, self.degenerate)


def closed_form_p_values(statistics, dfs) -> np.ndarray:
    """The two-sided p-value min(1, max(0, 2 (1 - F(|t|)))) of each
    studentized statistic t of the float arrays statistics, F the CDF of
    the t law with the degrees of freedom in dfs, or of the standard
    normal where dfs is nan: one student_t_cdf call for the t laws and
    one normal_cdf call for the rest, whatever tests and blocks the
    statistics are of."""
    t, t_law = np.abs(statistics), ~np.isnan(dfs)
    cdf = np.empty_like(t)
    if t_law.any():
        cdf[t_law] = student_t_cdf(t[t_law], dfs[t_law])
    if not t_law.all():
        cdf[~t_law] = normal_cdf(t[~t_law])
    return np.minimum(1.0, np.maximum(0.0, 2.0 * (1.0 - cdf)))


def score_closed_form(outcomes) -> list:
    """outcomes, test outcomes from any number of blocks, with each
    ClosedFormPlan replaced by its TestReport; closed_form_p_values reads
    all of their p-values at once."""
    plans = [outcome for outcome in outcomes if isinstance(outcome, ClosedFormPlan)]
    p_values = iter(closed_form_p_values(
        np.array([plan.statistic for plan in plans], dtype=np.float64),
        np.array([np.nan if plan.df is None else plan.df for plan in plans],
                 dtype=np.float64)).tolist())
    return [outcome.report(next(p_values)) if isinstance(outcome, ClosedFormPlan) else outcome
            for outcome in outcomes]


def _finite(value: float, what: str) -> float:
    """value, or a DataValidationError where it is not finite."""
    if not math.isfinite(value):
        raise DataValidationError(
            f"the {what} is not finite: the responses are too large for this test")
    return value


def _studentized(test, block, differences, ses, df_of=None) -> list:
    """The t and Neyman tests' common step, on each experiment r of the
    block: differences[r] / ses[r] as a ClosedFormPlan, or the error that
    stops it. df_of(r), called once experiment r's standard error has
    passed its checks, gives the degrees of freedom of its t law; without
    df_of the law is the standard normal."""
    outcomes = []
    for r, (difference, se) in enumerate(zip(differences, ses)):
        try:
            if se == 0.0:
                raise DegenerateDataError("zero standard error: responses carry no variation")
            _finite(se, "standard error")
            df = None if df_of is None else _finite(df_of(r), "degrees of freedom")
            outcomes.append(ClosedFormPlan(test, _finite(difference / se, "statistic"), df,
                                           block.n1, block.n2, block.constant[r]))
        except RandcompareError as exc:
            outcomes.append(exc)
    return outcomes


def _require_two_arms(observed) -> None:
    """Refuse an experiment, or a block of them, with an empty arm."""
    if observed.n1 < 1 or observed.n2 < 1:
        raise InsufficientDataError("both treatment arms must be nonempty")


def add_one_pvalue(hits: int, budget: int) -> tuple:
    """Add-one Monte Carlo p-value (1 + hits) / (budget + 1), which is valid
    at any budget, and its standard error sqrt(p(1-p)/budget)."""
    p = (1 + hits) / (budget + 1)
    return p, math.sqrt(p * (1.0 - p) / budget)


@dataclass(frozen=True)
class ResamplingPlan:
    """A resampling test up to its tails: the design it resamples, the
    statistic it reports, and that statistic as a kernel column (coef,
    offset, compared): m @ coef + offset at an assignment with arm-1
    indicators m, compared with its value at the observed assignment.

    The rank sum reports min(1, 2 * smaller tail), the difference
    statistics their |stat| tail.
    """

    test: str
    design: AssignmentDesign
    observed: ObservedExperiment
    statistic: float
    coef: np.ndarray
    offset: float
    compared: float

    @property
    def column(self) -> tuple:
        return self.coef, self.offset, self.compared

    def report(self, tails, denominator, kind) -> TestReport:
        """The TestReport once an engine of this kind has scored this
        plan's column: tails are hit counts out of denominator, the support
        points an exact engine counted (or an Explicit design's probability
        masses, out of 1) or the draws of a Monte Carlo engine, which it
        reads by the add-one rule."""
        if kind == "monte_carlo":
            (p, stderr), (upper, se_up), (lower, se_lo) = (
                add_one_pvalue(t, denominator) for t in tails
            )
        else:
            (p, upper, lower), stderr = (t / denominator for t in tails), None
        if self.test == "wilcoxon":
            p = _doubled(min(upper, lower))
            if stderr is not None:
                # stderr of the doubled smaller tail, before the cap at 1
                stderr = 2.0 * (se_up if upper <= lower else se_lo)
        return _report(self.test, self.observed, self.statistic, p, kind, stderr)

    def rejection_bound(self, alpha: float, budget: int) -> int:
        """The largest hit count h whose report out of budget Monte Carlo
        draws has p <= alpha, or -1 if there is none. The count is the one
        report reads the p-value from: the abs tail, or for the rank sum
        the smaller of the two tails."""
        return _rejection_bound(self.test == "wilcoxon", alpha, budget)

    def stop_rule(self, alpha: float, budget: int) -> Callable:
        """decided(tails, drawn): whether the hit counts tails of the first
        drawn of budget draws fix this plan's decision p <= alpha. Under
        the add-one rule the count only grows with the draws, so the
        decision is fixed once the count is past rejection_bound (p > alpha
        whatever follows) or cannot get past it in the draws left (p <=
        alpha whatever follows)."""
        bound, doubled = self.rejection_bound(alpha, budget), self.test == "wilcoxon"

        def decided(tails, drawn) -> bool:
            count = min(tails[1], tails[2]) if doubled else tails[0]
            return count > bound or count + (budget - drawn) <= bound
        return decided


def _doubled(p: float) -> float:
    """The rank sum's two-sided p-value from its smaller tail's."""
    return min(1.0, 2.0 * p)


@lru_cache(maxsize=None)
def _rejection_bound(doubled: bool, alpha: float, budget: int) -> int:
    """ResamplingPlan.rejection_bound, doubled for the rank sum: a
    bisection over the report's own float p-values, which do not fall as
    the count grows."""
    def accepts(h) -> bool:
        p, _ = add_one_pvalue(h, budget)
        return (_doubled(p) if doubled else p) > alpha
    return bisect.bisect_left(range(budget + 1), True, key=accepts) - 1


def run_resampling_plans(plans, engine: PValueEngine, alpha: Optional[float] = None) -> list:
    """Reports of resampling tests that share one design, from one
    engine.tails call: one exact count, or one set of draws from engine.rng.
    Equal columns are scored once.

    With alpha, a Monte Carlo engine stops drawing once every plan's
    decision p <= alpha is fixed (ResamplingPlan.stop_rule), and a report
    then carries the p-value of the counts so far, a bound that decided
    it: only whether p <= alpha is meaningful there. The decisions are
    those of the full budget's reports. run_size_power is the only caller
    that passes alpha, and such reports never leave it."""
    design = plans[0].design
    if any(plan.design != design for plan in plans):
        raise ValueError("plans scored together must share one design")
    keys = [(plan.coef.tobytes(), plan.offset, plan.compared) for plan in plans]
    columns = dict(zip(keys, (plan.column for plan in plans)))
    if alpha is None or engine.kind != "monte_carlo":
        counts = engine.tails(design, list(columns.values()))
    else:
        index = {key: i for i, key in enumerate(columns)}
        rules = [(index[key], plan.stop_rule(alpha, engine.budget))
                 for plan, key in zip(plans, keys)]
        counts = engine.tails(design, list(columns.values()), lambda totals, drawn: all(
            decided(totals[i], drawn) for i, decided in rules))
    tails = dict(zip(columns, counts))
    denominator = engine.denominator(design)
    return [plan.report(tails[key], denominator, engine.kind) for plan, key in zip(plans, keys)]


def _difference_plan(test, observed, design, weights) -> ResamplingPlan:
    """The weighted difference D of the responses as a plan. When D is
    shift-invariant under the design, its column is built from the
    responses less their middle order statistic, a data value: the
    difference of two floats of like magnitude is exact, so the centered
    responses keep the lattice of the data and a common offset in them
    does not reach the rounding of the resampled statistics. Responses too
    large for the counter's sums, each at most sum(|coef|) + |offset|, are
    refused."""
    y, assignment = observed.responses, observed.assignment
    with np.errstate(over="ignore", invalid="ignore"):
        d_obs = _finite(d_statistic(y, assignment, weights), "statistic")
        if design.shift_invariant():
            y = y - np.sort(y)[len(y) // 2]
        coef, offset = d_affine_form(y, weights)
        _finite(np.abs(coef).sum() + abs(offset), "range of the resampled statistic")
        compared = _finite(d_statistic(y, assignment, weights), "statistic")
    return ResamplingPlan(test, design, observed, d_obs, coef, offset, compared)


def permutation_plan(observed: ObservedExperiment) -> ResamplingPlan:
    """The permutation test's plan: the difference of arm means over all
    relabelings at fixed arm sizes."""
    _require_two_arms(observed)
    design = UniformCRD(observed.n, observed.n1)
    weights = resolve_weights(design, observed.sample, observed.assignment)
    return _difference_plan("permutation", observed, design, weights)


def wilcoxon_plan(observed: ObservedExperiment) -> ResamplingPlan:
    """The rank-sum test's plan: the arm-1 midrank sum over relabelings."""
    _require_two_arms(observed)
    design = UniformCRD(observed.n, observed.n1)
    ranks = rank_midranks(observed.responses)
    w_obs = rank_sum_statistic(ranks, observed.assignment)
    return ResamplingPlan("wilcoxon", design, observed, w_obs, ranks, 0.0, w_obs)


def fisher_randomization_plan(
    observed: ObservedExperiment, design: AssignmentDesign
) -> ResamplingPlan:
    """The Fisher randomization test's plan: the inclusion-weighted
    difference statistic over the design's support."""
    _require_two_arms(observed)
    check_both_arm_inclusion(design)
    weights = resolve_weights(design, observed.sample, observed.assignment)
    if not design.contains(observed.assignment.labels):
        raise DesignInvalidError(design.outside_support)
    return _difference_plan("fisher_rand", observed, design, weights)


def permutation_test(observed: ObservedExperiment, engine: PValueEngine) -> TestReport:
    """Two-sided test of the distributional process null via the
    difference of arm means over all relabelings at fixed arm sizes."""
    return _run_test("permutation", observed, engine=engine)


def wilcoxon_test(observed: ObservedExperiment, engine: PValueEngine) -> TestReport:
    """Rank-sum test with midranks; p = min(1, 2 * smaller tail)."""
    return _run_test("wilcoxon", observed, engine=engine)


def _t_block(test, block, se_of, df_of) -> list:
    """A t test on each experiment of the block, from one set of arm
    reductions; se_of and df_of take Python floats, (v1, n1, v2, n2)."""
    n1, n2 = block.n1, block.n2
    if n1 < 2 or n2 < 2:
        raise InsufficientDataError("both arms need >= 2 observations")
    (mean1, ssd1), (mean2, ssd2) = block.arm_moments
    arms = [(v1, n1, v2, n2) for v1, v2 in zip((ssd1 / (n1 - 1)).tolist(),
                                               (ssd2 / (n2 - 1)).tolist())]
    with np.errstate(over="ignore", invalid="ignore"):
        differences = (mean1 - mean2).tolist()
    return _studentized(test, block, differences, [se_of(*a) for a in arms],
                        lambda r: df_of(*arms[r]))


def welch_t_test(observed: ObservedExperiment) -> TestReport:
    """Unequal-variance t test of equal treatment means."""
    return _run_test("welch_t", observed)


def pooled_t_test(observed: ObservedExperiment) -> TestReport:
    """Equal-variance two-sample t test of equal treatment means."""
    return _run_test("pooled_t", observed)


def fisher_randomization_test(
    observed: ObservedExperiment, design: AssignmentDesign, engine: PValueEngine
) -> TestReport:
    """Exact-conditional test of the sharp sample null.

    Under that null both potentials of every sampled unit equal its
    observed response, so the inclusion-weighted difference statistic has
    a fully known distribution over the design's support.
    """
    return _run_test("fisher_rand", observed, design, engine)


def _neyman_block(test, block: ObservedBlock, design: AssignmentDesign, weights=None) -> list:
    """A Neyman test on each experiment of the block: D over the
    variance-bound standard error. Only a uniform CRD has a variance bound.
    D's weights are the given (2, n) table, by default the design's own,
    its arm sizes; none is zero. Each arm's weighted sum is reduced as
    d_statistic reduces it, from a total of 0.0, so that a D of -0.0 reads
    0.0 there and here."""
    _require_two_arms(block)
    se = np.sqrt(design.variance_bound(block))
    if weights is None:
        weights = design.weight_table(block.sample)
    arm1 = block.labels == 1
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = block.responses / np.where(arm1, weights[0], weights[1])
        sum1, sum2 = (scaled[mask].reshape(arm.shape).sum(axis=1)
                      for mask, arm in zip((arm1, ~arm1), block.arms))
        d = 0.0 + sum1 + -1.0 * sum2
    return _studentized(test, block, d.tolist(), se.tolist())


def neyman_randomization_test(
    observed: ObservedExperiment, design: AssignmentDesign
) -> TestReport:
    """Normal-approximation test of the sample average null, using the
    variance-bound standard error."""
    return _run_test("neyman_rand", observed, design)


def _neyman_sel(block: ObservedBlock, design, census) -> list:
    """The population average test on each experiment of the block: the
    Neyman test on the uniform CRD the selection design census reduces
    to, where the joint inclusion weights collapse to arm sizes, with D
    kept on census's own weights (an ExplicitJoint's N times its inclusion
    probabilities can miss the arm sizes in the last bit)."""
    if census is None:
        raise UnsupportedDesignError(
            "the population average test needs a census design, and none was given")
    _require_two_arms(block)
    reduced = census.census() if isinstance(census, SelectionDesign) else None
    if reduced is None:
        raise UnsupportedDesignError(
            "the selection-based variance estimator is only defined for "
            "designs that reduce to a census with uniform CRD assignment")
    return _neyman_block("neyman_sel", block, reduced.assignment_design(),
                         weights=census.weight_table(block.sample))


def neyman_selection_test(
    observed: ObservedExperiment, design: SelectionDesign
) -> TestReport:
    """Normal-approximation test of the population average null, on
    designs that reduce to a census with uniform CRD assignment."""
    return _run_test("neyman_sel", observed, census=design)


def fisher_selection_test(
    observed: ObservedExperiment, design: SelectionDesign
) -> NoReturn:
    """Always raises: the exact-conditional population test does not exist.

    Under the sharp population null the unsampled units' potentials stay
    unobserved, so the statistic's null distribution over the selection
    design is known in form but not computable from the data.
    """
    raise NoncomputableDistributionError(
        "the sharp population null does not determine the full potential "
        "table: every unsampled unit has both potentials unobserved, so "
        "the null distribution is known but not computable from the data. "
        "Use fisher_randomization_test for the sampled units' sharp null, "
        "or neyman_selection_test for the population average null."
    )


def hypergeometric_counts(n: int, n1: int, m: int) -> dict:
    """{k: C(m, k) * C(n - m, n1 - k)}, k increasing: how many of the C(n, n1)
    arm-1 sets hold k of the m successes among n units."""
    return {
        k: math.comb(m, k) * math.comb(n - m, n1 - k)
        for k in range(max(0, m - (n - n1)), min(n1, m) + 1)
    }


def fisher_exact_2x2(observed: ObservedExperiment) -> TestReport:
    """Exact-conditional test for binary responses via the hypergeometric
    law of the arm-1 success count.

    Two-sided rule: sum the probabilities of all tables no more probable
    than the observed one. Computed in exact integer arithmetic on the
    common denominator C(n, n1), so no floating comparisons are needed.
    """
    _require_two_arms(observed)
    r = observed.responses
    if not np.all((r == 0.0) | (r == 1.0)):
        raise DataValidationError("responses must be binary (0/1)")
    n = observed.n
    n1 = observed.n1
    m = int(round(float(r.sum())))
    k_obs = int(round(float(observed.arm_responses(1).sum())))
    weights = hypergeometric_counts(n, n1, m)
    total = math.comb(n, n1)
    w_obs = weights[k_obs]
    numer = sum(w for w in weights.values() if w <= w_obs)
    return _report("fisher_exact", observed, float(k_obs), numer / total, "exact")


def _each(build) -> Callable:
    """A block builder from build(observed, design, census), which returns
    one experiment's plan or report: each experiment's, or its error."""
    def build_block(block, design, census) -> list:
        outcomes = []
        for observed in block.experiments:
            try:
                outcomes.append(build(observed, design, census))
            except RandcompareError as exc:
                outcomes.append(exc)
        return outcomes
    return build_block


class Procedure(NamedTuple):
    """One test: its command-line spelling, the null it addresses, the
    codes of the model assumptions it rests on, and build(block, design,
    census), which returns for each experiment of the ObservedBlock its
    ResamplingPlan, for run_block to score, its ClosedFormPlan, for the
    caller to score, its TestReport, or the RandcompareError it raised;
    an error of the whole block is raised. census is the selection design
    the data came from, or None. The t and Neyman tests build the block
    from one set of arm reductions, the others one experiment at a time.
    Builders call each test by this module's global name, so a rebinding
    of that name reaches them; the public test functions call their
    entry, through run_tests."""

    spelling: str
    hypothesis: Hypothesis
    assumptions: tuple
    build: Callable


# Every test, by report name. fisher_sel never yields a report: it raises,
# because its reference distribution is not computable.
TESTS = {
    "permutation": Procedure("permutation", Hypothesis.DUP, ("A1", "A2", "A3"),
                             _each(lambda obs, design, census: permutation_plan(obs))),
    "wilcoxon": Procedure("wilcoxon", Hypothesis.DUP, ("A1", "A2", "A3", "A4"),
                          _each(lambda obs, design, census: wilcoxon_plan(obs))),
    "welch_t": Procedure("welch", Hypothesis.EUP, ("A1", "A2", "A3", "A5"),
                         lambda block, design, census: _t_block(
                             "welch_t", block, welch_se, welch_df)),
    "pooled_t": Procedure("pooled", Hypothesis.EUP, ("A1", "A2", "A3", "A6"),
                          lambda block, design, census: _t_block(
                              "pooled_t", block, pooled_se,
                              lambda v1, n1, v2, n2: float(n1 + n2 - 2))),
    "fisher_rand": Procedure("fisher-rand", Hypothesis.RUs, ("B1", "B2"),
                             _each(lambda obs, design, census:
                                   fisher_randomization_plan(obs, design))),
    "neyman_rand": Procedure("neyman-rand", Hypothesis.RAs, ("B1", "B2"),
                             lambda block, design, census: _neyman_block(
                                 "neyman_rand", block, design)),
    "neyman_sel": Procedure("neyman-sel", Hypothesis.RAP, ("C1", "C2"),
                            _neyman_sel),
    "fisher_sel": Procedure("fisher-sel", Hypothesis.RUP, ("C1", "C2"),
                            _each(lambda obs, design, census:
                                  fisher_selection_test(obs, census))),
    "fisher_exact": Procedure("fisher-exact", Hypothesis.RUs, ("B1", "B2"),
                              _each(lambda obs, design, census: fisher_exact_2x2(obs))),
}


def run_block(block: ObservedBlock, design: AssignmentDesign, engines, names,
              census=None, alpha: Optional[float] = None):
    """Yield, for each test named (keys of TESTS) in order, its outcome on
    each experiment of the block: a TestReport, a closed-form test's
    ClosedFormPlan, or the RandcompareError it raised, so that a failing
    test hides no other and the caller decides which errors to raise. The
    caller reads the plans' p-values, on score_closed_form or
    closed_form_p_values, as many plans at a time as it likes: the CDFs
    are array functions whose cost is mostly per call. engines[r] scores
    experiment r's resampling plans, on run_resampling_plans with alpha:
    given alpha, a Monte Carlo report is a decision, not a p-value.

    The plans of one experiment and one design are scored on one
    run_resampling_plans call, whose error is the result of each, made
    when the first of them is reached: a caller that stops at an error
    pays for no later test's draws. Under the data's own uniform CRD,
    permutation and fisher_rand have one plan (the same weights over the
    same support): the first built lends it to the other. The experiments
    of a block share their arm sizes, so each of them builds that plan, or
    none does."""
    results, shared = [], None
    for name in names:
        difference = name in ("permutation", "fisher_rand")
        if difference and shared is not None:
            outcomes = [replace(plan, test=name) for plan in shared]
        else:
            try:
                outcomes = TESTS[name].build(block, design, census)
            except RandcompareError as exc:
                outcomes = [exc] * len(block)
            if (difference and all(isinstance(plan, ResamplingPlan) for plan in outcomes)
                    and design == outcomes[0].design == UniformCRD(block.n, block.n1)):
                shared = outcomes
        results.append(outcomes)
    for i, outcomes in enumerate(results):
        for r, result in enumerate(outcomes):
            if isinstance(result, ResamplingPlan):
                positions = [j for j in range(i, len(results))
                             if isinstance(results[j][r], ResamplingPlan)
                             and results[j][r].design == result.design]
                try:
                    reports = run_resampling_plans([results[j][r] for j in positions],
                                                   engines[r], alpha)
                except RandcompareError as exc:
                    reports = [exc] * len(positions)
                for j, report in zip(positions, reports):
                    results[j][r] = report
        yield results[i]


def run_tests(observed: ObservedExperiment, design: AssignmentDesign,
              engine: PValueEngine, names, census=None):
    """Yield the tests named (keys of TESTS) on observed, in order: each
    one's TestReport, or the RandcompareError it raised. This is run_block
    on the block of observed alone, scored by engine and score_closed_form."""
    for outcomes in run_block(ObservedBlock((observed,)), design, (engine,), names, census):
        yield from score_closed_form(outcomes)


def _run_test(name, observed, design=None, engine=None, census=None) -> TestReport:
    """The report of the test name (a key of TESTS) on observed, through
    run_tests, or the error it raised, raised."""
    [outcome] = run_tests(observed, design, engine, [name], census)
    if isinstance(outcome, RandcompareError):
        raise outcome
    return outcome
