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
from .stats import pooled_se, rank_midranks, welch_df, welch_se

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


@dataclass(frozen=True, eq=False)
class ClosedFormPlans:
    """A closed-form test on each experiment of a block up to its
    reference CDF: (R,) float arrays of the studentized statistics and of
    dfs, the degrees of freedom of the t law each statistic is referred
    to, nan for the standard normal; and failures, {r: the
    RandcompareError that stopped experiment r}, whose statistic and df
    are nan. score_closed_form turns them into reports, reading their
    p-values with one CDF call per law."""

    test: str
    block: ObservedBlock
    statistics: np.ndarray
    dfs: np.ndarray
    failures: dict


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
    """A test's outcomes on a block (run_block's), each experiment's read
    into a TestReport, degenerate when its responses are all equal, or
    the error that stopped it; a list, an error of the whole block, as it
    is. ClosedFormPlans' p-values come from one closed_form_p_values call,
    ResamplingPlans' as run_block scored them, exact where no stderr is."""
    if isinstance(outcomes, list):
        return outcomes
    statistics, failures, block = outcomes.statistics, outcomes.failures, outcomes.block
    if isinstance(outcomes, ClosedFormPlans):
        planned = ~np.isnan(statistics)
        p_values = np.full(len(planned), np.nan)
        p_values[planned] = closed_form_p_values(statistics[planned], outcomes.dfs[planned])
        stderrs, kinds = [None] * len(planned), ["asymptotic"] * len(planned)
    else:
        p_values = outcomes.p_values
        stderrs = [None if math.isnan(se) else se for se in outcomes.stderrs.tolist()]
        kinds = ["exact" if se is None else "monte_carlo" for se in stderrs]
    entry = TESTS[outcomes.test]
    return [failures[r] if r in failures else TestReport(
                outcomes.test, entry.hypothesis, statistic, p_value, kind, stderr,
                entry.assumptions, block.n1, block.n2, block.constant[r])
            for r, (statistic, p_value, kind, stderr) in enumerate(zip(
                statistics.tolist(), p_values.tolist(), kinds, stderrs))]


def _not_finite(what: str) -> DataValidationError:
    """The error of a value, named by what, that is not finite."""
    return DataValidationError(
        f"the {what} is not finite: the responses are too large for this test")


class _Failures(dict):
    """{r: the RandcompareError that stopped experiment r of a block of
    size experiments}, each experiment's first."""

    def __init__(self, size: int):
        super().__init__()
        self.failed = np.zeros(size, dtype=bool)

    def refuse(self, rows, error) -> None:
        """error stops each experiment of the mask rows that no earlier
        refuse stopped."""
        rows = rows & ~self.failed
        self.update(dict.fromkeys(np.flatnonzero(rows).tolist(), error))
        self.failed |= rows


def _studentized(test, block, differences, ses, df_of=None) -> ClosedFormPlans:
    """The t and Neyman tests' common step on the block: differences / ses,
    (R,) arrays, as ClosedFormPlans. Experiment r fails at the first check
    it fails, in this order: a zero standard error (DegenerateDataError),
    then a standard error, degrees of freedom or statistic that is not
    finite. df_of(passed), given the mask of the experiments whose standard
    errors passed, gives the degrees of freedom of their t laws; without
    df_of the law is the standard normal."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        statistics = differences / ses
    dfs = np.full(len(ses), np.nan)
    failures = _Failures(len(ses))
    failures.refuse(ses == 0.0, DegenerateDataError(
        "zero standard error: responses carry no variation"))
    failures.refuse(~np.isfinite(ses), _not_finite("standard error"))
    if df_of is not None:
        dfs[~failures.failed] = df_of(~failures.failed)
        failures.refuse(~np.isfinite(dfs), _not_finite("degrees of freedom"))
    failures.refuse(~np.isfinite(statistics), _not_finite("statistic"))
    statistics[failures.failed] = dfs[failures.failed] = np.nan
    return ClosedFormPlans(test, block, statistics, dfs, failures)


def _require_two_arms(block) -> None:
    """Refuse a block whose experiments have an empty arm."""
    if block.n1 < 1 or block.n2 < 1:
        raise InsufficientDataError("both treatment arms must be nonempty")


def add_one_pvalue(hits: int, budget: int) -> tuple:
    """Add-one Monte Carlo p-value (1 + hits) / (budget + 1), which is valid
    at any budget, and its standard error sqrt(p(1-p)/budget)."""
    p = (1 + hits) / (budget + 1)
    return p, math.sqrt(p * (1.0 - p) / budget)


@dataclass(frozen=True, eq=False)
class ResamplingPlans:
    """A resampling test on each experiment of a block up to its tails,
    shaped as ClosedFormPlans: the design it resamples, the (R,) statistics
    it reports, and experiment r's kernel column(r) = (coefs[r], offsets[r],
    compared[r]): m @ coefs[r] + offsets[r] at an assignment with arm-1
    indicators m, compared with its value at the observed one. run_block
    scores them in place into (R,) p_values and stderrs, nan until then and
    where there is none (an exact tail or a failure). fisher_exact counts
    its tails as it builds, so its plans have no design and no columns."""

    test: str
    design: Optional[AssignmentDesign]
    block: ObservedBlock
    statistics: np.ndarray
    coefs: Optional[np.ndarray]
    offsets: Optional[np.ndarray]
    compared: Optional[np.ndarray]
    failures: _Failures

    def __post_init__(self):
        for name in ("p_values", "stderrs"):
            object.__setattr__(self, name, np.full(len(self.statistics), np.nan))

    def column(self, r: int) -> tuple:
        return self.coefs[r], float(self.offsets[r]), float(self.compared[r])

    def pending(self, r: int) -> bool:
        """Whether experiment r is neither stopped nor scored."""
        return not self.failures.failed[r] and math.isnan(self.p_values[r])


def _doubled(p: float) -> float:
    """The rank sum's two-sided p-value from its smaller tail's."""
    return min(1.0, 2.0 * p)


def _p_value(tails, denominator, kind: str, doubled: bool) -> tuple:
    """(p, stderr) of a plan once an engine of this kind has scored its
    column: tails are hit counts [abs, upper, lower] out of denominator,
    the support points an exact engine counted (or an Explicit design's
    probability masses, out of 1), or the draws of a Monte Carlo engine,
    which it reads by the add-one rule and which alone gives a stderr (nan
    otherwise). The rank sum (doubled) reads its smaller tail, doubled."""
    if kind == "monte_carlo":
        (p, stderr), (upper, se_up), (lower, se_lo) = (
            add_one_pvalue(t, denominator) for t in tails
        )
    else:
        (p, upper, lower), stderr = (t / denominator for t in tails), math.nan
    if doubled:
        p = _doubled(min(upper, lower))
        if kind == "monte_carlo":
            # stderr of the doubled smaller tail, before the cap at 1
            stderr = 2.0 * (se_up if upper <= lower else se_lo)
    return p, stderr


@lru_cache(maxsize=None)
def _stop_rule(doubled: bool, alpha: float, budget: int) -> Callable:
    """decided(tails, drawn): whether the hit counts tails of the first
    drawn of budget Monte Carlo draws fix a plan's decision p <= alpha.
    decided.bound is the largest count, of the abs tail or for the rank
    sum (doubled) the smaller tail, whose p-value (_p_value) is <= alpha,
    or -1: a bisection over those float p-values, which do not fall as the
    count grows. Under the add-one rule the count only grows with the
    draws, so the decision is fixed once the count is past the bound
    (p > alpha whatever follows) or cannot get past it in the draws left
    (p <= alpha whatever follows)."""
    def accepts(h) -> bool:
        p, _ = add_one_pvalue(h, budget)
        return (_doubled(p) if doubled else p) > alpha
    bound = bisect.bisect_left(range(budget + 1), True, key=accepts) - 1

    def decided(tails, drawn) -> bool:
        count = min(tails[1], tails[2]) if doubled else tails[0]
        return count > bound or count + (budget - drawn) <= bound
    decided.bound = bound
    return decided


def _score_experiment(plans, r: int, engine: PValueEngine, alpha: Optional[float] = None) -> None:
    """Score experiment r of resampling plans that share one design, in
    place, from one engine.tails call: one exact count, or one set of
    draws from engine.rng. Equal columns are scored once; an error of the
    engine stops experiment r of every plan. With alpha, a Monte Carlo
    engine stops drawing once every plan's decision p <= alpha is fixed
    (_stop_rule), and a plan's p-value is then that of the counts so far:
    only whether p <= alpha, the full budget's decision, is meaningful.
    run_size_power is the only caller that passes alpha."""
    design = plans[0].design
    columns = [plan.column(r) for plan in plans]
    keys = [(coef.tobytes(), offset, compared) for coef, offset, compared in columns]
    unique = dict(zip(keys, columns))
    stop = ()
    if alpha is not None and engine.kind == "monte_carlo":
        index = {key: i for i, key in enumerate(unique)}
        rules = [(index[key], _stop_rule(plan.test == "wilcoxon", alpha, engine.budget))
                 for plan, key in zip(plans, keys)]
        stop = (lambda totals, drawn: all(decided(totals[i], drawn) for i, decided in rules),)
    try:
        counts = engine.tails(design, list(unique.values()), *stop)
    except RandcompareError as exc:
        for plan in plans:
            plan.failures.refuse(np.arange(len(plan.statistics)) == r, exc)
        return
    tails = dict(zip(unique, counts))
    denominator = engine.denominator(design)
    for plan, key in zip(plans, keys):
        plan.p_values[r], plan.stderrs[r] = _p_value(tails[key], denominator, engine.kind,
                                                     plan.test == "wilcoxon")


def _weighted_difference(block: ObservedBlock, responses, weights) -> np.ndarray:
    """The weighted difference D of each row of responses, an (R, n)
    matrix, at the block's labels, with the (2, n) weights, none zero on
    an observed label. Each arm's weighted sum is reduced as d_statistic
    reduces it, from a total of 0.0, so that a D of -0.0 reads 0.0 there
    and here."""
    arm1 = block.labels == 1
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = responses / np.where(arm1, weights[0], weights[1])
        sum1, sum2 = (scaled[mask].reshape(len(block), size).sum(axis=1)
                      for mask, size in ((arm1, block.n1), (~arm1, block.n2)))
        return 0.0 + sum1 + -1.0 * sum2


def _difference_plans(test, block, design, weights, outside=None) -> ResamplingPlans:
    """The weighted difference D of each experiment's responses as its
    plan, or the error that stopped the experiment. When D is shift-invariant
    under the design, its column is built from the responses less their
    middle order statistic, a data value: the difference of two floats of
    like magnitude is exact, so the centered responses keep the lattice of
    the data and a common offset in them does not reach the rounding of
    the resampled statistics. An experiment fails at the first check it
    fails, in this order: its labels are in the mask outside, those the
    design cannot produce; then its D, the sum(|coef|) + |offset| that
    bounds the counter's sums, or its compared value is not finite, as
    finite but huge responses give."""
    failures, y = _Failures(len(block)), block.responses
    if outside is not None:
        failures.refuse(outside, DesignInvalidError(design.outside_support))
    with np.errstate(over="ignore", invalid="ignore"):
        statistics = _weighted_difference(block, y, weights)
        if design.shift_invariant():
            y = y - np.sort(y, axis=1)[:, block.n // 2, None]
        coefs = y / weights[0] + y / weights[1]
        offsets = -(y / weights[1]).sum(axis=1)
        ranges = np.abs(coefs).sum(axis=1) + np.abs(offsets)
        compared = _weighted_difference(block, y, weights)
    failures.refuse(~np.isfinite(statistics), _not_finite("statistic"))
    failures.refuse(~np.isfinite(ranges), _not_finite("range of the resampled statistic"))
    failures.refuse(~np.isfinite(compared), _not_finite("statistic"))
    return ResamplingPlans(test, design, block, statistics, coefs, offsets, compared, failures)


def _permutation(block, design, census) -> ResamplingPlans:
    """The permutation test's plans: the difference of arm means over all
    relabelings at fixed arm sizes."""
    _require_two_arms(block)
    design = UniformCRD(block.n, block.n1)
    return _difference_plans("permutation", block, design, design.weight_table(block.sample))


def _wilcoxon(block, design, census) -> ResamplingPlans:
    """The rank-sum test's plans: the arm-1 midrank sum over relabelings."""
    _require_two_arms(block)
    design = UniformCRD(block.n, block.n1)
    ranks = np.stack([rank_midranks(y) for y in block.responses])
    sums = ranks[block.labels == 1].reshape(len(block), block.n1).sum(axis=1)
    return ResamplingPlans("wilcoxon", design, block, sums, ranks, np.zeros(len(block)), sums,
                           _Failures(len(block)))


def _fisher_randomization(block, design, census) -> ResamplingPlans:
    """The Fisher randomization test's plans: the inclusion-weighted
    difference statistic over the design's support. The weights are
    nonzero, as every position can receive either treatment."""
    _require_two_arms(block)
    check_both_arm_inclusion(design)
    weights = design.weight_table(block.sample)
    outside = ~np.array([design.contains(labels) for labels in block.labels])
    return _difference_plans("fisher_rand", block, design, weights, outside)


def permutation_test(observed: ObservedExperiment, engine: PValueEngine) -> TestReport:
    """Two-sided test of the distributional process null via the
    difference of arm means over all relabelings at fixed arm sizes."""
    return _run_test("permutation", observed, engine=engine)


def wilcoxon_test(observed: ObservedExperiment, engine: PValueEngine) -> TestReport:
    """Rank-sum test with midranks; p = min(1, 2 * smaller tail)."""
    return _run_test("wilcoxon", observed, engine=engine)


def _t_block(test, block, se_of, df_of) -> ClosedFormPlans:
    """A t test on each experiment of the block, from one set of arm
    reductions; se_of and df_of take (v1, n1, v2, n2), v1 and v2 arrays of
    arm variances, and give an array, or a float for every experiment."""
    n1, n2 = block.n1, block.n2
    if n1 < 2 or n2 < 2:
        raise InsufficientDataError("both arms need >= 2 observations")
    (mean1, ssd1), (mean2, ssd2) = block.arm_moments
    v1, v2 = ssd1 / (n1 - 1), ssd2 / (n2 - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        differences = mean1 - mean2
        ses = se_of(v1, n1, v2, n2)
    return _studentized(test, block, differences, ses,
                        lambda passed: df_of(v1[passed], n1, v2[passed], n2))


def _welch_t(block, design, census) -> ClosedFormPlans:
    """Welch's t test, with welch_df of each experiment's arm variances."""
    return _t_block("welch_t", block, welch_se, lambda v1, n1, v2, n2: [
        welch_df(a, n1, b, n2) for a, b in zip(v1.tolist(), v2.tolist())])


def _pooled_t(block, design, census) -> ClosedFormPlans:
    return _t_block("pooled_t", block, pooled_se, lambda v1, n1, v2, n2: float(n1 + n2 - 2))


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


def _neyman_block(test, block: ObservedBlock, design: AssignmentDesign,
                  weights=None) -> ClosedFormPlans:
    """A Neyman test on each experiment of the block: D over the
    variance-bound standard error. Only a uniform CRD has a variance bound.
    D's weights are the given (2, n) table, by default the design's own,
    its arm sizes; none is zero."""
    _require_two_arms(block)
    se = np.sqrt(design.variance_bound(block))
    if weights is None:
        weights = design.weight_table(block.sample)
    return _studentized(test, block, _weighted_difference(block, block.responses, weights), se)


def _neyman_rand(block, design, census) -> ClosedFormPlans:
    return _neyman_block("neyman_rand", block, design)


def neyman_randomization_test(
    observed: ObservedExperiment, design: AssignmentDesign
) -> TestReport:
    """Normal-approximation test of the sample average null, using the
    variance-bound standard error."""
    return _run_test("neyman_rand", observed, design)


def _neyman_sel(block: ObservedBlock, design, census) -> ClosedFormPlans:
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


def _fisher_selection(block, design, census) -> NoReturn:
    """Always raises, for the whole block: see fisher_selection_test."""
    raise NoncomputableDistributionError(
        "the sharp population null does not determine the full potential "
        "table: every unsampled unit has both potentials unobserved, so "
        "the null distribution is known but not computable from the data. "
        "Use fisher_randomization_test for the sampled units' sharp null, "
        "or neyman_selection_test for the population average null."
    )


def fisher_selection_test(
    observed: ObservedExperiment, design: SelectionDesign
) -> NoReturn:
    """Always raises: the exact-conditional population test does not exist.

    Under the sharp population null the unsampled units' potentials stay
    unobserved, so the statistic's null distribution over the selection
    design is known in form but not computable from the data.
    """
    _run_test("fisher_sel", observed, census=design)


def hypergeometric_counts(n: int, n1: int, m: int) -> dict:
    """{k: C(m, k) * C(n - m, n1 - k)}, k increasing: how many of the C(n, n1)
    arm-1 sets hold k of the m successes among n units."""
    return {
        k: math.comb(m, k) * math.comb(n - m, n1 - k)
        for k in range(max(0, m - (n - n1)), min(n1, m) + 1)
    }


def _fisher_exact(block, design, census) -> ResamplingPlans:
    """The Fisher exact test's plans, scored as they are built: each
    experiment's arm-1 success count and exact p-value, or the error of
    an experiment whose responses are not binary: see fisher_exact_2x2. A
    binary experiment's success counts are its sums, counted as its ones."""
    _require_two_arms(block)
    n, n1, y = block.n, block.n1, block.responses
    failures = _Failures(len(block))
    failures.refuse(~((y == 0.0) | (y == 1.0)).all(axis=1),
                    DataValidationError("responses must be binary (0/1)"))
    counts = np.count_nonzero(block.arms[0] == 1.0, axis=1)
    plans = ResamplingPlans("fisher_exact", None, block, counts.astype(np.float64),
                            None, None, None, failures)
    total = math.comb(n, n1)
    for r, (m, k_obs) in enumerate(zip(np.count_nonzero(y == 1.0, axis=1).tolist(),
                                       counts.tolist())):
        if r not in failures:
            weights = hypergeometric_counts(n, n1, m)
            plans.p_values[r] = sum(w for w in weights.values() if w <= weights[k_obs]) / total
    return plans


def fisher_exact_2x2(observed: ObservedExperiment) -> TestReport:
    """Exact-conditional test for binary responses via the hypergeometric
    law of the arm-1 success count.

    Two-sided rule: sum the probabilities of all tables no more probable
    than the observed one. Computed in exact integer arithmetic on the
    common denominator C(n, n1), so no floating comparisons are needed.
    """
    return _run_test("fisher_exact", observed)


class Procedure(NamedTuple):
    """One test: its command-line spelling, the null it addresses, the
    codes of the model assumptions it rests on, and build(block, design,
    census), which reads the ObservedBlock's label and response matrices
    into its ResamplingPlans or ClosedFormPlans, holding each failed
    experiment's error, or raises an error of the whole block. census is
    the selection design the data came from, or None. The public test
    functions call their entry, through run_tests."""

    spelling: str
    hypothesis: Hypothesis
    assumptions: tuple
    build: Callable


# Every test, by report name. fisher_sel never yields a report: it raises,
# because its reference distribution is not computable.
TESTS = {
    "permutation": Procedure("permutation", Hypothesis.DUP, ("A1", "A2", "A3"), _permutation),
    "wilcoxon": Procedure("wilcoxon", Hypothesis.DUP, ("A1", "A2", "A3", "A4"), _wilcoxon),
    "welch_t": Procedure("welch", Hypothesis.EUP, ("A1", "A2", "A3", "A5"), _welch_t),
    "pooled_t": Procedure("pooled", Hypothesis.EUP, ("A1", "A2", "A3", "A6"), _pooled_t),
    "fisher_rand": Procedure("fisher-rand", Hypothesis.RUs, ("B1", "B2"),
                             _fisher_randomization),
    "neyman_rand": Procedure("neyman-rand", Hypothesis.RAs, ("B1", "B2"), _neyman_rand),
    "neyman_sel": Procedure("neyman-sel", Hypothesis.RAP, ("C1", "C2"), _neyman_sel),
    "fisher_sel": Procedure("fisher-sel", Hypothesis.RUP, ("C1", "C2"), _fisher_selection),
    "fisher_exact": Procedure("fisher-exact", Hypothesis.RUs, ("B1", "B2"), _fisher_exact),
}


def run_block(block: ObservedBlock, design: AssignmentDesign, engines, names,
              census=None, alpha: Optional[float] = None):
    """Yield, for each test named (keys of TESTS) in order, its outcomes on
    the block: its ClosedFormPlans, its scored ResamplingPlans, or for an
    error of the whole block a list of it, once per experiment; so a
    failing test hides no other and the caller decides which errors to
    raise. The caller reads closed-form p-values (score_closed_form,
    closed_form_p_values) as many plans at a time as it likes: the CDFs
    cost mostly per call. engines[r] scores experiment r of the resampling
    plans, with alpha as _score_experiment takes it.

    Experiment r of the plans of one design is scored on one engine.tails
    call, made when the first of them is reached: a caller that stops at
    an error pays for no later test's draws. Under the data's own uniform
    CRD, permutation and fisher_rand have one plan (the same weights over
    the same support): the first built lends it to the other, when every
    experiment of the block built one."""
    results, shared = [], None
    for name in names:
        difference = name in ("permutation", "fisher_rand")
        if difference and shared is not None:
            outcomes = replace(shared, test=name, failures=_Failures(len(block)))
        else:
            try:
                outcomes = TESTS[name].build(block, design, census)
            except RandcompareError as exc:
                outcomes = [exc] * len(block)
            if (difference and not isinstance(outcomes, list) and not outcomes.failures
                    and design == outcomes.design == UniformCRD(block.n, block.n1)):
                shared = outcomes
        results.append(outcomes)
    for i, outcomes in enumerate(results):
        if isinstance(outcomes, ResamplingPlans) and outcomes.design is not None:
            alike = [later for later in results[i:] if isinstance(later, ResamplingPlans)
                     and later.design == outcomes.design]
            for r in range(len(block)):
                if outcomes.pending(r):
                    _score_experiment([later for later in alike if later.pending(r)], r,
                                      engines[r], alpha)
        yield outcomes


def run_tests(observed: ObservedExperiment, design: AssignmentDesign,
              engine: PValueEngine, names, census=None):
    """Yield the tests named (keys of TESTS) on observed, in order: each
    one's TestReport, or the RandcompareError it raised. This is run_block
    on the block of observed alone, scored by engine and score_closed_form."""
    for outcomes in run_block(observed.block, design, (engine,), names, census):
        yield from score_closed_form(outcomes)


def _run_test(name, observed, design=None, engine=None, census=None) -> TestReport:
    """The report of the test name (a key of TESTS) on observed, through
    run_tests, or the error it raised, raised."""
    [outcome] = run_tests(observed, design, engine, [name], census)
    if isinstance(outcome, RandcompareError):
        raise outcome
    return outcome
