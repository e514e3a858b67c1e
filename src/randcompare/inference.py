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

import math
from dataclasses import dataclass, field, fields, replace
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
    neyman_se,
    pooled_se,
    rank_midranks,
    rank_sum_statistic,
    resolve_weights,
    welch_df,
    welch_se,
)

# Monte Carlo draws are made and scored in batches of at most this many
# float64 arm-1 indicator rows, MC_CHUNK * n * 8 bytes (4 MiB at n = 64).
MC_CHUNK = 8_192

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

    def tails(self, design: AssignmentDesign, columns) -> list:
        """ExactEngine.tails as hit counts over budget draws from design on
        rng.generator(), made in chunks of MC_CHUNK and shared by every
        column. Each chunk is scored before the next is drawn, so one chunk
        is alive at a time."""
        gen = self.rng.generator()
        bounded = [(coef, offset, design.tie_bounds(coef, offset, observed))
                   for coef, offset, observed in columns]
        totals = np.zeros((len(columns), 3), dtype=np.int64)
        for start in range(0, self.budget, MC_CHUNK):
            size = min(MC_CHUNK, self.budget - start)
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


def _studentized(test, block, differences, ses, cdf) -> list:
    """The t and Neyman tests' common step, on each experiment r of the
    block: differences[r] / ses[r], with its two-sided p-value against the
    reference law whose CDF at t is cdf(t, r); or the error that stops it.
    Its reports are _report's, with the block's degenerate flags."""
    entry, outcomes = TESTS[test], []
    for r, (difference, se) in enumerate(zip(differences, ses)):
        try:
            if se == 0.0:
                raise DegenerateDataError("zero standard error: responses carry no variation")
            statistic = difference / se
            p = 2.0 * (1.0 - cdf(abs(statistic), r))
            outcomes.append(TestReport(test, entry.hypothesis, statistic, min(1.0, max(0.0, p)),
                                       "asymptotic", None, entry.assumptions, block.n1,
                                       block.n2, block.constant[r]))
        except RandcompareError as exc:
            outcomes.append(exc)
    return outcomes


def _only(outcomes):
    """The report of a block of one experiment, or the error it holds, raised."""
    [outcome] = outcomes
    if isinstance(outcome, RandcompareError):
        raise outcome
    return outcome


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
            p = min(1.0, 2.0 * min(upper, lower))
            if stderr is not None:
                # stderr of the doubled smaller tail, before the cap at 1
                stderr = 2.0 * (se_up if upper <= lower else se_lo)
        return _report(self.test, self.observed, self.statistic, p, kind, stderr)


def run_resampling_plans(plans, engine: PValueEngine) -> list:
    """Reports of resampling tests that share one design, from one
    engine.tails call: one exact count, or one set of draws from engine.rng.
    Equal columns are scored once."""
    design = plans[0].design
    if any(plan.design != design for plan in plans):
        raise ValueError("plans scored together must share one design")
    keys = [(plan.coef.tobytes(), plan.offset, plan.compared) for plan in plans]
    columns = dict(zip(keys, (plan.column for plan in plans)))
    tails = dict(zip(columns, engine.tails(design, list(columns.values()))))
    denominator = engine.denominator(design)
    return [plan.report(tails[key], denominator, engine.kind) for plan, key in zip(plans, keys)]


def _difference_plan(test, observed, design, weights) -> ResamplingPlan:
    """The weighted difference D of the responses as a plan. When D is
    shift-invariant under the design, its column is built from the
    responses less their middle order statistic, a data value: the
    difference of two floats of like magnitude is exact, so the centered
    responses keep the lattice of the data and a common offset in them
    does not reach the rounding of the resampled statistics."""
    y, assignment = observed.responses, observed.assignment
    d_obs = d_statistic(y, assignment, weights)
    if design.shift_invariant():
        y = y - np.sort(y)[len(y) // 2]
    coef, offset = d_affine_form(y, weights)
    return ResamplingPlan(test, design, observed, d_obs, coef, offset,
                          d_statistic(y, assignment, weights))


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
    return run_resampling_plans([permutation_plan(observed)], engine)[0]


def wilcoxon_test(observed: ObservedExperiment, engine: PValueEngine) -> TestReport:
    """Rank-sum test with midranks; p = min(1, 2 * smaller tail)."""
    return run_resampling_plans([wilcoxon_plan(observed)], engine)[0]


def _t_block(test, block, se_of, df_of) -> list:
    """A t test on each experiment of the block, from one set of arm
    reductions; se_of and df_of take Python floats, (v1, n1, v2, n2)."""
    n1, n2 = block.n1, block.n2
    if n1 < 2 or n2 < 2:
        raise InsufficientDataError("both arms need >= 2 observations")
    (mean1, ssd1), (mean2, ssd2) = block.arm_moments
    arms = [(v1, n1, v2, n2) for v1, v2 in zip((ssd1 / (n1 - 1)).tolist(),
                                               (ssd2 / (n2 - 1)).tolist())]
    # cdf finds the degrees of freedom, so df_of runs after the zero-se check
    return _studentized(test, block, (mean1 - mean2).tolist(), [se_of(*a) for a in arms],
                        lambda t, r: student_t_cdf(t, df_of(*arms[r])))


def welch_t_test(observed: ObservedExperiment) -> TestReport:
    """Unequal-variance t test of equal treatment means."""
    return _only(TESTS["welch_t"].build(ObservedBlock((observed,)), None, None))


def pooled_t_test(observed: ObservedExperiment) -> TestReport:
    """Equal-variance two-sample t test of equal treatment means."""
    return _only(TESTS["pooled_t"].build(ObservedBlock((observed,)), None, None))


def fisher_randomization_test(
    observed: ObservedExperiment, design: AssignmentDesign, engine: PValueEngine
) -> TestReport:
    """Exact-conditional test of the sharp sample null.

    Under that null both potentials of every sampled unit equal its
    observed response, so the inclusion-weighted difference statistic has
    a fully known distribution over the design's support.
    """
    return run_resampling_plans([fisher_randomization_plan(observed, design)], engine)[0]


def _neyman_block(block: ObservedBlock, design: AssignmentDesign) -> list:
    """The Neyman test on each experiment of the block: D over the
    variance-bound standard error. Only a uniform CRD has a variance bound,
    so D's weights are its arm sizes, none zero. Each arm's weighted sum
    is reduced as d_statistic reduces it, from a total of 0.0, so that a D
    of -0.0 reads 0.0 there and here."""
    _require_two_arms(block)
    se = np.sqrt(design.variance_bound(block))
    weights, arm1 = design.weight_table(block.sample), block.labels == 1
    scaled = block.responses / np.where(arm1, weights[0], weights[1])
    sum1, sum2 = (scaled[mask].reshape(arm.shape).sum(axis=1)
                  for mask, arm in zip((arm1, ~arm1), block.arms))
    d = 0.0 + sum1 + -1.0 * sum2
    return _studentized("neyman_rand", block, d.tolist(), se.tolist(),
                        lambda t, r: normal_cdf(t))


def neyman_randomization_test(
    observed: ObservedExperiment, design: AssignmentDesign
) -> TestReport:
    """Normal-approximation test of the sample average null, using the
    variance-bound standard error."""
    return _only(TESTS["neyman_rand"].build(ObservedBlock((observed,)), design, None))


def neyman_selection_test(
    observed: ObservedExperiment, design: SelectionDesign
) -> TestReport:
    """Normal-approximation test of the population average null.

    Only census-reducible designs are supported: when the sample is the
    whole population the joint inclusion weights collapse to arm sizes
    and the statistic coincides with the randomization-based one.
    """
    _require_two_arms(observed)
    census = design.census() if isinstance(design, SelectionDesign) else None
    if census is None:
        raise UnsupportedDesignError(
            "the selection-based variance estimator is only defined for "
            "designs that reduce to a census with uniform CRD assignment"
        )
    weights = resolve_weights(design, observed.sample, observed.assignment)
    se = neyman_se(observed, census.assignment_design())
    d = d_statistic(observed.responses, observed.assignment, weights)
    return _only(_studentized("neyman_sel", ObservedBlock((observed,)), [d], [se],
                              lambda t, r: normal_cdf(t)))


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


def _neyman_sel(observed, design, census):
    if census is None:
        raise UnsupportedDesignError(
            "the population average test needs a census design, and none was given"
        )
    return neyman_selection_test(observed, census)


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
    ResamplingPlan, for run_block to score, its TestReport, or the
    RandcompareError it raised; an error of the whole block is raised.
    census is the selection design the data came from, or None. The
    closed-form tests score the block from one set of arm reductions, the
    others one experiment at a time. Builders call each test by this
    module's global name, so a rebinding of that name reaches them."""

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
                             lambda block, design, census: _neyman_block(block, design)),
    "neyman_sel": Procedure("neyman-sel", Hypothesis.RAP, ("C1", "C2"), _each(_neyman_sel)),
    "fisher_sel": Procedure("fisher-sel", Hypothesis.RUP, ("C1", "C2"),
                            _each(lambda obs, design, census:
                                  fisher_selection_test(obs, census))),
    "fisher_exact": Procedure("fisher-exact", Hypothesis.RUs, ("B1", "B2"),
                              _each(lambda obs, design, census: fisher_exact_2x2(obs))),
}


def run_block(block: ObservedBlock, design: AssignmentDesign, engines, names,
              census=None):
    """Yield, for each test named (keys of TESTS) in order, its outcome on
    each experiment of the block: a TestReport, or the RandcompareError it
    raised, so that a failing test hides no other and the caller decides
    which errors to raise. engines[r] scores experiment r's resampling
    plans.

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
                                                   engines[r])
                except RandcompareError as exc:
                    reports = [exc] * len(positions)
                for j, report in zip(positions, reports):
                    results[j][r] = report
        yield results[i]


def run_tests(observed: ObservedExperiment, design: AssignmentDesign,
              engine: PValueEngine, names, census=None):
    """Yield the tests named (keys of TESTS) on observed, in order: each
    one's TestReport, or the RandcompareError it raised. This is run_block
    on the block of observed alone, scored by engine."""
    for (outcome,) in run_block(ObservedBlock((observed,)), design, (engine,), names, census):
        yield outcome
