"""The test procedures and the exact / Monte Carlo / asymptotic p-value
engines.

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
from dataclasses import dataclass
from typing import NoReturn, Optional, Union

import numpy as np

from .core import Hypothesis, ObservedExperiment
from .designs import (
    ENUMERATION_CAP,
    AssignmentDesign,
    RngStream,
    SelectionDesign,
    UniformCRD,
    check_both_arm_inclusion,
    reduces_to_census,
    sample_assignment_batch,
    support_label_matrix,
)
from .errors import (
    DataValidationError,
    DegenerateDataError,
    DesignInvalidError,
    InsufficientDataError,
    NoncomputableDistributionError,
    UnsupportedDesignError,
)
from .special import normal_cdf, student_t_cdf
from .stats import (
    ArmSizeWeights,
    AssignmentInclusionWeights,
    SelectionInclusionWeights,
    d_affine_form,
    d_statistic,
    neyman_se,
    pooled_se,
    rank_midranks,
    rank_sum_statistic,
    resolve_weights,
    sample_variance,
    welch_df,
    welch_se,
)

# A resampled statistic within this relative distance of the observed one
# counts as extreme. Protects exact-mode rational p-values from roundoff
# in recomputed statistics; the bias is conservative.
REL_TOL = 1e-9

# Monte Carlo draws are made and scored in batches of at most this many.
MC_CHUNK = 100_000


@dataclass(frozen=True)
class ExactEngine:
    """Full-support enumeration; p-values are exact tail probabilities."""

    enumeration_cap: int = ENUMERATION_CAP


@dataclass(frozen=True)
class MonteCarloEngine:
    """Seeded resampling from the design with the add-one correction."""

    budget: int
    rng: RngStream

    def __post_init__(self):
        if self.budget < 1000:
            raise DataValidationError("Monte Carlo budget must be >= 1000")


@dataclass(frozen=True)
class AsymptoticEngine:
    """Reference-distribution approximation; no resampling."""


PValueEngine = Union[ExactEngine, MonteCarloEngine, AsymptoticEngine]


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
        return {
            "test": self.test,
            "hypothesis": self.hypothesis.value,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "p_value_kind": self.p_value_kind,
            "mc_stderr": self.mc_stderr,
            "assumptions": list(self.assumptions),
            "n1": self.n1,
            "n2": self.n2,
            "degenerate": self.degenerate,
        }


# Each test's report name -> the null it addresses and the codes of the
# model assumptions it rests on. fisher_sel never yields a report: it
# raises, because its reference distribution is not computable.
TESTS = {
    "permutation": (Hypothesis.DUP, ("A1", "A2", "A3")),
    "wilcoxon": (Hypothesis.DUP, ("A1", "A2", "A3", "A4")),
    "welch_t": (Hypothesis.EUP, ("A1", "A2", "A3", "A5")),
    "pooled_t": (Hypothesis.EUP, ("A1", "A2", "A3", "A6")),
    "fisher_rand": (Hypothesis.RUs, ("B1", "B2")),
    "neyman_rand": (Hypothesis.RAs, ("B1", "B2")),
    "neyman_sel": (Hypothesis.RAP, ("C1", "C2")),
    "fisher_sel": (Hypothesis.RUP, ("C1", "C2")),
    "fisher_exact": (Hypothesis.RUs, ("B1", "B2")),
}


def _report(test, observed, statistic, p_value, kind, mc_stderr=None,
             degenerate=False) -> TestReport:
    hypothesis, assumptions = TESTS[test]
    return TestReport(test, hypothesis, statistic, p_value, kind, mc_stderr,
                      assumptions, observed.n1, observed.n2, degenerate)


def _two_sided_asymptotic(test, observed, statistic, cdf_at_abs) -> TestReport:
    p = 2.0 * (1.0 - cdf_at_abs)
    return _report(test, observed, statistic, min(1.0, max(0.0, p)), "asymptotic")


def _require_two_arms(observed: ObservedExperiment) -> None:
    if observed.n1 < 1 or observed.n2 < 1:
        raise InsufficientDataError("both treatment arms must be nonempty")


def add_one_pvalue(hits: int, budget: int) -> tuple:
    """Add-one Monte Carlo p-value (1 + hits) / (budget + 1), which is valid
    at any budget, and its standard error sqrt(p(1-p)/budget)."""
    p = (1 + hits) / (budget + 1)
    return p, math.sqrt(p * (1.0 - p) / budget)


def support_mask(design: AssignmentDesign, cap: int = ENUMERATION_CAP) -> tuple:
    """(arm-1 indicator mask (M, n) float64, probs (M,)) over the design's
    enumerated support: the prebuilt support resample_tails scores."""
    labels, probs = support_label_matrix(design, cap)
    return (labels == 1).astype(np.float64), probs


def _column_tails(mask, columns, probs=None) -> list:
    tails = []
    for coef, offset, observed in columns:
        stats = mask @ coef + offset
        thr = abs(observed) * (1.0 - REL_TOL)
        tol = REL_TOL * max(1.0, abs(observed))
        hits = (np.abs(stats) >= thr, stats >= observed - tol, stats <= observed + tol)
        if probs is None:
            tails.append([int(np.count_nonzero(h)) for h in hits])
        else:
            # a tail spanning the whole support can sum to 1 + O(eps)
            tails.append([min(float(probs[h].sum()), 1.0) for h in hits])
    return tails


def resample_tails(design, columns, *, support=None, budget=None, rng=None) -> list:
    """The resampling kernel: abs, upper and lower tails of k statistics.

    Each column is (coef, offset, observed); its statistic under an
    assignment with arm-1 indicator row m is m @ coef + offset. With
    support, a (mask, probs) pair from support_mask, the tails are
    probability masses of |stat| >= |observed|, stat >= observed and
    stat <= observed over it. Otherwise budget assignments are drawn from
    design on rng.generator(), in chunks of MC_CHUNK, and the tails are
    hit counts: every column is scored on the same batch, and the float
    mask is built once per chunk. Returns one [abs, upper, lower] per
    column.
    """
    if support is not None:
        mask, probs = support
        return _column_tails(mask, columns, probs)
    if budget < 1:
        raise DataValidationError("Monte Carlo budget must be positive")
    gen = rng.generator()
    totals = np.zeros((len(columns), 3), dtype=np.int64)
    for start in range(0, budget, MC_CHUNK):
        labels = sample_assignment_batch(design, min(MC_CHUNK, budget - start), gen)
        totals += _column_tails((labels == 1).astype(np.float64), columns)
    return totals.tolist()


# how engine errors name the resampling tests
_ENGINE_ERROR_NAMES = {
    "permutation": "permutation test",
    "wilcoxon": "rank-sum test",
    "fisher_rand": "randomization test",
}


@dataclass(frozen=True)
class ResamplingPlan:
    """A resampling test up to its tails: the design it resamples and its
    statistic as a kernel column (coef, offset, statistic).

    The rank sum reports min(1, 2 * smaller tail), the difference
    statistics their |stat| tail.
    """

    test: str
    design: AssignmentDesign
    observed: ObservedExperiment
    statistic: float
    coef: np.ndarray
    offset: float

    def report(self, tails, budget) -> TestReport:
        """The TestReport once the kernel has scored this plan's column:
        tails are probability masses when budget is None (exact), else
        hit counts over budget Monte Carlo draws."""
        p, upper, lower = tails
        stderr = None
        if budget is not None:
            (p, stderr), (upper, se_up), (lower, se_lo) = (
                add_one_pvalue(t, budget) for t in tails
            )
        if self.test == "wilcoxon":
            p = min(1.0, 2.0 * min(upper, lower))
            if stderr is not None:
                # stderr of the doubled smaller tail, before the cap at 1
                stderr = 2.0 * (se_up if upper <= lower else se_lo)
        return _report(
            self.test, self.observed, self.statistic, p,
            "exact" if budget is None else "monte_carlo", stderr,
            degenerate=bool(np.ptp(self.observed.responses) == 0.0),
        )


def run_resampling_plans(plans, engine: PValueEngine) -> list:
    """Reports of resampling tests that share one design, from one kernel
    call: one enumeration, or one set of draws from engine.rng."""
    design = plans[0].design
    if not isinstance(engine, (ExactEngine, MonteCarloEngine)):
        raise DataValidationError(
            f"{_ENGINE_ERROR_NAMES[plans[0].test]} supports Exact or MonteCarlo engines"
        )
    if any(plan.design != design for plan in plans):
        raise ValueError("plans scored together must share one design")
    columns = [(plan.coef, plan.offset, plan.statistic) for plan in plans]
    if isinstance(engine, ExactEngine):
        support, budget, rng = support_mask(design, engine.enumeration_cap), None, None
    else:
        support, budget, rng = None, engine.budget, engine.rng
    tails = resample_tails(design, columns, support=support, budget=budget, rng=rng)
    return [plan.report(t, budget) for plan, t in zip(plans, tails)]


def _difference_plan(test, observed, design, weights) -> ResamplingPlan:
    d_obs = d_statistic(observed.responses, observed.assignment, weights)
    coef, offset = d_affine_form(observed.responses, weights)
    return ResamplingPlan(test, design, observed, d_obs, coef, offset)


def permutation_plan(observed: ObservedExperiment) -> ResamplingPlan:
    """The permutation test's plan: the difference of arm means over all
    relabelings at fixed arm sizes."""
    _require_two_arms(observed)
    design = UniformCRD(observed.n, observed.n1)
    weights = resolve_weights(ArmSizeWeights(), observed.sample, observed.assignment)
    return _difference_plan("permutation", observed, design, weights)


def wilcoxon_plan(observed: ObservedExperiment) -> ResamplingPlan:
    """The rank-sum test's plan: the arm-1 midrank sum over relabelings."""
    _require_two_arms(observed)
    design = UniformCRD(observed.n, observed.n1)
    ranks = rank_midranks(observed.responses)
    w_obs = rank_sum_statistic(ranks, observed.assignment)
    return ResamplingPlan("wilcoxon", design, observed, w_obs, ranks, 0.0)


def fisher_randomization_plan(
    observed: ObservedExperiment, design: AssignmentDesign
) -> ResamplingPlan:
    """The Fisher randomization test's plan: the inclusion-weighted
    difference statistic over the design's support."""
    _require_two_arms(observed)
    check_both_arm_inclusion(design)
    weights = resolve_weights(
        AssignmentInclusionWeights(design), observed.sample, observed.assignment
    )
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


def _t_test(test, observed, se_of, df_of) -> TestReport:
    arm1 = observed.arm_responses(1)
    arm2 = observed.arm_responses(2)
    if len(arm1) < 2 or len(arm2) < 2:
        raise InsufficientDataError("both arms need >= 2 observations")
    v1 = sample_variance(arm1)
    v2 = sample_variance(arm2)
    se = se_of(v1, len(arm1), v2, len(arm2))
    if se == 0.0:
        raise DegenerateDataError("zero standard error: responses carry no variation")
    t = float(arm1.mean() - arm2.mean()) / se
    df = df_of(v1, len(arm1), v2, len(arm2))
    return _two_sided_asymptotic(test, observed, t, student_t_cdf(abs(t), df))


def welch_t_test(observed: ObservedExperiment) -> TestReport:
    """Unequal-variance t test of equal treatment means."""
    return _t_test("welch_t", observed, welch_se, welch_df)


def pooled_t_test(observed: ObservedExperiment) -> TestReport:
    """Equal-variance two-sample t test of equal treatment means."""
    return _t_test("pooled_t", observed, pooled_se,
                   lambda v1, n1, v2, n2: float(n1 + n2 - 2))


def fisher_randomization_test(
    observed: ObservedExperiment, design: AssignmentDesign, engine: PValueEngine
) -> TestReport:
    """Exact-conditional test of the sharp sample null.

    Under that null both potentials of every sampled unit equal its
    observed response, so the inclusion-weighted difference statistic has
    a fully known distribution over the design's support.
    """
    return run_resampling_plans([fisher_randomization_plan(observed, design)], engine)[0]


def _neyman_z(test, observed, weights, se) -> TestReport:
    """The Neyman tests' common step: z = D / se against the normal."""
    if se == 0.0:
        raise DegenerateDataError("zero standard error: responses carry no variation")
    z = d_statistic(observed.responses, observed.assignment, weights) / se
    return _two_sided_asymptotic(test, observed, z, normal_cdf(abs(z)))


def neyman_randomization_test(
    observed: ObservedExperiment, design: AssignmentDesign
) -> TestReport:
    """Normal-approximation test of the sample average null, using the
    variance-bound standard error."""
    _require_two_arms(observed)
    se = neyman_se(observed, design)
    weights = resolve_weights(
        AssignmentInclusionWeights(design), observed.sample, observed.assignment
    )
    return _neyman_z("neyman_rand", observed, weights, se)


def neyman_selection_test(
    observed: ObservedExperiment, design: SelectionDesign
) -> TestReport:
    """Normal-approximation test of the population average null.

    Only census-reducible designs are supported: when the sample is the
    whole population the joint inclusion weights collapse to arm sizes
    and the statistic coincides with the randomization-based one.
    """
    _require_two_arms(observed)
    census = reduces_to_census(design)
    if census is None:
        raise UnsupportedDesignError(
            "the selection-based variance estimator is only defined for "
            "designs that reduce to a census with uniform CRD assignment"
        )
    weights = resolve_weights(
        SelectionInclusionWeights(design), observed.sample, observed.assignment
    )
    se = neyman_se(observed, census.assignment_design())
    return _neyman_z("neyman_sel", observed, weights, se)


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
    k_lo = max(0, n1 - (n - m))
    k_hi = min(n1, m)
    weights = {
        k: math.comb(m, k) * math.comb(n - m, n1 - k) for k in range(k_lo, k_hi + 1)
    }
    total = math.comb(n, n1)
    w_obs = weights[k_obs]
    numer = sum(w for w in weights.values() if w <= w_obs)
    return _report("fisher_exact", observed, float(k_obs), numer / total, "exact",
                   degenerate=bool(np.ptp(r) == 0.0))
