"""Size and power estimation for the built-in benchmark scenario suites.

The data-generation model is a census: the sample is the whole
population with probability one and treatments follow a uniform
completely randomized design. Each scenario draws the first potential
column IID from a process law and builds the second column with an
effect transformation (or draws both columns jointly for the paired
binary laws).

Two conditioning rows are estimated per scenario. The "randomization"
row fixes one potential table and redraws the assignment every
replicate; the "process" row fixes the assignment and redraws the
potential table. Rejection rates are reported in percent with the
binomial standard error sqrt(r(100 - r) / replicates).

Each replicate runs the library's own tests, as the test command does,
through run_tests' block form: a row is split into near-equal blocks of
contiguous replicates, at least one per thread and at most MC_CHUNK
responses each, and each block is one run_block call. The closed-form
tests build a block from one set of arm reductions and hand back each
replicate's studentized statistic and reference law (ClosedFormPlan);
the blocks write them into two arrays of the row, and once the thread
pool joins, one closed_form_p_values call reads the p-values of the
whole row and every closed-form test: one t CDF call for the t tests
and one normal CDF call for the Neyman test. An array call costs about
what a few calls on one replicate do, and gives each replicate the
p-value such a call gives, bit for bit. The resampling tests score
each replicate under exact_small, when the support fits the
enumeration cap, on an ExactEngine, which counts a uniform CRD's exact
tails without enumerating it, and otherwise on a MonteCarloEngine per
replicate, whose draws stop once each of the replicate's decisions
p <= alpha is fixed (run_resampling_plans). The design is the data's
own uniform CRD, so fisher_rand's plan is permutation's: one column,
scored once, gives both p-values.
Binary scenarios read that p-value from an exact table and report no
rank sum. How a row is split moves no result.

Reproducibility contract: replicate r of the randomization row consumes
substreams (2, r) for data and (4, 0, r) for the per-replicate Monte
Carlo batch; the process row uses (3, r) and (4, 1, r); the fixed table
and fixed assignment come from substreams (0, 0) and (1, 0). Results are
therefore independent of thread count.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import (
    Hypothesis,
    ObservedBlock,
    ObservedExperiment,
    PotentialTable,
    SampleVector,
    select_components,
)
from .datasets import read_json, read_text
from .designs import ENUMERATION_CAP, RngStream, UniformCRD, sample_assignment
from .errors import (
    DataValidationError,
    DegenerateDataError,
    RandcompareError,
    UnknownScenarioError,
)
from .inference import (
    MC_CHUNK,
    ClosedFormPlan,
    ExactEngine,
    MonteCarloEngine,
    TestReport,
    check_mc_budget,
    closed_form_p_values,
    hypergeometric_counts,
    run_block,
)

# Everything below 100 belongs to the bulk mixture component, everything
# above to the rare one; any cut between the component supports works.
LARGE_OBSERVATION_THRESHOLD = 100.0

_MAX_CONDITION_ATTEMPTS = 200_000

DEFAULT_TEST_SUITE = (
    "permutation",
    "wilcoxon",
    "welch_t",
    "pooled_t",
    "fisher_rand",
    "neyman_rand",
)


# ---------------------------------------------------------------- laws


@dataclass(frozen=True)
class Normal:
    mean: float
    sd: float

    def __post_init__(self):
        if not (self.sd > 0.0):
            raise DataValidationError("normal law needs sd > 0")

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return gen.normal(self.mean, self.sd, count)


@dataclass(frozen=True)
class GammaLaw:
    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise DataValidationError("gamma law needs shape > 0 and scale > 0")

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return gen.gamma(self.shape, self.scale, count)


@dataclass(frozen=True)
class UniformMixture:
    """weight * U(lo1, hi1) + (1 - weight) * U(lo2, hi2)."""

    weight: float
    lo1: float
    hi1: float
    lo2: float
    hi2: float

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise DataValidationError("mixture weight must lie in [0, 1]")
        if not (self.lo1 < self.hi1 and self.lo2 < self.hi2):
            raise DataValidationError("mixture intervals must have lo < hi")

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        first = gen.random(count) < self.weight
        lo = np.where(first, self.lo1, self.lo2)
        hi = np.where(first, self.hi1, self.hi2)
        return gen.uniform(lo, hi)


@dataclass(frozen=True)
class Bernoulli:
    p: float

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise DataValidationError("bernoulli p must lie in (0, 1)")

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return (gen.random(count) < self.p).astype(np.float64)


@dataclass(frozen=True)
class CorrelatedBernoulliPair:
    """Joint 0/1 pair with given margins and correlation.

    The joint cell P(y1=1, y2=1) = p1 p2 + rho sqrt(p1 q1 p2 q2) must
    give a valid 2x2 probability table.
    """

    p1: float
    p2: float
    correlation: float

    def __post_init__(self):
        if not (0.0 < self.p1 < 1.0 and 0.0 < self.p2 < 1.0):
            raise DataValidationError("pair margins must lie in (0, 1)")
        if not (-1.0 <= self.correlation <= 1.0):
            raise DataValidationError("correlation must lie in [-1, 1]")
        p11, p10, p01, p00 = self.cells()
        if min(p11, p10, p01, p00) < 0.0:
            raise DataValidationError(
                "correlation incompatible with the margins: joint cell "
                f"probabilities ({p11:.6f}, {p10:.6f}, {p01:.6f}, {p00:.6f})"
            )

    def cells(self):
        q1 = 1.0 - self.p1
        q2 = 1.0 - self.p2
        p11 = self.p1 * self.p2 + self.correlation * math.sqrt(
            self.p1 * q1 * self.p2 * q2
        )
        p10 = self.p1 - p11
        p01 = self.p2 - p11
        p00 = 1.0 - p11 - p10 - p01
        return p11, p10, p01, p00

    def draw_pairs(self, gen: np.random.Generator, count: int) -> np.ndarray:
        p11, p10, p01, _ = self.cells()
        u = gen.random(count)
        y1 = u < p11 + p10
        y2 = (u < p11) | ((u >= p11 + p10) & (u < p11 + p10 + p01))
        return np.vstack([y1, y2]).astype(np.float64)


ProcessLaw = Union[Normal, GammaLaw, UniformMixture, Bernoulli, CorrelatedBernoulliPair]


def random_deviates(law: ProcessLaw, count: int, rng: RngStream) -> np.ndarray:
    """IID draws from a process law, from the start of rng; pair laws
    return shape (2, count)."""
    if count < 1:
        raise DataValidationError("count must be positive")
    gen = rng.generator()
    if isinstance(law, CorrelatedBernoulliPair):
        return law.draw_pairs(gen, count)
    return law.draw(gen, count)


# ------------------------------------------------------------- effects


@dataclass(frozen=True)
class Identity:
    def apply(self, y1: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return y1.copy()


@dataclass(frozen=True)
class Shift:
    delta: float

    def apply(self, y1: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return y1 + self.delta


@dataclass(frozen=True)
class ShiftWithCenteredNoise:
    """y2 = y1 + delta + (E - mean(E)); centering keeps ybar2 - ybar1 = delta."""

    delta: float
    sd: float

    def __post_init__(self):
        if not (self.sd > 0.0):
            raise DataValidationError("noise sd must be > 0")

    def apply(self, y1: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        noise = gen.normal(0.0, self.sd, len(y1))
        return y1 + self.delta + (noise - noise.mean())


@dataclass(frozen=True)
class Scale:
    factor: float

    def apply(self, y1: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return self.factor * y1


@dataclass(frozen=True)
class ScaleAboutMean:
    """y2 = factor * y1 - (factor - 1) * mean(y1), so ybar2 = ybar1 exactly."""

    factor: float

    def apply(self, y1: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return self.factor * y1 - (self.factor - 1.0) * float(y1.mean())


@dataclass(frozen=True)
class ScaleWithNoise:
    factor: float
    sd: float

    def __post_init__(self):
        if not (self.sd > 0.0):
            raise DataValidationError("noise sd must be > 0")

    def apply(self, y1: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return self.factor * y1 + gen.normal(0.0, self.sd, len(y1))


Effect = Union[Identity, Shift, ShiftWithCenteredNoise, Scale, ScaleAboutMean, ScaleWithNoise]


# ----------------------------------------------------------- scenarios


@dataclass(frozen=True)
class Scenario:
    """One benchmark data-generation setup under the census model.

    fixed_y, when present, overrides the generator for the
    randomization row. fixed_large_count conditions the one-off fixed
    draw of a mixture population on its count of rare-component values.
    adjust_equal_means redraws paired binary populations until the two
    potential columns have equal means; single-column laws refuse it.
    """

    name: str
    n1: int
    n2: int
    law: ProcessLaw
    effect: Optional[Effect]
    hypothesis_truth: tuple = ()
    fixed_y: Optional[PotentialTable] = None
    fixed_large_count: Optional[int] = None
    adjust_equal_means: bool = False
    description: str = ""

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise DataValidationError("scenario arms need n1, n2 >= 2")
        if self.n_population > np.iinfo(np.intp).max:  # past numpy's index range
            raise DataValidationError(f"n1 + n2 must be at most {np.iinfo(np.intp).max}")
        paired = isinstance(self.law, CorrelatedBernoulliPair)
        if paired and self.effect is not None:
            raise DataValidationError("paired laws draw both columns; effect must be None")
        if not paired and self.effect is None:
            raise DataValidationError("single-column laws need an effect")
        if not paired and self.adjust_equal_means:
            raise DataValidationError("adjust_equal_means applies only to paired laws")
        if self.fixed_y is not None and self.fixed_y.n_units != self.n_population:
            raise DataValidationError("fixed table size must match the population")
        if self.fixed_large_count is not None and not (
            0 <= self.fixed_large_count <= self.n_population
        ):
            raise DataValidationError("fixed_large_count must lie in 0..n1+n2")

    @property
    def n_population(self) -> int:
        return self.n1 + self.n2

    @property
    def binary(self) -> bool:
        """True when every potential value is 0 or 1: a 0/1 law left
        unchanged by its effect, and a 0/1 fixed table if there is one."""
        table = self.fixed_y
        return (
            isinstance(self.law, (Bernoulli, CorrelatedBernoulliPair))
            and self.effect in (None, Identity())
            and (table is None or bool(np.isin([table.y1, table.y2], (0.0, 1.0)).all()))
        )


def generate_population(scenario: Scenario, gen: np.random.Generator) -> PotentialTable:
    """One potential table drawn on gen under the scenario's law and effect."""
    n = scenario.n_population
    if isinstance(scenario.law, CorrelatedBernoulliPair):
        for _ in range(_MAX_CONDITION_ATTEMPTS):
            pairs = scenario.law.draw_pairs(gen, n)
            if not scenario.adjust_equal_means:
                break
            if int(pairs[0].sum()) == int(pairs[1].sum()):
                break
        else:
            raise DataValidationError(
                f"scenario {scenario.name!r}: gave up adjusting a paired binary "
                f"population to equal means after {_MAX_CONDITION_ATTEMPTS} draws"
            )
        return PotentialTable(y1=pairs[0], y2=pairs[1])
    y1 = scenario.law.draw(gen, n)
    y2 = scenario.effect.apply(y1, gen)
    return PotentialTable(y1=y1, y2=y2)


def draw_fixed_population(scenario: Scenario, rng: RngStream) -> PotentialTable:
    """The randomization row's fixed table: the scenario's explicit one,
    or a single conditioned draw from substream (0, 0)."""
    if scenario.fixed_y is not None:
        return scenario.fixed_y
    gen = rng.substream(0, 0).generator()
    for _ in range(_MAX_CONDITION_ATTEMPTS):
        table = generate_population(scenario, gen)
        if scenario.fixed_large_count is None:
            return table
        count = int(np.count_nonzero(table.y1 > LARGE_OBSERVATION_THRESHOLD))
        if count == scenario.fixed_large_count:
            return table
    raise DataValidationError(
        f"scenario {scenario.name!r}: gave up conditioning the fixed population "
        f"draw after {_MAX_CONDITION_ATTEMPTS} draws"
    )


def _table(y1, y2) -> PotentialTable:
    return PotentialTable(
        y1=np.asarray(y1, dtype=np.float64), y2=np.asarray(y2, dtype=np.float64)
    )


def _block_binary(n, both, only1, only2) -> PotentialTable:
    """Binary columns laid out in blocks: (1,1) x both, (1,0) x only1,
    (0,1) x only2, (0,0) x rest. Under a uniform CRD every unit ordering
    gives the same test-statistic distributions, so blocks lose nothing."""
    y1 = [1.0] * both + [1.0] * only1 + [0.0] * only2
    y2 = [1.0] * both + [0.0] * only1 + [1.0] * only2
    pad = n - len(y1)
    return _table(y1 + [0.0] * pad, y2 + [0.0] * pad)


_T3_SC6_VEC = (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0)
_T3_SC7_Y1 = (1, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0)
_T3_SC7_Y2 = (0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0)
_T4_SC6_Y1 = (0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0)
_T4_SC6_Y2 = (0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1)

_FIXED_BINARY = {
    (3, 6): (_T3_SC6_VEC, _T3_SC6_VEC),
    (3, 7): (_T3_SC7_Y1, _T3_SC7_Y2),
    (4, 6): (_T4_SC6_Y1, _T4_SC6_Y2),
}


def fixed_binary_vectors(table_id: int, scenario_id: int) -> PotentialTable:
    """The exact fixed 0/1 potential columns for the binary benchmark
    scenarios that publish them."""
    try:
        y1, y2 = _FIXED_BINARY[(table_id, scenario_id)]
    except KeyError:
        known = ", ".join(f"({t}, {s})" for t, s in sorted(_FIXED_BINARY))
        raise UnknownScenarioError(
            f"no fixed binary vectors for ({table_id}, {scenario_id}); "
            f"known pairs: {known}"
        ) from None
    return _table(y1, y2)


_NORMAL = Normal(10.0, 2.0)
_GAMMA = GammaLaw(1.0, 5.0)
_MIXTURE = UniformMixture(0.9, 0.0, 20.0, 200.0, 201.0)
_BERN = Bernoulli(0.28)

_UP = (Hypothesis.UP,)
_EUP_RAS = (Hypothesis.EUP, Hypothesis.RAs)
_DUP_RAS = (Hypothesis.DUP, Hypothesis.RAs)


def _sc(name, n, law, effect, truth, **kw) -> Scenario:
    half = n // 2
    return Scenario(
        name=name, n1=half, n2=half, law=law, effect=effect,
        hypothesis_truth=truth, **kw,
    )


SCENARIOS: dict = {}
for _s in (
    # size suite, 10 per arm
    _sc("t3.sc1", 20, _NORMAL, Identity(), _UP,
        description="size: normal responses, identical potentials"),
    _sc("t3.sc2", 20, _GAMMA, Identity(), _UP,
        description="size: skewed gamma responses, identical potentials"),
    _sc("t3.sc3", 20, _MIXTURE, Identity(), _UP, fixed_large_count=1,
        description="size: uniform mixture with rare large values"),
    _sc("t3.sc4", 20, _NORMAL, ShiftWithCenteredNoise(0.0, 3.0), _EUP_RAS,
        description="size: centered unit-level noise, equal means"),
    _sc("t3.sc5", 20, _GAMMA, ScaleAboutMean(2.0), _EUP_RAS,
        description="size: doubled spread about the mean, equal means"),
    _sc("t3.sc6", 20, _BERN, Identity(), _UP,
        fixed_y=fixed_binary_vectors(3, 6),
        description="size: binary responses, identical potentials"),
    Scenario(name="t3.sc7", n1=10, n2=10,
             law=CorrelatedBernoulliPair(0.28, 0.28, 0.37), effect=None,
             hypothesis_truth=_DUP_RAS, fixed_y=fixed_binary_vectors(3, 7),
             adjust_equal_means=True,
             description="size: correlated binary pair, equal margins"),
    # power suite, 10 per arm
    _sc("t4.sc1", 20, _NORMAL, Shift(2.0), (),
        description="power: constant shift 2"),
    _sc("t4.sc2", 20, _NORMAL, ShiftWithCenteredNoise(2.0, 3.0), (),
        description="power: shift 2 plus centered noise"),
    _sc("t4.sc3", 20, _NORMAL, Scale(1.2), (),
        description="power: scale 1.2"),
    _sc("t4.sc4", 20, _GAMMA, Scale(2.0), (),
        description="power: scale 2 on skewed responses"),
    _sc("t4.sc5", 20, _GAMMA, ScaleWithNoise(3.0, 5.0), (),
        description="power: scale 3 plus noise on skewed responses"),
    Scenario(name="t4.sc6", n1=10, n2=10,
             law=CorrelatedBernoulliPair(0.28, 0.71, 0.29), effect=None,
             fixed_y=fixed_binary_vectors(4, 6),
             description="power: correlated binary pair, unequal margins"),
    # size suite, 50 per arm
    _sc("t5.sc1", 100, _NORMAL, Identity(), _UP,
        description="size: normal responses, identical potentials"),
    _sc("t5.sc2", 100, _GAMMA, Identity(), _UP,
        description="size: skewed gamma responses, identical potentials"),
    _sc("t5.sc3", 100, _MIXTURE, Identity(), _UP, fixed_large_count=7,
        description="size: uniform mixture with rare large values"),
    _sc("t5.sc4", 100, _NORMAL, ShiftWithCenteredNoise(0.0, 3.0), _EUP_RAS,
        description="size: centered unit-level noise, equal means"),
    _sc("t5.sc5", 100, _GAMMA, ScaleAboutMean(2.0), _EUP_RAS,
        description="size: doubled spread about the mean, equal means"),
    # fixed tables below satisfy the documented margins/correlations:
    # 32/100 shared ones; means 33/100 each with corr 411/2211 = 0.186;
    # means 24/100 vs 45/100 with corr 820/sqrt(4514400) = 0.386
    _sc("t5.sc6", 100, _BERN, Identity(), _UP,
        fixed_y=_block_binary(100, 32, 0, 0),
        description="size: binary responses, identical potentials"),
    Scenario(name="t5.sc7", n1=50, n2=50,
             law=CorrelatedBernoulliPair(0.28, 0.28, 0.37), effect=None,
             hypothesis_truth=_DUP_RAS, fixed_y=_block_binary(100, 15, 18, 18),
             adjust_equal_means=True,
             description="size: correlated binary pair, equal margins"),
    # power suite, 50 per arm
    _sc("t6.sc1", 100, _NORMAL, Shift(1.0), (),
        description="power: constant shift 1"),
    _sc("t6.sc2", 100, _NORMAL, ShiftWithCenteredNoise(1.0, 3.0), (),
        description="power: shift 1 plus centered noise"),
    _sc("t6.sc3", 100, _NORMAL, Scale(1.1), (),
        description="power: scale 1.1"),
    _sc("t6.sc4", 100, _GAMMA, Scale(1.5), (),
        description="power: scale 1.5 on skewed responses"),
    _sc("t6.sc5", 100, _GAMMA, ScaleWithNoise(1.5, 5.0), (),
        description="power: scale 1.5 plus noise on skewed responses"),
    Scenario(name="t6.sc6", n1=50, n2=50,
             law=CorrelatedBernoulliPair(0.28, 0.50, 0.36), effect=None,
             fixed_y=_block_binary(100, 19, 5, 26),
             description="power: correlated binary pair, unequal margins"),
):
    SCENARIOS[_s.name] = _s


def known_scenarios() -> tuple:
    return tuple(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        ) from None


# Reference rejection rates (percent) for the built-in suites at 1000
# replicates, alpha 0.05; test order as DEFAULT_TEST_SUITE, None = NA.
REFERENCE_RATES: dict = {
    "t3.sc1": {"randomization": (4.6, 3.6, 4.7, 4.7, 4.6, 6.5),
               "process": (4.3, 3.4, 4.2, 4.3, 4.3, 6.9)},
    "t3.sc2": {"randomization": (5.0, 4.9, 4.1, 4.6, 5.0, 7.4),
               "process": (4.0, 4.1, 3.2, 3.5, 4.0, 7.7)},
    "t3.sc3": {"randomization": (4.6, 3.9, 0.0, 0.0, 4.6, 0.0),
               "process": (3.8, 3.5, 1.1, 1.8, 3.8, 11.2)},
    "t3.sc4": {"randomization": (1.5, 1.9, 1.7, 1.8, 1.5, 3.3),
               "process": (2.7, 2.0, 2.5, 2.6, 2.7, 4.2)},
    "t3.sc5": {"randomization": (4.8, 6.8, 4.3, 4.4, 4.8, 7.6),
               "process": (4.0, 7.4, 3.6, 3.7, 4.0, 7.4)},
    "t3.sc6": {"randomization": (0.0, None, 9.1, 9.1, 0.0, 9.1),
               "process": (2.1, None, 4.5, 4.5, 2.1, 11.3)},
    "t3.sc7": {"randomization": (0.4, None, 1.6, 1.6, 0.4, 4.6),
               "process": (0.2, None, 1.0, 1.0, 0.2, 3.7)},
    "t4.sc1": {"randomization": (52.7, 49.3, 51.3, 52.5, 52.7, 59.9),
               "process": (55.9, 51.6, 55.5, 56.1, 55.9, 62.7)},
    "t4.sc2": {"randomization": (26.2, 23.6, 24.1, 25.7, 26.2, 35.6),
               "process": (28.6, 23.8, 26.1, 27.2, 28.6, 36.6)},
    "t4.sc3": {"randomization": (34.7, 27.1, 34.8, 35.3, 34.7, 43.0),
               "process": (48.4, 43.0, 47.5, 48.4, 48.4, 57.2)},
    "t4.sc4": {"randomization": (19.2, 12.9, 16.1, 18.7, 19.2, 28.6),
               "process": (30.2, 23.7, 23.4, 26.0, 30.2, 38.5)},
    "t4.sc5": {"randomization": (45.7, 28.6, 40.2, 45.3, 45.7, 65.5),
               "process": (49.2, 38.1, 39.8, 44.4, 49.2, 63.5)},
    "t4.sc6": {"randomization": (18.9, None, 37.3, 37.3, 18.9, 37.4),
               "process": (29.6, None, 48.0, 48.0, 29.6, 50.3)},
    "t5.sc1": {"randomization": (4.0, 4.0, 4.0, 4.0, 4.0, 4.4),
               "process": (4.7, 4.8, 4.8, 4.8, 4.7, 5.5)},
    "t5.sc2": {"randomization": (4.9, 5.0, 4.8, 4.8, 4.9, 5.4),
               "process": (4.1, 3.9, 3.9, 3.9, 4.1, 4.8)},
    "t5.sc3": {"randomization": (4.2, 6.5, 4.3, 4.5, 4.2, 8.6),
               "process": (5.3, 5.4, 5.3, 5.3, 5.3, 6.6)},
    "t5.sc4": {"randomization": (2.5, 3.1, 2.4, 2.4, 2.5, 3.4),
               "process": (3.0, 4.6, 2.9, 3.2, 3.0, 3.9)},
    "t5.sc5": {"randomization": (4.6, 42.5, 4.4, 4.4, 4.6, 6.1),
               "process": (2.8, 35.1, 2.8, 2.8, 2.8, 5.0)},
    "t5.sc6": {"randomization": (2.2, None, 5.5, 5.5, 2.2, 5.5),
               "process": (3.5, None, 5.0, 5.0, 3.5, 5.9)},
    "t5.sc7": {"randomization": (0.5, None, 0.8, 0.8, 0.5, 1.0),
               "process": (1.6, None, 2.8, 2.8, 1.6, 3.5)},
    "t6.sc1": {"randomization": (80.9, 76.4, 80.4, 80.4, 80.9, 81.3),
               "process": (69.5, 67.7, 69.9, 69.9, 69.5, 70.4)},
    "t6.sc2": {"randomization": (36.3, 31.4, 36.2, 36.4, 36.3, 42.7),
               "process": (37.9, 36.3, 37.5, 38.0, 37.9, 42.8)},
    "t6.sc3": {"randomization": (70.5, 68.6, 71.0, 71.1, 70.5, 72.1),
               "process": (66.6, 63.9, 65.7, 65.7, 66.6, 67.4)},
    "t6.sc4": {"randomization": (46.6, 39.0, 46.2, 46.4, 46.6, 49.5),
               "process": (49.2, 40.6, 48.0, 48.2, 49.2, 51.8)},
    "t6.sc5": {"randomization": (41.0, 35.2, 40.4, 40.5, 41.0, 44.3),
               "process": (39.2, 30.7, 38.9, 39.0, 39.2, 44.2)},
    "t6.sc6": {"randomization": (48.8, None, 58.8, 58.8, 48.8, 60.3),
               "process": (51.1, None, 60.1, 60.1, 51.1, 60.3)},
}


# ------------------------------------------------------------ estimates


@dataclass(frozen=True)
class PowerEstimate:
    """Rejection rate of one test under one conditioning row, in percent."""

    test_name: str
    row: str
    rejection_rate: Optional[float]
    replicates: int
    mc_stderr: Optional[float]
    rejections: Optional[int]

    def __post_init__(self):
        if self.rejection_rate is not None and not (
            0.0 <= self.rejection_rate <= 100.0
        ):
            raise DataValidationError("rejection rate must lie in [0, 100]")


@lru_cache(maxsize=None)
def _binary_abs_tail(n: int, n1: int, m: int) -> tuple:
    """Exact two-sided p-values of the count statistic for every arm-1
    success count k, under uniform CRD with m total successes.

    The difference statistic is proportional to (k*n - m*n1), so the
    |statistic| ordering is an exact integer ordering and the tail mass
    is a ratio of binomial-coefficient sums; no roundoff enters.
    """
    weights = hypergeometric_counts(n, n1, m)
    total = math.comb(n, n1)
    tails = []
    for k0 in weights:
        c0 = abs(k0 * n - m * n1)
        numer = sum(w for k, w in weights.items() if abs(k * n - m * n1) >= c0)
        tails.append(numer / total)
    return (min(weights), tuple(tails))


def run_size_power(
    scenario,
    test_suite: tuple = DEFAULT_TEST_SUITE,
    replicates: int = 1000,
    alpha: float = 0.05,
    rng: Optional[RngStream] = None,
    rows: tuple = ("randomization", "process"),
    threads: int = 1,
    mc_budget: Optional[int] = None,
    exact_small: bool = False,
) -> list:
    """Monte Carlo rejection rates for one scenario, both conditioning rows.

    mc_budget defaults to 10000 resamples per replicate for populations
    of 20 units and 4000 for larger ones; like MonteCarloEngine, it
    refuses a budget below 1000. exact_small switches the resampling
    tests to exact tails when the support fits the cap. Each replicate
    is drawn on its own substreams and runs through run_tests' block
    form, run_block, in blocks of contiguous replicates: at least
    threads of them, each of at most max(1, MC_CHUNK // n) replicates.
    The closed-form tests' p-values are read after the thread pool
    joins: one t CDF and one normal CDF call per row, over every
    replicate's plans.
    Only p <= alpha is recorded, so a replicate's Monte Carlo draws stop
    once every one of its decisions is fixed: the budget is an upper
    bound on the draws, and every decision is the full budget's, bit for
    bit. The test command still reports full-budget p-values.
    rows and test_suite must each name at least one item, none twice.
    Returns one PowerEstimate per (row, test), rows outermost.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if replicates < 100:
        raise DataValidationError("need at least 100 replicates")
    if not (0.0 < alpha <= 1.0):
        raise DataValidationError("alpha must lie in (0, 1]")
    for name, given, known in (("row kind", rows, ("randomization", "process")),
                               ("test name", test_suite, DEFAULT_TEST_SUITE)):
        if not given:
            raise DataValidationError(f"no {name}s given")
        for i, item in enumerate(given):
            if item not in known:
                raise DataValidationError(f"unknown {name} {item!r}")
            if item in given[:i]:
                raise DataValidationError(f"duplicate {name} {item!r}")
    if threads < 1:
        raise DataValidationError("threads must be >= 1")
    if rng is None:
        raise DataValidationError("a seeded RngStream is required")
    n = scenario.n_population
    design = UniformCRD(n, scenario.n1)
    sample = SampleVector.first_n(n)
    budget = mc_budget if mc_budget is not None else (10_000 if n <= 20 else 4_000)
    check_mc_budget(budget)
    # binary responses: the difference tests read an exact table, and the
    # rank sum does not apply
    tabled = {"permutation", "fisher_rand", "wilcoxon"}.intersection(
        test_suite if scenario.binary else ())
    run = [test for test in test_suite if test not in tabled]
    exact = ExactEngine() if exact_small and not design.support_exceeds(ENUMERATION_CAP) else None
    # near-equal blocks of contiguous replicates, at least one per thread,
    # each of at most MC_CHUNK responses
    count = min(replicates, max(threads, -(-replicates // max(1, MC_CHUNK // n))))
    blocks = [range(b * replicates // count, (b + 1) * replicates // count)
              for b in range(count)]

    estimates: list = []
    for row in rows:
        row_key = 0 if row == "randomization" else 1
        if row_key == 0:
            fixed = draw_fixed_population(scenario, rng)
        else:
            fixed = sample_assignment(design, rng.substream(1, 0))

        def observe(r) -> ObservedExperiment:
            """Replicate r's experiment, drawn on its own substream."""
            if row_key == 0:
                table, assignment = fixed, sample_assignment(design, rng.substream(2, r))
            else:
                table = generate_population(scenario, rng.substream(3, r).generator())
                assignment = fixed
            return ObservedExperiment(sample=sample, assignment=assignment,
                                      responses=select_components(table, sample, assignment))

        # each closed-form plan's studentized statistic and t degrees of
        # freedom (nan for the normal law), by replicate and test: the
        # blocks fill them in, and the row reads their p-values in one pass
        statistics = np.full((replicates, len(test_suite)), np.nan)
        dfs = np.full((replicates, len(test_suite)), np.nan)

        def score(replicates_of_block) -> list:
            """Each replicate's decisions, one per test: True to reject,
            None where the test does not apply. A closed-form plan's
            decision is None until the row reads its p-value from the
            statistic and degrees of freedom it writes into the arrays."""
            block = ObservedBlock(tuple(observe(r) for r in replicates_of_block))
            p = {}
            if tabled:
                ms = np.rint(block.responses.sum(axis=1)).astype(int).tolist()
                ks = np.rint(block.arms[0].sum(axis=1)).astype(int).tolist()
                tails = [_binary_abs_tail(n, design.n1, m) for m in ms]
                p["permutation"] = p["fisher_rand"] = [
                    tail[k - k_lo] for (k_lo, tail), k in zip(tails, ks)]
                p["wilcoxon"] = [None] * len(block)
            engines = [exact or MonteCarloEngine(budget, rng.substream(4, row_key, r))
                       for r in replicates_of_block]
            p.update(zip(run, run_block(block, design, engines, run, alpha=alpha)))
            decisions = []
            for r, replicate in enumerate(replicates_of_block):
                row_decisions = []
                for j, test in enumerate(test_suite):
                    result = p[test][r]
                    if isinstance(result, ClosedFormPlan):
                        statistics[replicate, j] = result.statistic
                        if result.df is not None:
                            dfs[replicate, j] = result.df
                        result = None
                    elif isinstance(result, DegenerateDataError):
                        result = 1.0  # a draw with no variation cannot reject
                    elif isinstance(result, RandcompareError):
                        raise result
                    elif isinstance(result, TestReport):
                        result = result.p_value
                    row_decisions.append(None if result is None else result <= alpha)
                decisions.append(row_decisions)
            return decisions

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                scored = list(pool.map(score, blocks))
        else:
            scored = map(score, blocks)
        results = [decisions for block in scored for decisions in block]
        # the closed-form plans' p-values, every test's over the whole row
        planned = ~np.isnan(statistics)
        rejects = closed_form_p_values(statistics[planned], dfs[planned]) <= alpha
        for (r, j), reject in zip(np.argwhere(planned).tolist(), rejects.tolist()):
            results[r][j] = reject
        for test, decisions in zip(test_suite, zip(*results)):
            rate = stderr = rejections = None
            if None not in decisions:
                rejections = decisions.count(True)
                rate = 100.0 * rejections / replicates
                stderr = math.sqrt(rate * (100.0 - rate) / replicates)
            estimates.append(
                PowerEstimate(
                    test_name=test, row=row, rejection_rate=rate,
                    replicates=replicates, mc_stderr=stderr, rejections=rejections,
                )
            )
    return estimates


# ------------------------------------------------------- scenario files


# Each kind's parameters are its class's fields, in declaration order.
_LAW_KINDS = {
    "normal": Normal,
    "gamma": GammaLaw,
    "uniform_mixture": UniformMixture,
    "bernoulli": Bernoulli,
    "correlated_bernoulli_pair": CorrelatedBernoulliPair,
}

_EFFECT_KINDS = {
    "identity": Identity,
    "shift": Shift,
    "shift_centered_noise": ShiftWithCenteredNoise,
    "scale": Scale,
    "scale_about_mean": ScaleAboutMean,
    "scale_noise": ScaleWithNoise,
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _expect(ok, key, kind, value) -> None:
    """Unless ok, raise that key in the scenario file must be of kind."""
    if not ok:
        raise DataValidationError(f"{key} must be {kind}, got {value!r}")


def _build_from_spec(table, kinds, what):
    if not isinstance(table, dict) or "kind" not in table:
        raise DataValidationError(f"{what} must be a mapping with a 'kind' key")
    kind = table["kind"]
    if kind not in kinds:
        raise DataValidationError(
            f"unknown {what} kind {kind!r}; known: {', '.join(kinds)}"
        )
    cls = kinds[kind]
    params = [f.name for f in fields(cls)]
    extra = set(table) - {"kind"} - set(params)
    if extra:
        raise DataValidationError(f"unknown {what} parameters: {sorted(extra)}")
    missing = [p for p in params if p not in table]
    if missing:
        raise DataValidationError(f"{what} {kind!r} missing parameters: {missing}")
    for p in params:
        _expect(_is_number(table[p]), f"{what} parameter {p!r}", "a number", table[p])
    return cls(**{p: table[p] for p in params})


def _toml_subset_loads(text, path):
    """Flat-table TOML subset: [section] headers plus key = value lines.

    Fallback for interpreters without tomllib. Values use the JSON-compatible
    slice of TOML syntax (double-quoted strings, decimal numbers, booleans,
    one-line arrays), which covers every file this package defines.
    """
    doc: dict = {}
    current = doc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if not name or "[" in name or "]" in name:
                raise DataValidationError(
                    f"{path}: line {lineno}: unsupported table header"
                )
            current = doc.setdefault(name, {})
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise DataValidationError(
                f"{path}: line {lineno}: expected 'key = value'"
            )
        candidates = [value]
        if "#" in value:
            candidates.append(value.split("#", 1)[0].strip())
        for candidate in candidates:
            try:
                current[key] = json.loads(candidate)
                break
            except json.JSONDecodeError:
                continue
        else:
            raise DataValidationError(
                f"{path}: line {lineno}: unsupported value syntax {value!r}"
            )
    return doc


def _integer(value, key) -> int:
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    _expect(integral and not isinstance(value, bool), key, "an integer", value)
    return int(value)


def load_scenario_file(path) -> Scenario:
    """A scenario from a declarative JSON or TOML key-value file; every
    error names the file."""
    path = Path(path)
    if path.suffix.lower() != ".toml":
        doc = read_json(path)
    else:
        try:
            import tomllib
        except ModuleNotFoundError:
            doc = _toml_subset_loads(read_text(path), path)
        else:
            try:
                doc = tomllib.loads(read_text(path))
            except tomllib.TOMLDecodeError as exc:
                raise DataValidationError(f"{path}: invalid TOML: {exc}") from exc
    try:
        return _scenario_from_doc(doc)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def _scenario_from_doc(doc) -> Scenario:
    """The scenario a parsed scenario file describes."""
    if not isinstance(doc, dict):
        raise DataValidationError("top level must be a mapping")
    try:
        name = doc["name"]
        n1 = _integer(doc["n1"], "n1")
        n2 = _integer(doc["n2"], "n2")
        law = _build_from_spec(doc["law"], _LAW_KINDS, "law")
    except KeyError as exc:
        raise DataValidationError(f"missing required key {exc}") from None
    _expect(isinstance(name, str), "name", "a string", name)
    effect = None
    if "effect" in doc:
        effect = _build_from_spec(doc["effect"], _EFFECT_KINDS, "effect")
    tags = doc.get("hypothesis_truth", [])
    _expect(isinstance(tags, list), "hypothesis_truth", "a list", tags)
    try:
        truth = tuple(Hypothesis(tag) for tag in tags)
    except ValueError as exc:
        known = ", ".join(h.value for h in Hypothesis)
        raise DataValidationError(f"{exc}; known: {known}") from None
    fixed_y = None
    if "fixed_y" in doc:
        block = doc["fixed_y"]
        if not isinstance(block, dict) or "y1" not in block or "y2" not in block:
            raise DataValidationError("fixed_y needs 'y1' and 'y2' arrays")
        for key in ("y1", "y2"):
            _expect(isinstance(block[key], list) and all(map(_is_number, block[key])),
                    f"fixed_y {key}", "an array of numbers", block[key])
        fixed_y = _table(block["y1"], block["y2"])
    large_count = doc.get("fixed_large_count")
    if large_count is not None:
        large_count = _integer(large_count, "fixed_large_count")
    adjust = doc.get("adjust_equal_means", False)
    _expect(isinstance(adjust, bool), "adjust_equal_means", "true or false", adjust)
    return Scenario(
        name=name,
        n1=n1,
        n2=n2,
        law=law,
        effect=effect,
        hypothesis_truth=truth,
        fixed_y=fixed_y,
        fixed_large_count=large_count,
        adjust_equal_means=adjust,
        description=doc.get("description", ""),
    )
