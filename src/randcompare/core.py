"""Potential-outcomes data model.

A comparative experiment on a population of N units carries two potential
response vectors: y1[i] is what unit i would show under treatment 1, y2[i]
under treatment 2. An experiment observes a sample of units, an assignment
of one treatment label per sampled unit, and consequently exactly one of
each sampled unit's two potentials. Everything downstream (statistics,
tests, simulations) consumes these types.

Unit identifiers are 1-based integers; the CLI maps arbitrary string ids to
integers at ingest. Responses are 64-bit floats; binary responses are
encoded 0.0/1.0 so one numeric path serves all tests.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BoundsError, DataValidationError


def _frozen_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DataValidationError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise DataValidationError(f"{name} must contain only finite values")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PotentialTable:
    """Full table of both potential responses for all N units.

    Only simulations and brute-force property checks ever hold a complete
    table; real data never determine one.
    """

    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y1", _frozen_float_array(self.y1, "y1"))
        object.__setattr__(self, "y2", _frozen_float_array(self.y2, "y2"))
        if len(self.y1) != len(self.y2):
            raise DataValidationError("y1 and y2 must have equal length")
        if len(self.y1) == 0:
            raise DataValidationError("a potential table needs at least one unit")

    @property
    def n_units(self) -> int:
        return len(self.y1)


@dataclass(frozen=True)
class SampleVector:
    """Ordered, pairwise-distinct 1-based unit identifiers s_1..s_n."""

    indices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.indices, dtype=np.int64)
        if arr.ndim != 1 or len(arr) == 0:
            raise DataValidationError("sample must be a nonempty 1-d index vector")
        if np.any(arr < 1):
            raise DataValidationError("unit identifiers are 1-based positive integers")
        if len(np.unique(arr)) != len(arr):
            raise DataValidationError("sample indices must be pairwise distinct")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "indices", arr)

    @property
    def n(self) -> int:
        return len(self.indices)

    @classmethod
    def first_n(cls, n: int) -> "SampleVector":
        """The census-style sample (1, 2, ..., n)."""
        return cls(np.arange(1, n + 1))


@dataclass(frozen=True)
class AssignmentVector:
    """Treatment labels t_1..t_n, each 1 or 2, aligned with a sample.

    A one-armed assignment is representable; tests that need both arms
    check arm sizes themselves.
    """

    labels: np.ndarray
    # the arm-1 size, counted once, when the vector is made
    n1: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.labels, dtype=np.int8)
        if arr.ndim != 1 or len(arr) == 0:
            raise DataValidationError("assignment must be a nonempty 1-d label vector")
        if not np.all((arr == 1) | (arr == 2)):
            raise DataValidationError("treatment labels must be 1 or 2")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)
        object.__setattr__(self, "n1", int(np.count_nonzero(arr == 1)))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def n2(self) -> int:
        return self.n - self.n1

    @classmethod
    def two_arms(cls, n1: int, n2: int) -> "AssignmentVector":
        return cls(np.concatenate([np.ones(n1, np.int8), np.full(n2, 2, np.int8)]))


@dataclass(frozen=True)
class ObservedExperiment:
    """The inference input for real data: sample, assignment, y[t.s].

    responses[j] is the observed potential of unit sample.indices[j] under
    treatment assignment.labels[j]; the other potential stays unobserved.
    """

    sample: SampleVector
    assignment: AssignmentVector
    responses: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "responses", _frozen_float_array(self.responses, "responses")
        )
        if not (self.sample.n == self.assignment.n == len(self.responses)):
            raise DataValidationError(
                "sample, assignment and responses must have equal length"
            )

    @property
    def n(self) -> int:
        return len(self.responses)

    @property
    def n1(self) -> int:
        return self.assignment.n1

    @property
    def n2(self) -> int:
        return self.assignment.n2

    def arm_responses(self, t: int) -> np.ndarray:
        if t not in (1, 2):
            raise DataValidationError("treatment label must be 1 or 2")
        return self.responses[self.assignment.labels == t]

    @classmethod
    def from_arms(cls, arm1, arm2) -> "ObservedExperiment":
        """Build an experiment from two response vectors, synthesizing ids.

        Units 1..n1 get treatment 1, units n1+1..n get treatment 2. Handy
        for data recorded as two columns rather than long form.
        """
        arm1 = np.asarray(arm1, dtype=np.float64)
        arm2 = np.asarray(arm2, dtype=np.float64)
        n1, n2 = len(arm1), len(arm2)
        return cls(
            sample=SampleVector.first_n(n1 + n2),
            assignment=AssignmentVector.two_arms(n1, n2),
            responses=np.concatenate([arm1, arm2]),
        )


@dataclass(frozen=True, eq=False)
class ObservedBlock:
    """R >= 1 experiments on one sample with equal arm sizes, which the
    tests score together: row r of the (R, n) matrices labels and
    responses is experiments[r]'s. A single experiment is a block of one."""

    experiments: tuple
    labels: np.ndarray = field(init=False, repr=False, compare=False)
    responses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        experiments = tuple(self.experiments)
        if not experiments:
            raise DataValidationError("a block needs at least one experiment")
        first = experiments[0]
        for e in experiments[1:]:
            if e.n1 != first.n1 or not (e.sample is first.sample or np.array_equal(
                    e.sample.indices, first.sample.indices)):
                raise DataValidationError(
                    "the experiments of a block must share one sample and its arm sizes"
                )
        object.__setattr__(self, "experiments", experiments)
        object.__setattr__(self, "labels", np.stack([e.assignment.labels for e in experiments]))
        object.__setattr__(self, "responses", np.stack([e.responses for e in experiments]))

    def __len__(self) -> int:
        return len(self.experiments)

    @property
    def sample(self) -> SampleVector:
        return self.experiments[0].sample

    @property
    def n(self) -> int:
        return self.experiments[0].n

    @property
    def n1(self) -> int:
        return self.experiments[0].n1

    @property
    def n2(self) -> int:
        return self.experiments[0].n2

    @cached_property
    def arms(self) -> tuple:
        """The arm-1 and arm-2 responses, (R, n1) and (R, n2) matrices
        whose rows are each experiment's arm_responses(1) and (2)."""
        mask = self.labels == 1
        return (self.responses[mask].reshape(len(self), self.n1),
                self.responses[~mask].reshape(len(self), self.n2))

    @cached_property
    def arm_moments(self) -> tuple:
        """((means, ssd) of arm 1, (means, ssd) of arm 2): each experiment's
        arm mean and the sum of squared deviations from it, (R,) arrays.
        Each row is reduced as ndarray.mean and np.var reduce one arm, bit
        for bit: np.var(arm, ddof=d) is ssd / (len(arm) - d)."""
        moments = []
        for arm in self.arms:
            means = arm.sum(axis=1) / arm.shape[1]
            deviations = arm - means[:, None]
            moments.append((means, (deviations * deviations).sum(axis=1)))
        return tuple(moments)

    @cached_property
    def constant(self) -> list:
        """Whether each experiment's responses are all equal."""
        return (self.responses == self.responses[:, :1]).all(axis=1).tolist()


class Hypothesis(enum.Enum):
    """The seven no-treatment-effect null hypotheses.

    Process-level nulls constrain the generating distributions; realized
    nulls constrain the drawn potential values, for the sample (suffix s)
    or the whole population (suffix P).
    """

    UP = "UP"
    DUP = "DUP"
    EUP = "EUP"
    RUP = "RUP"
    RAP = "RAP"
    RUs = "RUs"
    RAs = "RAs"

    @property
    def description(self) -> str:
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    Hypothesis.UP: "unit process null: each unit's two potential responses are identically distributed",
    Hypothesis.DUP: "distributional process null: the two treatment response distributions coincide",
    Hypothesis.EUP: "expectation process null: the two treatment response means are equal",
    Hypothesis.RUP: "realized unit population null (sharp): every population unit's two potential values are equal",
    Hypothesis.RUs: "realized unit sample null (sharp): every sampled unit's two potential values are equal",
    Hypothesis.RAP: "realized average population null: population means of the two potential vectors are equal",
    Hypothesis.RAs: "realized average sample null: sample means of the two potential vectors are equal",
}

# Direct implications of the nesting lattice; hard-coded rather than
# inferred. Note RAP and RAs do not imply each other: equal population
# means say nothing about a particular sample's means, and vice versa.
_DIRECT_IMPLICATIONS = {
    Hypothesis.UP: (Hypothesis.DUP, Hypothesis.RUP),
    Hypothesis.DUP: (Hypothesis.EUP,),
    Hypothesis.RUP: (Hypothesis.RAP, Hypothesis.RUs),
    Hypothesis.RUs: (Hypothesis.RAs,),
    Hypothesis.EUP: (),
    Hypothesis.RAP: (),
    Hypothesis.RAs: (),
}


def hypothesis_implies(a: Hypothesis, b: Hypothesis) -> bool:
    """True iff null a logically entails null b (reflexive, transitive)."""
    return a is b or any(hypothesis_implies(c, b) for c in _DIRECT_IMPLICATIONS[a])


def _table_rows(table: PotentialTable, sample: SampleVector) -> np.ndarray:
    """The table rows of the sampled units; BoundsError past the table."""
    idx = sample.indices
    if np.any(idx > table.n_units):
        bad = int(idx[np.argmax(idx > table.n_units)])
        raise BoundsError(f"unit identifier {bad} exceeds table size {table.n_units}")
    return idx - 1


def select_components(
    table: PotentialTable, sample: SampleVector, assignment: AssignmentVector
) -> np.ndarray:
    """Project the observed sub-vector (y[t_1.s_1], ..., y[t_n.s_n]).

    This is the observation map: given the full table, the sample and the
    assignment jointly pick exactly one potential per sampled unit.
    """
    if sample.n != assignment.n:
        raise DataValidationError("sample and assignment must have equal length")
    pos = _table_rows(table, sample)
    return np.where(assignment.labels == 1, table.y1[pos], table.y2[pos])


@dataclass(frozen=True)
class RealizedEffects:
    unit_effects: np.ndarray
    aggregate_sample: float
    aggregate_population: float


def realized_effects(table: PotentialTable, sample: SampleVector) -> RealizedEffects:
    """Unit-level and average realized treatment effects.

    unit_effects[j] = y1[s_j] - y2[s_j]; the aggregates are the sample and
    population differences of potential means. Computable only from a full
    table, hence only in simulations.
    """
    pos = _table_rows(table, sample)
    unit = table.y1[pos] - table.y2[pos]
    return RealizedEffects(
        unit_effects=unit,
        aggregate_sample=float(np.mean(table.y1[pos]) - np.mean(table.y2[pos])),
        aggregate_population=float(np.mean(table.y1) - np.mean(table.y2)),
    )
