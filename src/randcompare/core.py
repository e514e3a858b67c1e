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


def _float_vector(values, name: str) -> np.ndarray:
    """values as a float64 array, not copied where numpy need not, once it
    is one-dimensional and finite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DataValidationError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise DataValidationError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True)
class PotentialTable:
    """Full table of both potential responses for all N units.

    Only simulations and brute-force property checks ever hold a complete
    table; real data never determine one. It unpacks as y1, y2.
    """

    y1: np.ndarray
    y2: np.ndarray

    def __post_init__(self):
        for name in ("y1", "y2"):
            column = _float_vector(getattr(self, name), name).copy()
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if len(self.y1) != len(self.y2):
            raise DataValidationError("y1 and y2 must have equal length")
        if len(self.y1) == 0:
            raise DataValidationError("a potential table needs at least one unit")

    @property
    def n_units(self) -> int:
        return len(self.y1)

    def __iter__(self):
        return iter((self.y1, self.y2))


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
        # checked before the int8 cast, which reads 257 and 1.7 as 1
        arr = np.asarray(self.labels)
        if arr.ndim != 1 or len(arr) == 0:
            raise DataValidationError("assignment must be a nonempty 1-d label vector")
        if not np.all((arr == 1) | (arr == 2)):
            raise DataValidationError("treatment labels must be 1 or 2")
        arr = arr.astype(np.int8)
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
    The experiment's block of one checks it, after the responses' own
    checks, and its responses are that block's read-only row.
    """

    sample: SampleVector
    assignment: AssignmentVector
    responses: np.ndarray
    block: ObservedBlock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        responses = _float_vector(self.responses, "responses")
        block = ObservedBlock(sample=self.sample, labels=self.assignment.labels[None],
                              responses=responses[None])
        object.__setattr__(self, "responses", block.responses[0])
        object.__setattr__(self, "block", block)

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


class ObservedBlock:
    """R >= 1 experiments on one sample with equal arm sizes, which the
    tests score together, held as two (R, n) matrices: row r of labels
    (int8) and of responses (float64) is experiment r's assignment labels
    and responses. The matrices, taken by keyword, are the only way to
    make a block, and they are checked as a whole: labels 1 or 2, finite
    responses, shapes that agree with the sample and one arm-1 size in
    every row. A single experiment is the block of one that
    ObservedExperiment makes and keeps as its block."""

    def __init__(self, *, sample, labels, responses):
        labels = np.array(labels, dtype=np.int8)
        responses = np.array(responses, dtype=np.float64)
        if labels.ndim != 2 or labels.shape != responses.shape or labels.shape[1] != sample.n:
            raise DataValidationError(
                "sample, assignment and responses must have equal length"
            )
        if not len(labels):
            raise DataValidationError("a block needs at least one experiment")
        if not np.all((labels == 1) | (labels == 2)):
            raise DataValidationError("treatment labels must be 1 or 2")
        if not np.all(np.isfinite(responses)):
            raise DataValidationError("responses must contain only finite values")
        n1s = np.count_nonzero(labels == 1, axis=1)
        if np.any(n1s != n1s[0]):
            raise DataValidationError(
                "the experiments of a block must share one sample and its arm sizes"
            )
        labels.setflags(write=False)
        responses.setflags(write=False)
        self.sample, self.labels, self.responses, self.n1 = sample, labels, responses, int(n1s[0])

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return self.labels.shape[1]

    @property
    def n2(self) -> int:
        return self.n - self.n1

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
        # finite but huge responses overflow to inf or nan here, which the
        # tests refuse; numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
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


def _table_rows(n_units: int, sample: SampleVector) -> np.ndarray:
    """The table rows of the sampled units; BoundsError past the table."""
    idx = sample.indices
    if np.any(idx > n_units):
        bad = int(idx[np.argmax(idx > n_units)])
        raise BoundsError(f"unit identifier {bad} exceeds table size {n_units}")
    return idx - 1


def select_components(
    table: PotentialTable, sample: SampleVector, assignment: AssignmentVector
) -> np.ndarray:
    """Project the observed sub-vector (y[t_1.s_1], ..., y[t_n.s_n]).

    This is the observation map: given the full table, the sample and the
    assignment jointly pick exactly one potential per sampled unit. The
    table may also be the (2, N) array that generate_population draws.
    """
    if sample.n != assignment.n:
        raise DataValidationError("sample and assignment must have equal length")
    y1, y2 = table
    pos = _table_rows(len(y1), sample)
    return np.where(assignment.labels == 1, y1[pos], y2[pos])


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
    pos = _table_rows(table.n_units, sample)
    unit = table.y1[pos] - table.y2[pos]
    return RealizedEffects(
        unit_effects=unit,
        aggregate_sample=float(np.mean(table.y1[pos]) - np.mean(table.y2[pos])),
        aggregate_population=float(np.mean(table.y1) - np.mean(table.y2)),
    )
