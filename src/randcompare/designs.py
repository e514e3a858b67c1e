"""Assignment and selection designs: the known distributions behind
randomization- and selection-based inference.

An assignment design is the distribution of the treatment-label vector
T given the sample; a selection design is the joint distribution of
(sample, assignment). Each design class carries its own views: inclusion
probabilities, the enumerated support and seeded draws. The module
functions below are the entry points the tests go through.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import AssignmentVector, SampleVector
from .errors import (
    DataValidationError,
    DesignInvalidError,
    EnumerationTooLargeError,
)

ENUMERATION_CAP = 2_000_000

# Counter-based generator: substreams derived from (seed, spawn_key) are
# statistically independent and reproducible regardless of thread timing.
RNG_ALGORITHM = "philox4x64"


@dataclass(frozen=True)
class RngStream:
    """A named position in the seeded random-number stream tree.

    ``generator()`` always returns a generator at the start of this
    stream, so one stream should have one consumer. Parallel work takes
    ``substream(...)`` handles derived from (seed, key) instead of sharing
    a generator. The ``test`` command keeps to this for each design: its
    resampling tests on one design share one draw from the engine's
    stream. An explicit --design, which only fisher-rand resamples, is a
    second design and takes its own draw from the start of that stream.
    """

    seed: int
    spawn_key: tuple = ()

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise DataValidationError("seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "spawn_key", tuple(int(k) for k in self.spawn_key))

    @property
    def algorithm(self) -> str:
        return RNG_ALGORITHM

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, *key: int) -> "RngStream":
        return RngStream(self.seed, self.spawn_key + tuple(key))


def binomial_coefficient(n: int, k: int) -> int:
    """Exact C(n, k); refuses values that do not fit in 128 bits."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial coefficient undefined for n={n}, k={k}")
    value = math.comb(n, k)
    if value.bit_length() > 128:
        raise EnumerationTooLargeError(
            f"C({n}, {k}) exceeds 128-bit representation", size=None, cap=None
        )
    return value


class _EqualByContent:
    """Equality and hashing by the content ``_key()`` returns, for designs
    that hold arrays."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class AssignmentDesign:
    """Base class for assignment designs on n positions.

    A design provides ``support_size``; ``inclusion_table()``, the (2, n)
    table of P(position j gets treatment t); ``support_labels()``, the
    (M, n) int8 support labels and their (M,) probabilities, with no cap
    check; ``sample_batch(size, gen)``, a (size, n) label matrix of
    independent draws; ``contains(labels)``; and ``outside_support``, the
    error message for an observed assignment it cannot produce.
    """

    n: int


@dataclass(frozen=True)
class UniformCRD(AssignmentDesign):
    """Completely randomized design: uniform over all rearrangements of
    n1 ones and n2 twos."""

    n: int
    n1: int

    outside_support = "observed arm sizes are impossible under the stated design"

    def __post_init__(self):
        if not (1 <= self.n1 <= self.n - 1):
            raise DesignInvalidError(
                "UniformCRD needs 1 <= n1 <= n-1 so both arms have positive "
                "inclusion probability"
            )

    @property
    def n2(self) -> int:
        return self.n - self.n1

    @property
    def support_size(self) -> int:
        return binomial_coefficient(self.n, self.n1)

    def _template(self) -> np.ndarray:
        return np.concatenate([np.ones(self.n1, np.int8), np.full(self.n2, 2, np.int8)])

    def inclusion_table(self) -> np.ndarray:
        return np.repeat([[self.n1 / self.n], [self.n2 / self.n]], self.n, axis=1)

    def support_labels(self) -> tuple:
        """Every placement of the ones, in itertools.combinations order."""
        size = self.support_size
        ones = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(self.n), self.n1)),
            dtype=np.intp,
            count=size * self.n1,
        ).reshape(size, self.n1)
        labels = np.full((size, self.n), 2, dtype=np.int8)
        np.put_along_axis(labels, ones, 1, axis=1)
        return labels, np.full(size, 1.0 / size)

    def sample_batch(self, size: int, gen: np.random.Generator) -> np.ndarray:
        """Row-wise Fisher-Yates shuffles of the sorted labels."""
        return gen.permuted(np.tile(self._template(), (size, 1)), axis=1)

    def contains(self, labels) -> bool:
        return np.array_equal(np.sort(labels), self._template())


@dataclass(frozen=True, eq=False)
class Explicit(_EqualByContent, AssignmentDesign):
    """Assignment design given by its full support and probabilities."""

    support: tuple
    probs: np.ndarray

    outside_support = "observed assignment is outside the design support"

    def __post_init__(self):
        support = tuple(
            v if isinstance(v, AssignmentVector) else AssignmentVector(v)
            for v in self.support
        )
        if not support:
            raise DesignInvalidError("explicit design needs a nonempty support")
        n = support[0].n
        if any(v.n != n for v in support):
            raise DesignInvalidError("support vectors must all have equal length")
        labels = np.stack([v.labels for v in support])
        if len(np.unique(labels, axis=0)) != len(support):
            raise DesignInvalidError("support vectors must be distinct")
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (len(support),):
            raise DesignInvalidError("probs must align with the support")
        if np.any(probs < 0):
            raise DesignInvalidError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise DesignInvalidError("probabilities must sum to 1 within 1e-12")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_labels", labels)

    def _key(self) -> tuple:
        return self._labels.shape, self._labels.tobytes(), self.probs.tobytes()

    @property
    def n(self) -> int:
        return self.support[0].n

    @property
    def support_size(self) -> int:
        return len(self.support)

    def inclusion_table(self) -> np.ndarray:
        table = np.empty((2, self.n))
        table[0, :] = self.probs @ (self._labels == 1)
        table[1, :] = self.probs @ (self._labels == 2)
        return table

    def support_labels(self) -> tuple:
        return self._labels, self.probs

    def sample_batch(self, size: int, gen: np.random.Generator) -> np.ndarray:
        """Categorical draws of support rows."""
        return self._labels[gen.choice(len(self.support), size=size, p=self.probs)]

    def contains(self, labels) -> bool:
        if len(labels) != self.n:
            return False
        return bool(np.any(np.all(self._labels == labels, axis=1)))


def _load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataValidationError(f"{path}: invalid JSON: {exc}") from exc


def explicit_from_json(doc) -> Explicit:
    """Build an Explicit design from {"support": [[1,2,...],...], "probs": [...]}.

    Accepts a parsed document, a JSON string, or a path to a JSON file.
    """
    if isinstance(doc, os.PathLike):
        doc = _load_json_file(doc)
    elif isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError:
            doc = _load_json_file(doc)
    if not isinstance(doc, dict) or "support" not in doc or "probs" not in doc:
        raise DataValidationError(
            'explicit design document must have "support" and "probs" keys'
        )
    support = tuple(AssignmentVector(np.asarray(v)) for v in doc["support"])
    return Explicit(support=support, probs=np.asarray(doc["probs"], float))


def first_order_inclusion(design: AssignmentDesign, t: int, j: int) -> float:
    """P(position j receives treatment t) under the design; j is 1-based."""
    if t not in (1, 2):
        raise DataValidationError("treatment label must be 1 or 2")
    if not (1 <= j <= design.n):
        raise DataValidationError(f"position {j} outside 1..{design.n}")
    pi = float(design.inclusion_table()[t - 1, j - 1])
    if pi <= 0.0:
        raise DesignInvalidError(
            f"zero inclusion probability for treatment {t} at position {j}"
        )
    return pi


def inclusion_table(design: AssignmentDesign) -> np.ndarray:
    """(2, n) table of first-order inclusion probabilities.

    Unlike first_order_inclusion this does not raise on zeros; callers
    that need strict positivity check it themselves.
    """
    return design.inclusion_table()


def check_both_arm_inclusion(design: AssignmentDesign) -> None:
    """Raise unless every position can receive either treatment."""
    table = inclusion_table(design)
    if np.any(table <= 0.0):
        t, j = np.argwhere(table <= 0.0)[0]
        raise DesignInvalidError(
            f"design gives treatment {int(t) + 1} zero inclusion probability "
            f"at position {int(j) + 1}; randomization tests need every unit "
            "to be assignable to both arms"
        )


def support_label_matrix(design: AssignmentDesign, cap: int = ENUMERATION_CAP):
    """(labels (M, n) int8, probs (M,)) for vectorized exact engines."""
    size = design.support_size
    if size > cap:
        raise EnumerationTooLargeError(
            f"support size {size} exceeds enumeration cap {cap}",
            size=size,
            cap=cap,
        )
    return design.support_labels()


def enumerate_support(design: AssignmentDesign, cap: int = ENUMERATION_CAP):
    """Yield every (AssignmentVector, probability) support point once."""
    labels, probs = support_label_matrix(design, cap)
    for row, prob in zip(labels, probs):
        yield AssignmentVector(row), float(prob)


def sample_assignment(design: AssignmentDesign, rng: RngStream) -> AssignmentVector:
    """One seeded draw from the design: the first row of a one-row batch
    drawn from the start of rng."""
    return AssignmentVector(sample_assignment_batch(design, 1, rng.generator())[0])


def sample_assignment_batch(
    design: AssignmentDesign, size: int, gen: np.random.Generator
) -> np.ndarray:
    """(size, n) int8 label matrix of independent draws."""
    return design.sample_batch(size, gen)


class SelectionDesign:
    """Base class for joint (sample, assignment) designs on a population
    of n_population units.

    A design provides ``unit_inclusion_table()``, the (2, N) table of
    P(unit u is sampled and gets treatment t); ``weight_table(sample)``,
    the (2, n) selection weights of the sampled units; and ``census()``,
    its CensusCRD equivalent or None.
    """

    n_population: int


@dataclass(frozen=True)
class CensusCRD(SelectionDesign):
    """The whole population is sampled with probability one and then
    assigned by a uniform CRD; selection inference reduces to
    randomization inference."""

    n_population: int
    n1: int

    def __post_init__(self):
        if not (1 <= self.n1 <= self.n_population - 1):
            raise DesignInvalidError("CensusCRD needs 1 <= n1 <= N-1")

    @property
    def n2(self) -> int:
        return self.n_population - self.n1

    def assignment_design(self) -> UniformCRD:
        return UniformCRD(n=self.n_population, n1=self.n1)

    def unit_inclusion_table(self) -> np.ndarray:
        return self.assignment_design().inclusion_table()

    def weight_table(self, sample: SampleVector) -> np.ndarray:
        """The exact arm sizes n1 and n2; the sample must be the whole
        population."""
        everyone = np.arange(1, self.n_population + 1)
        if not np.array_equal(np.sort(sample.indices), everyone):
            raise DesignInvalidError(
                "census design requires the sample to be the whole population"
            )
        return np.repeat([[float(self.n1)], [float(self.n2)]], sample.n, axis=1)

    def census(self) -> "CensusCRD":
        return self


@dataclass(frozen=True, eq=False)
class ExplicitJoint(_EqualByContent, SelectionDesign):
    """Joint design given by its support of (sample, assignment) pairs."""

    n_population: int
    support: tuple
    probs: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        if not support:
            raise DesignInvalidError("explicit joint design needs a nonempty support")
        for s, t in support:
            if not isinstance(s, SampleVector) or not isinstance(t, AssignmentVector):
                raise DesignInvalidError(
                    "support points must be (SampleVector, AssignmentVector) pairs"
                )
            if s.n != t.n:
                raise DesignInvalidError("sample and assignment lengths must match")
            if np.any(s.indices > self.n_population):
                raise DesignInvalidError("sample indices exceed the population size")
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (len(support),):
            raise DesignInvalidError("probs must align with the support")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-12:
            raise DesignInvalidError("probabilities must be nonnegative and sum to 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    def _key(self) -> tuple:
        pairs = tuple((s.indices.tobytes(), t.labels.tobytes()) for s, t in self.support)
        return self.n_population, pairs, self.probs.tobytes()

    def unit_inclusion_table(self) -> np.ndarray:
        """Summed in support order, one vectorized step per support point."""
        pi = np.zeros((2, self.n_population))
        for (s, t), prob in zip(self.support, self.probs):
            pi[t.labels - 1, s.indices - 1] += prob
        return pi

    def weight_table(self, sample: SampleVector) -> np.ndarray:
        """N times the joint inclusion probabilities of the sampled units."""
        if np.any(sample.indices > self.n_population):
            raise DesignInvalidError("sample indices exceed the population size")
        return self.n_population * self.unit_inclusion_table()[:, sample.indices - 1]

    def census(self) -> CensusCRD | None:
        """The CensusCRD equivalent when every support sample is the full
        population and the assignment marginal is uniform over all
        rearrangements with a common arm-1 size."""
        n = self.n_population
        full = set(range(1, n + 1))
        n1 = None
        assignment_probs: dict = {}
        for (s, t), prob in zip(self.support, self.probs):
            if s.n != n or set(int(i) for i in s.indices) != full:
                return None
            # Re-express labels in unit order so permuted samples compare equal.
            by_unit = np.empty(n, dtype=np.int8)
            by_unit[s.indices - 1] = t.labels
            if n1 is None:
                n1 = int(np.sum(by_unit == 1))
            elif int(np.sum(by_unit == 1)) != n1:
                return None
            key = by_unit.tobytes()
            assignment_probs[key] = assignment_probs.get(key, 0.0) + float(prob)
        if n1 is None or not (1 <= n1 <= n - 1):
            return None
        expected = binomial_coefficient(n, n1)
        if len(assignment_probs) != expected:
            return None
        uniform = 1.0 / expected
        if any(abs(p - uniform) > 1e-9 for p in assignment_probs.values()):
            return None
        return CensusCRD(n_population=n, n1=n1)


def joint_first_order_inclusion(design: SelectionDesign, t: int, unit: int) -> float:
    """P(unit enters the sample and receives treatment t)."""
    if t not in (1, 2):
        raise DataValidationError("treatment label must be 1 or 2")
    if not (1 <= unit <= design.n_population):
        raise DataValidationError(f"unit {unit} outside 1..{design.n_population}")
    pi = float(design.unit_inclusion_table()[t - 1, unit - 1])
    if pi <= 0.0:
        raise DesignInvalidError(
            f"zero joint inclusion probability for treatment {t}, unit {unit}"
        )
    return pi


def reduces_to_census(design: SelectionDesign) -> CensusCRD | None:
    """CensusCRD equivalent of the design, or None if there is none."""
    return design.census() if isinstance(design, SelectionDesign) else None
