"""Assignment and selection designs: the known distributions behind
randomization- and selection-based inference.

An assignment design is the distribution of the treatment-label vector
T given the sample; a selection design is the joint distribution of
(sample, assignment). Each design class carries its own views: inclusion
probabilities, weight tables, the enumerated support and seeded draws.
"""
from __future__ import annotations

import codecs
import itertools
import json
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import AssignmentVector, SampleVector
from .datasets import read_json
from .errors import (
    DataValidationError,
    DesignInvalidError,
    EnumerationTooLargeError,
    InsufficientDataError,
    UnsupportedDesignError,
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


def _support_probs(probs, size: int) -> np.ndarray:
    """A frozen copy of the probabilities of a support of size points,
    once they align with it, are nonnegative and sum to 1."""
    probs = np.array(probs, dtype=np.float64)
    if probs.shape != (size,):
        raise DesignInvalidError("probs must align with the support")
    if not np.all(probs >= 0):  # a nan fails this, where it passes probs < 0
        raise DesignInvalidError("probabilities must be nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-12:
        raise DesignInvalidError("probabilities must sum to 1 within 1e-12")
    probs.setflags(write=False)
    return probs


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
    check; ``sample_batch(size, gen)``, the (size, n) float64 arm-1
    indicator rows of independent draws, the matrix the resampling kernel
    multiplies; ``contains(labels)``; and ``outside_support``, the error
    message for an observed assignment it cannot produce. Its exact tails
    scan the enumerated support unless it counts them otherwise.
    """

    n: int

    # exact_tails gives probability masses, so their denominator is 1
    tail_denominator = 1

    def support_exceeds(self, limit: int) -> bool:
        """Whether the support has more than limit points."""
        return self.support_size > limit

    def contains(self, labels) -> bool:
        """Whether the design can produce the label vector labels. Labels
        other than 1 and 2, such as a sampled arm-1 indicator row, are
        refused rather than read as outside the support."""
        labels = np.asarray(labels)
        if not np.all((labels == 1) | (labels == 2)):
            raise DataValidationError("treatment labels must be 1 or 2")
        return self._contains(labels)

    def tie_bounds(self, coef, offset, observed) -> tuple:
        """(thr, upper, lower) of a column: stat = m @ coef + offset is in
        the abs tail when |stat| >= thr, the upper when stat >= upper, the
        lower when stat <= lower. Each is observed widened by _tie_bounds,
        so thr <= 0 when observed is 0 but for rounding. Here stat may add
        all n coefficients."""
        return _tie_bounds(observed, self.n, self.n, np.abs(coef).sum() + abs(offset))

    def exact_tails(self, columns, memo=None) -> list:
        """The support's probability masses [abs, upper, lower] of each
        (coef, offset, bounds) column, by scan_tails over the enumerated
        support; this scan reuses nothing, so it ignores memo."""
        labels, probs = support_label_matrix(self)
        return scan_tails((labels == 1).astype(np.float64), columns, probs)

    def shift_invariant(self) -> bool:
        """Whether the weighted difference D of y + c equals D of y at
        every support point, so that resampling may center the responses.
        Not in general: unequal inclusion weights make D move with c."""
        return False

    def variance_bound(self, block) -> np.ndarray:
        """The variance-bound estimate of var(D) over the design, from each
        experiment of an ObservedBlock. Only a uniform CRD defines one."""
        raise UnsupportedDesignError(
            "the variance-bound estimator is only defined for UniformCRD; "
            "no estimator is available for general inclusion probabilities "
            "(an open problem for nonuniform designs)"
        )

    def weight_table(self, sample: SampleVector) -> np.ndarray:
        """n times the inclusion probabilities: the (2, n) weights that
        make D unbiased for the sample-level effect."""
        if self.n != sample.n:
            raise DesignInvalidError(
                f"design is for n={self.n} but the data have n={sample.n}"
            )
        return self._weights()

    def _weights(self) -> np.ndarray:
        return self.n * self.inclusion_table()


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
        return math.comb(self.n, self.n1)

    def support_exceeds(self, limit: int) -> bool:
        """Whether C(n, n1) > limit, by the running product C(n - k + i, i)
        for i = 1..k = min(n1, n2), which grows with i and so stops once it
        passes limit, without computing all of C(n, n1)."""
        k, size = min(self.n1, self.n2), 1
        for i in range(1, k + 1):
            size = size * (self.n - k + i) // i
            if size > limit:
                return True
        return False

    def _template(self) -> np.ndarray:
        return np.concatenate([np.ones(self.n1, np.int8), np.full(self.n2, 2, np.int8)])

    def inclusion_table(self) -> np.ndarray:
        return np.repeat([[self.n1 / self.n], [self.n2 / self.n]], self.n, axis=1)

    def _weights(self) -> np.ndarray:
        # the arm sizes exactly: n * (n1 / n) can miss n1 in its last bit
        return np.repeat([[float(self.n1)], [float(self.n2)]], self.n, axis=1)

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

    @property
    def tail_denominator(self) -> int:
        """exact_tails counts support points, so M, the support size."""
        return self.support_size

    def shift_invariant(self) -> bool:
        """D(y + c) = D(y) + c * (n1 / n1 - n2 / n2) = D(y)."""
        return True

    def variance_bound(self, block) -> np.ndarray:
        """v1 / n1 + v2 / n2 of each experiment, with the divide-by-n arm
        variances v = ssd / n."""
        n1, n2 = block.n1, block.n2
        if self.n != block.n or self.n1 != n1:
            raise DesignInvalidError(
                "design arm sizes do not match the observed assignment"
            )
        if n1 < 2 or n2 < 2:
            raise InsufficientDataError("both arms need >= 2 observations")
        (_, ssd1), (_, ssd2) = block.arm_moments
        return ssd1 / n1 / n1 + ssd2 / n2 / n2

    def tie_bounds(self, coef, offset, observed) -> tuple:
        """stat adds k = min(n1, n2) coefficients, one arm's, bounded by
        the k largest |coef|. n1 / n of sum(|coef|) bounds the sums of n
        terms: the offset's, -sum(y) / n2, and the counter's column sum."""
        k, size = min(self.n1, self.n2), np.abs(coef)
        scale = np.partition(size, self.n - k)[self.n - k:].sum() + abs(offset)
        return _tie_bounds(observed, self.n, k, scale + self.n1 / self.n * size.sum())

    def exact_tails(self, columns, memo=None) -> list:
        """scan_tails' hit counts over the support, counted without
        enumerating it (meet in the middle; Horowitz & Sahni 1974, J. ACM
        21:277-292). A set of k = min(n1, n2) units, the smaller arm, is an
        a-subset of the first h = n // 2 positions joined with a (k - a)-subset
        of the rest, so a tail is a count of pairs of subset sums. memo (a
        TailMemo) keeps the design's _subset_layout and each column's subset
        sums, summed in the layout's order, the right half's sorted.

        A column on the half-integer lattice (midranks, ties included) has
        exact subset sums, so its counts depend only on the multiset of its
        coefficients, and on each bound only through the lattice points it
        separates: it is sorted and its bounds are moved to the lattice
        before counting, so that any arrangement of it reuses one entry.
        Such a column is counted from its _SumTable (the shift algorithm;
        Pagano & Tritchler 1983, JASA 78:435-440) when the table has no more
        cells than the support has points, by three lookups; memo keeps the
        table under the design and the sorted coefficients."""
        memo = TailMemo() if memo is None else memo
        size, k, h = check_enumeration_cap(self), min(self.n1, self.n2), self.n // 2
        left, right, right_size, pairs_with, first, end = memo.get(
            self, lambda: _subset_layout(h, self.n - h, k))
        tails = []
        for coef, offset, (thr, upper, lower) in columns:
            coef = np.asarray(coef, dtype=np.float64)
            lattice = _on_half_lattice(coef, offset)
            if lattice:
                coef = np.sort(coef)
                thr, upper = np.ceil(2 * thr) / 2, np.ceil(2 * upper) / 2
                lower = np.floor(2 * lower) / 2
            key = (self, coef.tobytes())
            if k < self.n1:
                # count the arm-2 sets: m @ coef + offset = (1 - m) @ -coef +
                # (offset + coef.sum())
                offset, coef = offset + coef.sum(), -coef
            if lattice and (k + 1) * (_widest_sum(coef, k) + 1) <= size:
                table = memo.get(key + ("sums",), lambda: _SumTable.build(coef, k))
                tails.append(table.tails(offset, thr, upper, lower))
                continue
            left_sums, keys = memo.get(key, lambda: (
                _subset_sums(coef[:h], *left),
                np.sort(right_size + 1j * _subset_sums(coef[h:], *right))))
            # stat = right sum + base. numpy sorts complex numbers by real
            # part, then imaginary part, so among the sorted keys
            # b + 1j * right sum, one searchsorted finds for every left
            # subset how many right sums of its size b lie below t - base
            base = np.float64(offset) + left_sums
            ge = np.searchsorted(keys, pairs_with + 1j * np.array([thr - base, upper - base]))
            le = np.searchsorted(keys, pairs_with + 1j * np.array([-thr - base, lower - base]),
                                 "right")
            # |stat| >= thr: stat >= thr, or stat <= -thr below the first
            # cut, so that a sum is counted once, and thr <= 0 counts all
            abs_hits = (end - ge[0]).sum() + (np.minimum(le[0], ge[0]) - first).sum()
            hits = (abs_hits, (end - ge[1]).sum(), (le[1] - first).sum())
            tails.append([int(j) for j in hits])
        return tails

    def sample_batch(self, size: int, gen: np.random.Generator) -> np.ndarray:
        """Row-wise Fisher-Yates shuffles, in place, of n1 ones then n2
        zeros: the swaps of the sorted labels' shuffles, which do not depend
        on the items swapped, made on the 8-byte items numpy moves fastest."""
        mask = np.tile(np.repeat([1.0, 0.0], [self.n1, self.n2]), (size, 1))
        return gen.permuted(mask, axis=1, out=mask)

    def _contains(self, labels) -> bool:
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
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", _support_probs(self.probs, len(support)))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_mask", (labels == 1).astype(np.float64))

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
        """Categorical draws of support rows, as their arm-1 indicators."""
        return self._mask[gen.choice(len(self.support), size=size, p=self.probs)]

    def _contains(self, labels) -> bool:
        if len(labels) != self.n:
            return False
        return bool(np.any(np.all(self._labels == labels, axis=1)))


def explicit_from_json(doc) -> Explicit:
    """Build an Explicit design from {"support": [[1,2,...],...], "probs": [...]}.

    Accepts a parsed document, a JSON string, or a path to a JSON file. A
    string whose first non-space character, after one byte-order mark, is
    { or [ is JSON text; any other string is a path, named by every refusal.
    """
    text, path = doc, None
    if isinstance(doc, (str, bytes)):
        text = doc.removeprefix("\ufeff" if isinstance(doc, str) else codecs.BOM_UTF8)
    if isinstance(text, (str, bytes)) and text.lstrip()[:1] in ("{", "[", b"{", b"["):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"cannot read {doc}: invalid JSON: {exc}") from exc
    elif isinstance(doc, (str, bytes, os.PathLike)):
        path, doc = doc, read_json(doc)
    try:
        if not isinstance(doc, dict) or "support" not in doc or "probs" not in doc:
            raise DataValidationError(
                'explicit design document must have "support" and "probs" keys'
            )
        # numpy would read a JSON true as the label 1
        if any(isinstance(row, list) and any(isinstance(label, bool) for label in row)
               for row in doc["support"]):
            raise DataValidationError("treatment labels must be 1 or 2")
        return Explicit(support=tuple(doc["support"]), probs=doc["probs"])
    except (DataValidationError, DesignInvalidError) as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {exc}") from None


def check_both_arm_inclusion(design: AssignmentDesign) -> None:
    """Raise unless every position can receive either treatment."""
    table = design.inclusion_table()
    if np.any(table <= 0.0):
        t, j = np.argwhere(table <= 0.0)[0]
        raise DesignInvalidError(
            f"design gives treatment {int(t) + 1} zero inclusion probability "
            f"at position {int(j) + 1}; randomization tests need every unit "
            "to be assignable to both arms"
        )


# str() refuses integers of more than 4,300 digits, so a support larger
# than this is refused without writing out its size.
_PRINTABLE_SIZE = 10**4000


def check_enumeration_cap(design: AssignmentDesign) -> int:
    """The design's support size; EnumerationTooLargeError past
    ENUMERATION_CAP. The only place a design is refused as too large."""
    if not design.support_exceeds(ENUMERATION_CAP):
        return design.support_size
    size = None if design.support_exceeds(_PRINTABLE_SIZE) else design.support_size
    shown = "of more than 4000 digits" if size is None else size
    raise EnumerationTooLargeError(
        f"support size {shown} exceeds enumeration cap {ENUMERATION_CAP}",
        size=size,
        cap=ENUMERATION_CAP,
    )


def _tie_bounds(observed: float, n: int, terms: int, scale: float) -> tuple:
    """The bounds +-tol around observed, tol = c * eps * scale bounding the
    rounding of the sums behind a statistic and observed (Higham 2002, ch.
    4): scale bounds their terms and c counts additions, terms in the
    longest sequential sum plus ceil(log2(n + 1)) + 16 for numpy's pairwise
    sums (8 accumulators, blocks of 128). tol scales by 2^j with the data."""
    tol = (n.bit_length() + 16 + terms) * math.ulp(1.0) * float(scale)
    return abs(observed) - tol, observed - tol, observed + tol


def support_label_matrix(design: AssignmentDesign):
    """(labels (M, n) int8, probs (M,)) for vectorized exact engines."""
    check_enumeration_cap(design)
    return design.support_labels()


def scan_tails(mask, columns, probs=None) -> list:
    """[abs, upper, lower] tails of each (coef, offset, (thr, upper, lower))
    column over the rows of a float64 arm-1 indicator matrix: hit counts,
    or with probs the probability masses of those rows. A row m has
    statistic stat = m @ coef + offset, which is in the abs tail when
    |stat| >= thr, the upper when stat >= upper, the lower when
    stat <= lower."""
    tails = []
    for coef, offset, (thr, upper, lower) in columns:
        stats = mask @ coef + offset
        hits = (np.abs(stats) >= thr, stats >= upper, stats <= lower)
        if probs is None:
            tails.append([int(np.count_nonzero(h)) for h in hits])
        else:
            # a tail spanning the whole support can sum to 1 + O(eps)
            tails.append([min(float(probs[h].sum()), 1.0) for h in hits])
    return tails


def _subset_index(h: int, kmax: int) -> tuple:
    """(prev, last, starts): the subsets of h values of sizes 0..kmax in
    colex order (by largest value, then recursively), laid out size by size
    in one flat array, the a-subsets at [starts[a], starts[a + 1]). The
    subset at s is value last[s] joined with the subset at prev[s]."""
    prevs, lasts, starts = [np.zeros(1, np.intp)], [np.zeros(1, np.intp)], [0, 1]
    for a in range(kmax):
        # an (a + 1)-subset is value j joined with an a-subset of the
        # values below j: the first C(j, a) of them in colex order
        counts = [math.comb(j, a) for j in range(h)]
        last = np.repeat(np.arange(h), counts)
        local = np.arange(len(last)) - np.repeat(np.cumsum(counts) - counts, counts)
        prevs.append(local + starts[-2])
        lasts.append(last)
        starts.append(starts[-1] + len(last))
    return np.concatenate(prevs), np.concatenate(lasts), np.array(starts)


def _subset_sums(values: np.ndarray, prev, last, starts) -> np.ndarray:
    """The sums of values over the subsets _subset_index laid out, each
    summed as its smaller subset's sum plus its last value."""
    sums = np.zeros(starts[-1])
    addends = values[last]
    for lo, hi in zip(starts[1:-1], starts[2:]):
        np.add(sums[prev[lo:hi]], addends[lo:hi], out=sums[lo:hi])
    return sums


def _subset_layout(h: int, rest: int, k: int) -> tuple:
    """What UniformCRD.exact_tails counts with, whatever the data: the
    _subset_index of the first h positions and of the other rest, to size
    k <= h <= rest, so neither half has more sums than the support has
    points; the size of each right subset; and for each left a-subset, the
    size k - a of the right subsets it pairs with and where they lie."""
    left, right = _subset_index(h, k), _subset_index(rest, k)
    pairs_with = np.repeat(k - np.arange(k + 1), np.diff(left[2]))
    right_size = np.repeat(np.arange(k + 1), np.diff(right[2]))
    return left, right, right_size, pairs_with, right[2][pairs_with], right[2][pairs_with + 1]


def _widest_sum(coef: np.ndarray, k: int) -> float:
    """The widest spread of the doubled sums of k coefficients, from the
    least such sum to the greatest: the last column _SumTable needs."""
    doubled = np.sort(2 * coef)
    return float((doubled[-k:] - doubled[0]).sum())


class _SumTable(NamedTuple):
    """Counts of the k-subsets of a lattice column by doubled sum: below[j]
    of them have a doubled sum below low + j, for j in 0..S + 1, S the
    _widest_sum. Three lookups give the tails of any offset and bounds."""

    low: float
    below: np.ndarray

    @classmethod
    def build(cls, coef: np.ndarray, k: int) -> "_SumTable":
        """The shift algorithm: a dynamic program over (subset size, sum)
        on the doubled coefficients less their least (Pagano & Tritchler
        1983, JASA 78:435-440; Streitberg & Rohmel 1986)."""
        doubled = 2 * coef
        steps = (doubled - doubled.min()).astype(np.int64)
        top = int(_widest_sum(coef, k))
        counts = np.zeros((k + 1, top + 1), np.int64)
        counts[0, 0] = 1
        for step in steps:
            # each j-subset joined with this value is a (j + 1)-subset;
            # numpy reads the overlapping right side as it was before
            counts[1:, step:] += counts[:-1, :top + 1 - step]
        return cls(k * float(doubled.min()), np.concatenate([[0], np.cumsum(counts[k])]))

    def tails(self, offset: float, thr: float, upper: float, lower: float) -> list:
        """[abs, upper, lower] hit counts of stat = subset sum + offset,
        for bounds on the half-integer lattice; thr <= 0 counts all."""
        total = int(self.below[-1])

        def at_most(doubled_stat):
            j = np.clip(doubled_stat - (self.low + 2 * offset) + 1, 0, len(self.below) - 1)
            return int(self.below[int(j)])

        def at_least(doubled_stat):
            return total - at_most(doubled_stat - 1)

        abs_hits = total if thr <= 0 else at_least(2 * thr) + at_most(-2 * thr)
        return [abs_hits, at_least(2 * upper), at_most(2 * lower)]


def _on_half_lattice(coef: np.ndarray, offset: float) -> bool:
    """Whether coef and offset are multiples of 1/2 with sum of absolute
    values below 2^50, so that every subset sum is exact in float64."""
    doubled = 2.0 * np.append(coef, offset)
    return bool(np.all(doubled == np.round(doubled)) and np.abs(doubled).sum() < 2.0**51)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    return sum(map(_nbytes, value)) if isinstance(value, tuple) else 0


# The most bytes of arrays one TailMemo keeps: at n = 20, a design's subset
# layout and about ten columns' halves.
_MEMO_BYTES = 1 << 18


class TailMemo:
    """What UniformCRD.exact_tails can reuse between calls: the subset
    layout of a design, the prepared halves of a column and the _SumTable
    of a lattice column, least recently used first out. Safe to share between
    threads. It keeps at most _MEMO_BYTES of arrays; a larger item is built
    and not kept."""

    def __init__(self):
        self._items = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, key, build):
        """The item under key, built by build() when it is not kept. build runs
        under the lock, so each item is built once, and must not call get."""
        with self._lock:
            if key in self._items:
                self._items.move_to_end(key)
                return self._items[key][0]
            value = build()
            size = _nbytes(value)
            if size <= _MEMO_BYTES:
                self._items[key] = value, size
                self.nbytes += size
                while self.nbytes > _MEMO_BYTES:
                    self.nbytes -= self._items.popitem(last=False)[1][1]
            return value


def sample_assignment(design: AssignmentDesign, rng: RngStream) -> AssignmentVector:
    """One seeded draw from the design: the first row of a one-row batch
    drawn from the start of rng, arm-1 indicators m made labels 2 - m."""
    return AssignmentVector(2 - sample_assignment_batch(design, 1, rng.generator())[0])


def sample_assignment_batch(
    design: AssignmentDesign, size: int, gen: np.random.Generator
) -> np.ndarray:
    """(size, n) float64 arm-1 indicator rows of independent draws: 1.0
    where a unit gets treatment 1, 0.0 where it gets treatment 2."""
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
        """Its uniform CRD's weights, the arm sizes n1 and n2; the sample
        must be the whole population."""
        everyone = np.arange(1, self.n_population + 1)
        if not np.array_equal(np.sort(sample.indices), everyone):
            raise DesignInvalidError(
                "census design requires the sample to be the whole population"
            )
        return self.assignment_design().weight_table(sample)

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
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", _support_probs(self.probs, len(support)))

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
        expected = math.comb(n, n1)
        if len(assignment_probs) != expected:
            return None
        uniform = 1.0 / expected
        if any(abs(p - uniform) > 1e-9 for p in assignment_probs.values()):
            return None
        return CensusCRD(n_population=n, n1=n1)
