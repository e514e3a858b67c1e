"""The weighted difference statistic, rank statistics, and the
variance/standard-error estimators behind the tests.

The central statistic is a difference of inclusion-weighted response
sums: D = sum_{j: t_j=1} y_j/w(1,j) - sum_{j: t_j=2} y_j/w(2,j). The
design gives the weights and so decides what D estimates. A uniform
CRD's are its arm sizes, which make D the difference of arm means. An
assignment design's weight table, n times its inclusion probabilities,
makes D unbiased for the sample-level effect over the randomization
distribution; a selection design's, N times its joint inclusion
probabilities, makes it unbiased for the population-level effect over
the selection distribution.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .core import AssignmentVector, ObservedExperiment, SampleVector
from .designs import AssignmentDesign
from .errors import (
    DataValidationError,
    DesignInvalidError,
    DegenerateDataError,
    InsufficientDataError,
)


def resolve_weights(
    design, sample: SampleVector, assignment: AssignmentVector
) -> np.ndarray:
    """Per-observation weight table, shape (2, n); row t-1 holds w(t, j).

    The design's weight_table(sample) gives the weights. Entries may be
    zero at (t, j) pairs the design can never produce; d_statistic skips
    such terms by the 0/0 convention. A zero weight at an observed label
    means the data are impossible under the design and raises.
    """
    n = assignment.n
    if sample.n != n:
        raise DataValidationError("sample and assignment must have equal length")
    table = design.weight_table(sample)
    observed = table[assignment.labels - 1, np.arange(n)]
    if np.any(observed == 0.0):
        j = int(np.argmax(observed == 0.0))
        raise DesignInvalidError(
            f"zero inclusion probability for the observed label at position {j + 1}"
        )
    return table


def d_statistic(
    responses: np.ndarray, assignment: AssignmentVector, weights: np.ndarray
) -> float:
    """Difference of weighted response sums; empty arms contribute 0.

    The 0/0 convention is an explicit branch: a term enters only when its
    arm indicator is 1, so zero weights at never-assigned coordinates are
    harmless, while a zero weight on an active term is a design error.
    """
    responses = np.asarray(responses, dtype=np.float64)
    if not np.all(np.isfinite(responses)):
        raise DataValidationError("responses must be finite")
    if len(responses) != assignment.n or weights.shape != (2, assignment.n):
        raise DataValidationError("responses, assignment and weights must align")
    total = 0.0
    for arm, sign in ((1, 1.0), (2, -1.0)):
        mask = assignment.labels == arm
        if not np.any(mask):
            continue
        w = weights[arm - 1, mask]
        if np.any(w == 0.0):
            raise DesignInvalidError(
                f"zero weight on an observed arm-{arm} term"
            )
        total += sign * float(np.sum(responses[mask] / w))
    return total


def d_affine_form(responses: np.ndarray, weights: np.ndarray) -> tuple:
    """(coef, offset) with D(t') = mask1(t') @ coef + offset for every
    relabeling t', mask1 being the arm-1 indicator of t'."""
    coef = responses / weights[0] + responses / weights[1]
    offset = -float(np.sum(responses / weights[1]))
    return coef, offset


def rank_midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the average of the ranks they span."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DataValidationError("values must be finite")
    sorted_vals = np.sort(values)
    below = np.searchsorted(sorted_vals, values, side="left")
    through = np.searchsorted(sorted_vals, values, side="right")
    return (below + through + 1) / 2.0


def rank_sum_statistic(ranks: np.ndarray, assignment: AssignmentVector) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) != assignment.n:
        raise DataValidationError("ranks and assignment must have equal length")
    return float(np.sum(ranks[assignment.labels == 1]))


def sample_variance(values: np.ndarray, ddof: int = 1) -> float:
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise InsufficientDataError("variance needs at least two observations")
    return float(np.var(values, ddof=ddof))


def _check_variances(var1, n1: int, var2, n2: int) -> None:
    if n1 < 1 or n2 < 1:
        raise ValueError("arm sizes must be positive")
    if np.any(np.less(var1, 0)) or np.any(np.less(var2, 0)):
        raise ValueError("variances must be nonnegative")


def _float_or_array(value: np.ndarray):
    """value as a Python float when it has no dimensions."""
    return float(value) if np.ndim(value) == 0 else value


def welch_se(var1, n1: int, var2, n2: int):
    """sqrt(var1 / n1 + var2 / n2). The variances are floats, for a float
    back, or arrays with one element per experiment, for an array back."""
    _check_variances(var1, n1, var2, n2)
    return _float_or_array(np.sqrt(var1 / n1 + var2 / n2))


def welch_df(var1: float, n1: int, var2: float, n2: int) -> float:
    """Welch-Satterthwaite approximate degrees of freedom; inf where the
    square of the summed variances overflows. Where the squares underflow,
    a and b are first divided by the larger, which leaves the df unchanged."""
    if n1 < 2 or n2 < 2:
        raise InsufficientDataError("degrees of freedom need both arms >= 2")
    a = var1 / n1
    b = var2 / n2
    denom = a * a / (n1 - 1) + b * b / (n2 - 1)
    if denom < sys.float_info.min and (a or b):
        a, b = a / max(a, b), b / max(a, b)
        denom = a * a / (n1 - 1) + b * b / (n2 - 1)
    if denom == 0.0:
        raise DegenerateDataError("both variances are zero")
    try:
        return (a + b) ** 2 / denom
    except OverflowError:  # float ** raises where float * reads inf
        return math.inf


def pooled_se(var1, n1: int, var2, n2: int):
    """The pooled-variance standard error of the difference of arm means;
    floats or arrays, as welch_se."""
    if n1 + n2 < 3:
        raise InsufficientDataError("pooled variance needs n1 + n2 >= 3")
    _check_variances(var1, n1, var2, n2)
    pooled_var = ((n1 - 1) * var1 + (n2 - 1) * var2) / (n1 + n2 - 2)
    return _float_or_array(np.sqrt(pooled_var * (1.0 / n1 + 1.0 / n2)))


def neyman_se(observed: ObservedExperiment, design: AssignmentDesign) -> float:
    """Standard error for the variance-bound estimator of sd(D | design).

    Only defined for uniform CRD; no estimator exists for general
    inclusion probabilities (zero second-order inclusions make the
    design nonmeasurable).

    Uses divide-by-n arm variances, not the unbiased n-1 form. The bound
    is tight under unit-treatment additivity, where this divisor makes it
    sit slightly low at small arm sizes (visible as mild anti-conservatism
    in size simulations); the t tests use the n-1 divisor instead, which
    is why this SE is smaller than welch_se on the same data.
    """
    return float(np.sqrt(design.variance_bound(observed.block)[0]))
