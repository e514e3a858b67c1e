"""Independent references the implementations are checked against.

The special-function probes were computed with an arbitrary-precision
library (mpmath, 50 digits) and pasted here as literals before the
implementations were written, so the implementations cannot influence
their own acceptance targets.
"""
import itertools
import math
from fractions import Fraction

import numpy as np

# (x, Phi(x)) pairs
NORMAL_CDF_PROBES = [
    (-8.0, 6.220960574271784e-16),
    (-5.0, 2.866515718791939e-07),
    (-3.0, 0.0013498980316300946),
    (-2.5, 0.006209665325776135),
    (-2.0, 0.02275013194817921),
    (-1.5, 0.06680720126885807),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (-0.1, 0.460172162722971),
    (0.0, 0.5),
    (0.1, 0.539827837277029),
    (0.5, 0.6914624612740131),
    (1.0, 0.8413447460685429),
    (1.5, 0.9331927987311419),
    (2.0, 0.9772498680518208),
    (2.5, 0.9937903346742238),
    (2.6728045920262433, 0.9962389973755524),
    (3.0, 0.9986501019683699),
    (5.0, 0.9999997133484281),
    (8.0, 0.9999999999999993),
]

# (x, df, F_t(x; df)) triples; df includes fractional values because the
# Welch approximation produces them
STUDENT_T_CDF_PROBES = [
    (-3.0, 1.0, 0.10241638234956672),
    (-1.0, 1.0, 0.25),
    (1.0, 1.0, 0.75),
    (0.5, 2.0, 0.6666666666666666),
    (-2.0, 3.0, 0.0696629842794216),
    (2.5, 4.0, 0.966616727594006),
    (-0.7, 5.0, 0.2575744741574082),
    (1.812, 7.5, 0.9449761256596751),
    (-2.2281, 10.0, 0.025001646793237242),
    (0.26, 12.0, 0.6003644301469706),
    (2.6307059754558337, 56.69642596500734, 0.9945236058676379),
    (-1.96, 30.0, 0.02967115644802524),
    (1.0, 17.92, 0.8346883746683887),
    (3.5, 25.0, 0.9991172523428216),
    (-4.0, 40.0, 0.00013295619783334884),
    (2.0003, 62.0, 0.9750737091248973),
    (-0.33, 80.0, 0.3711312712663781),
    (1.645, 120.0, 0.9487065594255818),
    (2.5758293035489004, 1000.0, 0.9949287020159513),
    (-1.2815515655446004, 1000000.0, 0.10000014857417512),
]


# ------------------------------------------------ scalar special functions
#
# The package's special functions as they were written before they became
# array kernels: one float at a time, with the same series, continued
# fractions and scalar-math prefactors. The array kernels must reproduce
# them bit for bit, element by element.

_FPMIN = 1e-300  # floor to keep Lentz denominators away from zero
_EPS = 1e-16  # convergence threshold for series/continued fractions
_MAX_ITERATIONS = 300  # cap on series terms and continued-fraction steps


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by its power series (x < a+1)."""
    if x == 0.0:
        # P(a, 0) = 0; the series' closing exp(a log x) cannot express it
        return 0.0
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITERATIONS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ArithmeticError("incomplete gamma series failed to converge")


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by modified-Lentz CF (x >= a+1)."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ArithmeticError("incomplete gamma continued fraction failed to converge")


def scalar_erfc(x: float) -> float:
    """Complementary error function via the incomplete gamma kernels."""
    if x < 0.0:
        return 2.0 - scalar_erfc(-x)
    if x == 0.0:
        return 1.0
    x2 = x * x
    if x2 < 1.5:
        return 1.0 - _lower_gamma_series(0.5, x2)
    return _upper_gamma_cf(0.5, x2)


_SQRT2 = math.sqrt(2.0)


def scalar_normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    if not math.isfinite(x):
        raise ValueError("normal_cdf requires a finite argument")
    u = x / _SQRT2
    if x < 0.0:
        return 0.5 * scalar_erfc(-u)
    return 1.0 - 0.5 * scalar_erfc(u)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction failed to converge")


def scalar_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function.

    Uses the continued fraction directly when x is below the crossover
    (a+1)/(a+b+2), else the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) so the
    fraction is always evaluated on its rapidly converging side.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("incomplete beta requires positive shape parameters")
    if not 0.0 <= x <= 1.0:
        raise ValueError("incomplete beta argument must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def scalar_student_t_cdf(x: float, df: float) -> float:
    """CDF of Student's t distribution with df > 0 degrees of freedom."""
    if df <= 0.0 or not math.isfinite(df):
        raise ValueError("degrees of freedom must be positive and finite")
    if not math.isfinite(x):
        raise ValueError("student_t_cdf requires a finite argument")
    if x == 0.0:
        return 0.5
    tail = 0.5 * scalar_incomplete_beta(0.5 * df, 0.5, df / (df + x * x))
    return tail if x < 0.0 else 1.0 - tail

def joint_inclusion_by_scan(design, sample):
    """(2, n) table of P(unit s_j is sampled and gets treatment t) for an
    ExplicitJoint design, by scanning every support point for every sampled
    unit and adding the point's probability in support order: an O(M n^2)
    loop kept as the reference for the design's own vectorized table."""
    pi = np.zeros((2, sample.n))
    for (s, t), prob in zip(design.support, design.probs):
        for j, unit in enumerate(sample.indices):
            for arm in (1, 2):
                if np.any((s.indices == unit) & (t.labels == arm)):
                    pi[arm - 1, j] += float(prob)
    return pi


def label_draws(design, size, gen):
    """(size, n) int8 labels of independent draws: a row-wise shuffle of
    the sorted int8 labels for a uniform CRD, categorical draws of support
    rows otherwise. The reference the designs' indicator-row samplers must
    reproduce bit for bit, as labels == 1, on the same generator."""
    from randcompare import UniformCRD

    if isinstance(design, UniformCRD):
        labels = np.repeat(np.int8([1, 2]), [design.n1, design.n2])
        return gen.permuted(np.tile(labels, (size, 1)), axis=1)
    labels, probs = design.support_labels()
    return labels[gen.choice(len(labels), size=size, p=probs)]


def uniform_crd_tails_by_fractions(responses, labels):
    """[abs, upper, lower] tail masses of the difference of arm means and of
    the arm-1 midrank sum over every relabeling at the observed arm sizes,
    decided in rational arithmetic on the exact values of the responses:
    a full enumeration kept as the reference for the uniform-CRD counter.
    k of the M assignments have mass k / M, rounded once from the fraction."""
    y = [Fraction(float(v)) for v in responses]
    n, n1 = len(y), int(np.sum(np.asarray(labels) == 1))
    ranks = [sum(u < v for u in y) + Fraction(sum(u == v for u in y) + 1, 2) for v in y]
    everyone = set(range(n))

    def difference(ones):
        return (sum(y[j] for j in ones) / n1
                - sum(y[j] for j in everyone - set(ones)) / (n - n1))

    def rank_sum(ones):
        return sum(ranks[j] for j in ones)

    observed = tuple(int(j) for j in np.flatnonzero(np.asarray(labels) == 1))
    size = math.comb(n, n1)
    tails = []
    for stat in (difference, rank_sum):
        obs = stat(observed)
        values = [stat(ones) for ones in itertools.combinations(range(n), n1)]
        counts = (sum(abs(v) >= abs(obs) for v in values),
                  sum(v >= obs for v in values), sum(v <= obs for v in values))
        tails.append([float(Fraction(k, size)) for k in counts])
    return tails


def difference_plan_by_experiment(observed, design):
    """(statistic, coef, offset, compared) of the weighted difference D on
    one experiment, as the resampling tests built their plan one experiment
    at a time: from the public resolve_weights, d_statistic and
    d_affine_form, the column on the responses less their middle order
    statistic where D is shift-invariant under the design."""
    from randcompare import d_affine_form, d_statistic, resolve_weights

    y, assignment = observed.responses, observed.assignment
    weights = resolve_weights(design, observed.sample, assignment)
    statistic = d_statistic(y, assignment, weights)
    if design.shift_invariant():
        y = y - np.sort(y)[len(y) // 2]
    coef, offset = d_affine_form(y, weights)
    return statistic, coef, offset, d_statistic(y, assignment, weights)


def rank_sum_plan_by_experiment(observed):
    """(statistic, coef, offset, compared) of the arm-1 midrank sum on one
    experiment, from the public rank_midranks and rank_sum_statistic."""
    from randcompare import rank_midranks, rank_sum_statistic

    ranks = rank_midranks(observed.responses)
    statistic = rank_sum_statistic(ranks, observed.assignment)
    return statistic, ranks, 0.0, statistic


def closed_form_by_arms(observed, design):
    """{test: (statistic, p_value, degenerate), or (error type, message)}
    of welch_t, pooled_t and neyman_rand on one experiment, from numpy's
    one-dimensional reductions of each arm in the order the tests were
    first written with: np.var(arm, ddof=1) for the t tests, the mean of
    (arm - arm.mean()) ** 2 for the variance bound, and d_statistic; the
    p-values come from the scalar CDFs above, one call per experiment."""
    from randcompare import (DegenerateDataError, RandcompareError, d_statistic, pooled_se,
                             resolve_weights, welch_df, welch_se)

    arm1, arm2 = observed.arm_responses(1), observed.arm_responses(2)
    n1, n2 = len(arm1), len(arm2)
    r = observed.responses
    degenerate = bool(np.ptp(r) == 0)

    def studentized(difference, se, cdf):
        if se == 0.0:
            raise DegenerateDataError("zero standard error: responses carry no variation")
        statistic = difference / se
        return statistic, min(1.0, max(0.0, 2.0 * (1.0 - cdf(abs(statistic))))), degenerate

    v1, v2 = float(np.var(arm1, ddof=1)), float(np.var(arm2, ddof=1))
    difference = float(arm1.mean() - arm2.mean())
    bound = (float(np.mean((arm1 - arm1.mean()) ** 2)) / n1
             + float(np.mean((arm2 - arm2.mean()) ** 2)) / n2)
    weights = resolve_weights(design, observed.sample, observed.assignment)
    runs = {
        "welch_t": lambda: studentized(difference, welch_se(v1, n1, v2, n2),
                                       lambda t: scalar_student_t_cdf(t, welch_df(v1, n1, v2, n2))),
        "pooled_t": lambda: studentized(difference, pooled_se(v1, n1, v2, n2),
                                        lambda t: scalar_student_t_cdf(t, float(n1 + n2 - 2))),
        "neyman_rand": lambda: studentized(
            d_statistic(r, observed.assignment, weights), float(np.sqrt(bound)),
            scalar_normal_cdf),
    }
    results = {}
    for name, run in runs.items():
        try:
            results[name] = run()
        except RandcompareError as exc:
            results[name] = (type(exc), str(exc))
    return results
