"""Normal and Student-t distribution functions evaluated in-repo.

Asymptotic p-values should be bit-stable across platforms, so instead of
deferring to a platform math library these are built from two classical
kernels: the regularized incomplete gamma (series + Lentz continued
fraction) for the complementary error function, and the regularized
incomplete beta (modified-Lentz continued fraction with the symmetry
swap) for the t distribution. Both kernels converge in well under 100
iterations over the argument ranges that arise here.

Accuracy, verified against an arbitrary-precision oracle at frozen probe
points: |error| <= 1e-12 for normal_cdf, <= 1e-8 for student_t_cdf (the
t CDF loses a few digits to lgamma cancellation at very large df).
"""
from __future__ import annotations

import math

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


def erfc(x: float) -> float:
    """Complementary error function via the incomplete gamma kernels."""
    if x < 0.0:
        return 2.0 - erfc(-x)
    if x == 0.0:
        return 1.0
    x2 = x * x
    if x2 < 1.5:
        return 1.0 - _lower_gamma_series(0.5, x2)
    return _upper_gamma_cf(0.5, x2)


_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    if not math.isfinite(x):
        raise ValueError("normal_cdf requires a finite argument")
    u = x / _SQRT2
    if x < 0.0:
        return 0.5 * erfc(-u)
    return 1.0 - 0.5 * erfc(u)


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


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
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


def student_t_cdf(x: float, df: float) -> float:
    """CDF of Student's t distribution with df > 0 degrees of freedom."""
    if df <= 0.0 or not math.isfinite(df):
        raise ValueError("degrees of freedom must be positive and finite")
    if not math.isfinite(x):
        raise ValueError("student_t_cdf requires a finite argument")
    if x == 0.0:
        return 0.5
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + x * x))
    return tail if x < 0.0 else 1.0 - tail
