"""Normal and Student-t distribution functions evaluated in-repo.

Asymptotic p-values should be bit-stable across platforms, so instead of
deferring to a platform math library these are built from two classical
kernels: the regularized incomplete gamma (series + Lentz continued
fraction) for the complementary error function, and the regularized
incomplete beta (modified-Lentz continued fraction with the symmetry
swap; Lentz 1976, Appl. Opt. 15:668; Thompson & Barnett 1986, J. Comput.
Phys. 64:490) for the t distribution. Both kernels converge in well
under 100 iterations over the argument ranges that arise here.

The kernels are array kernels, the only implementation: every element
runs the scalar recurrence's IEEE operations in the scalar order, all
elements in lockstep, and an element's result is its value at the step
where it converged, so it does not depend on the other elements. A
step's coefficients depend on the step number alone, so each kernel
computes them for a chunk of steps in one pass, and a step is a few
numpy calls, whose cost is mostly per call. From the step after an
element converged its coefficients are zero: it is frozen, and its lane
computes values that nothing reads, with no overflow or division by
zero. The arrays keep their length
while elements converge: compacting them to the live elements made
arrays of every length, and numpy's cache of small buffers grew with
each new length. numpy's +, -, *, / and abs are correctly rounded, as
Python's are. Its log and exp are not guaranteed to match the platform
libm bit for bit, so each element's prefactor (lgamma, log, log1p, exp)
is computed with scalar math. The public functions take floats or
arrays; floats give back a Python float, so a harness row of p-values
is one call and a single p-value is the same number.

Accuracy, verified against an arbitrary-precision oracle at frozen probe
points: |error| <= 1e-12 for normal_cdf, <= 1e-8 for student_t_cdf (the
t CDF loses a few digits to lgamma cancellation at very large df).
"""
from __future__ import annotations

import math

import numpy as np

_FPMIN = 1e-300  # floor to keep Lentz denominators away from zero
_EPS = 1e-16  # convergence threshold for series/continued fractions
_MAX_ITERATIONS = 300  # cap on series terms and continued-fraction steps
_CHUNK = 8  # steps whose coefficients one pass of numpy calls computes ...
_CHUNK_VALUES = 4096  # ... up to this many coefficients per array, so they stay in cache


def _floored(v: np.ndarray) -> np.ndarray:
    """v with each element of magnitude below _FPMIN replaced by _FPMIN."""
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _iterate(coefficients, step, state: tuple, failure: str) -> np.ndarray:
    """Run step m = 1, 2, ... of a series or continued fraction on arrays
    of one shape, state, value, converged = step(*state, *coefficients_m),
    and give each element its value at the first step where it converged.
    coefficients(m), for a float column m of up to _CHUNK step numbers,
    gives arrays of those steps' coefficients, a row per step, so that a
    step makes no call for them. From the step after an element converged,
    its coefficients are zero, and the kernels' steps then neither
    overflow nor divide by zero in its lane, whose values nothing reads.
    Raises ArithmeticError(failure) if an element has not converged after
    _MAX_ITERATIONS steps."""
    out, live = np.empty_like(state[0]), np.ones(state[0].shape, dtype=bool)
    if not live.size:
        return out
    chunk = max(1, min(_CHUNK, _CHUNK_VALUES // live.size))
    for first in range(1, _MAX_ITERATIONS + 1, chunk):
        m = np.arange(first, min(first + chunk, _MAX_ITERATIONS + 1), dtype=np.float64)
        rows = coefficients(m[:, None])
        for row in rows:
            np.copyto(row, 0.0, where=~live)
        for k, coefficients_m in enumerate(zip(*rows)):
            state, value, converged = step(*state, *coefficients_m)
            converged &= live
            if np.count_nonzero(converged):
                np.copyto(out, value, where=converged)
                live &= ~converged
                if not np.count_nonzero(live):
                    return out
                for row in rows:
                    np.copyto(row[k + 1:], 0.0, where=converged)
    raise ArithmeticError(failure)


def _lentz(coefficient, c, d, base, pair) -> tuple:
    """A modified-Lentz update, (floored(base + coefficient / c),
    1 / floored(base + coefficient * d)), with one floor over both;
    pair is a (2, n) array it may overwrite.

    The continued fractions test the new delta = d * c as delta == 1,
    which is the scalar test |delta - 1| < _EPS: the doubles next to 1
    are 2^-53 and 2^-52 away from it, both more than _EPS."""
    np.divide(coefficient, c, out=pair[0])
    np.multiply(coefficient, d, out=pair[1])
    floored = _floored(np.add(base, pair, out=pair))
    return floored[0], 1.0 / floored[1]


def _gamma_front(a: float, x: np.ndarray) -> np.ndarray:
    """exp(-x + a log x - lgamma(a)) of each element, added up in the
    scalar order from scalar math's log, lgamma and exp."""
    return _each(math.exp, -x + a * _each(math.log, x) - math.lgamma(a))


def _lower_gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, x) by its power series (x < a+1)."""
    # P(a, 0) = 0; the series' closing exp(a log x) cannot express it
    out, positive = np.zeros_like(x), x != 0.0
    x = x[positive]

    def step(term, total, ratio):
        term = term * ratio
        total = total + term
        return (term, total), total, np.abs(term) < np.abs(total) * _EPS

    term = np.full_like(x, 1.0 / a)
    # a + m is the scalar's ap = a + 1.0 + ... + 1.0 for erfc's a = 0.5, all sums exact
    total = _iterate(lambda m: (x / (a + m),), step, (term, term),
                     "incomplete gamma series failed to converge")
    out[positive] = total * _gamma_front(a, x)
    return out


def _upper_gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x) by modified-Lentz CF (x >= a+1)."""
    def step(b, c, d, h, an):
        b = b + 2.0
        c, d = _lentz(an, c, d, b, pair)
        delta = d * c
        h = h * delta
        return (b, c, d, h), h, delta == 1.0

    b = x + 1.0 - a
    d = 1.0 / b
    pair = np.empty((2, len(x)))
    h = _iterate(lambda m: (np.repeat(-m * (m - a), len(x), axis=1),), step,
                 (b, np.full_like(x, 1.0 / _FPMIN), d, d),
                 "incomplete gamma continued fraction failed to converge")
    return h * _gamma_front(a, x)


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc of each element of x."""
    ax = np.abs(x)  # -x where x < 0; erfc(-0.0) = erfc(0.0) = 1
    with np.errstate(over="ignore"):  # past |x| = 1.3e154, where erfc(|x|) = 0
        x2 = ax * ax
    out = np.ones_like(x)
    series = (x2 < 1.5) & (ax != 0.0)
    out[series] = 1.0 - _lower_gamma_series(0.5, x2[series])
    out[x2 == math.inf] = 0.0
    fraction = ~(x2 < 1.5) & (x2 != math.inf)
    out[fraction] = _upper_gamma_cf(0.5, x2[fraction])
    return np.where(x < 0.0, 2.0 - out, out)


def _floats(*args) -> tuple:
    """(whether every argument is a scalar, the arguments as broadcast
    float64 arrays)."""
    return (all(np.ndim(arg) == 0 for arg in args),
            np.broadcast_arrays(*(np.asarray(arg, dtype=np.float64) for arg in args)))


def _give(scalar: bool, result: np.ndarray):
    """result as a Python float when the arguments were scalars."""
    return float(result) if scalar else result


def erfc(x):
    """Complementary error function via the incomplete gamma kernels."""
    scalar, (x,) = _floats(x)
    return _give(scalar, _erfc(x.ravel()).reshape(x.shape))


_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Standard normal CDF Phi(x)."""
    scalar, (x,) = _floats(x)
    if not np.isfinite(x).all():
        raise ValueError("normal_cdf requires a finite argument")
    shape, x = x.shape, x.ravel()
    tail = 0.5 * _erfc(np.abs(x / _SQRT2))
    return _give(scalar, np.where(x < 0.0, tail, 1.0 - tail).reshape(shape))


def _beta_cf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def coefficients(m):
        """Each step's two coefficients, the scalar's aa."""
        m2 = 2 * m
        am2 = a + m2
        return (m * (b - m) * x / ((qam + m2) * am2),
                -(a + m) * (qab + m) * x / (am2 * (qap + m2)))

    def step(c, d, h, odd, even):
        c, d = _lentz(odd, c, d, 1.0, pair)
        h = h * (d * c)
        c, d = _lentz(even, c, d, 1.0, pair)
        delta = d * c
        h = h * delta
        return (c, d, h), h, delta == 1.0

    d = 1.0 / _floored(1.0 - qab * x / qap)
    pair = np.empty((2, len(x)))
    return _iterate(coefficients, step, (np.ones_like(x), d, d),
                    "incomplete beta continued fraction failed to converge")


def _each(f, v: np.ndarray) -> np.ndarray:
    """The scalar math function f of each element of v."""
    return np.fromiter(map(f, v.tolist()), dtype=np.float64, count=len(v))


def _incomplete_beta(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """regularized_incomplete_beta on valid one-dimensional arrays."""
    out = x.copy()  # I_0 = 0 and I_1 = 1
    inner = (x != 0.0) & (x != 1.0)
    a, b, x = a[inner], b[inner], x[inner]
    # the prefactor's log, added up in the scalar order, with its lgamma
    # terms computed once for each distinct (a, b); each pair's two floats
    # read as one complex a + bj, so that np.unique finds the pairs in one
    # sort
    pairs, which = np.unique(np.stack([a, b], axis=1).view(np.complex128).ravel(),
                             return_inverse=True)
    log_beta = np.array([math.lgamma(ai + bi) - math.lgamma(ai) - math.lgamma(bi)
                         for ai, bi in zip(pairs.real.tolist(), pairs.imag.tolist())])
    front = _each(math.exp, log_beta[which] + a * _each(math.log, x)
                  + b * _each(math.log1p, -x))
    swap = ~(x < (a + 1.0) / (a + b + 2.0))
    first, second = np.where(swap, b, a), np.where(swap, a, b)
    scaled = front * _beta_cf(first, second, np.where(swap, 1.0 - x, x)) / first
    out[inner] = np.where(swap, 1.0 - scaled, scaled)
    return out


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b), the regularized incomplete beta function.

    Uses the continued fraction directly when x is below the crossover
    (a+1)/(a+b+2), else the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) so the
    fraction is always evaluated on its rapidly converging side.
    """
    scalar, (a, b, x) = _floats(a, b, x)
    if ((a <= 0.0) | (b <= 0.0)).any():
        raise ValueError("incomplete beta requires positive shape parameters")
    if not ((0.0 <= x) & (x <= 1.0)).all():
        raise ValueError("incomplete beta argument must lie in [0, 1]")
    return _give(scalar, _incomplete_beta(a.ravel(), b.ravel(), x.ravel()).reshape(x.shape))


def student_t_cdf(x, df):
    """CDF of Student's t distribution with df > 0 degrees of freedom."""
    scalar, (x, df) = _floats(x, df)
    if ((df <= 0.0) | ~np.isfinite(df)).any():
        raise ValueError("degrees of freedom must be positive and finite")
    if not np.isfinite(x).all():
        raise ValueError("student_t_cdf requires a finite argument")
    shape, x, df = x.shape, x.ravel(), df.ravel()
    with np.errstate(over="ignore"):  # x * x = inf reads I_0 = 0, as in float arithmetic
        square = x * x
    # x = 0 reads I_1 = 1, so F = 0.5 on either side
    tail = 0.5 * _incomplete_beta(0.5 * df, np.full_like(df, 0.5), df / (df + square))
    return _give(scalar, np.where(x < 0.0, tail, 1.0 - tail).reshape(shape))
