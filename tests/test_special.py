import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randcompare import erfc, normal_cdf, regularized_incomplete_beta, student_t_cdf

from _oracles import (
    NORMAL_CDF_PROBES,
    STUDENT_T_CDF_PROBES,
    scalar_erfc,
    scalar_incomplete_beta,
    scalar_normal_cdf,
    scalar_student_t_cdf,
)


def bits(values) -> list:
    """The IEEE bit patterns of values, so that equal means bit for bit."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# the normal CDF's series/continued-fraction switch sits at (x / sqrt 2)^2 = 1.5
_SWITCH = math.sqrt(3.0)
NORMAL_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-160, 37.0, -37.0, 1e100,
                _SWITCH, -_SWITCH, math.nextafter(_SWITCH, 0.0), math.nextafter(_SWITCH, 9.0),
                math.nextafter(-_SWITCH, 0.0), math.nextafter(-_SWITCH, -9.0)]
T_EDGES = [(0.0, 3.0), (-0.0, 3.0), (1e-300, 10.0), (-5e-324, 2.0), (1e10, 4.0),
           (-1e10, 4.0), (1e200, 7.5), (40.0, 1.0), (-40.0, 0.5), (1.0, 1e6)]


class TestNormalCdf:
    @pytest.mark.parametrize("x,expected", NORMAL_CDF_PROBES)
    def test_probes(self, x, expected):
        assert abs(normal_cdf(x) - expected) <= 1e-10

    def test_symmetry_grid(self):
        for x in np.linspace(-10, 10, 201):
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_monotone_grid(self):
        grid = np.linspace(-12, 12, 481)
        vals = [normal_cdf(x) for x in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @given(st.floats(-30, 30))
    def test_range(self, x):
        assert 0.0 <= normal_cdf(x) <= 1.0


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_reflection(self):
        for x in np.linspace(-6, 6, 121):
            assert erfc(x) + erfc(-x) == pytest.approx(2.0, abs=1e-13)

    def test_against_math_erfc(self):
        # stdlib math.erfc is an independent implementation
        for x in np.linspace(-8, 8, 161):
            assert erfc(x) == pytest.approx(math.erfc(x), rel=1e-12, abs=1e-300)


class TestStudentTCdf:
    @pytest.mark.parametrize("x,df,expected", STUDENT_T_CDF_PROBES)
    def test_probes(self, x, df, expected):
        assert abs(student_t_cdf(x, df) - expected) <= 1e-8

    def test_center(self):
        for df in (0.5, 1.0, 2.0, 7.3, 100.0):
            assert student_t_cdf(0.0, df) == pytest.approx(0.5, abs=1e-14)

    def test_symmetry(self):
        for df in (1.0, 3.7, 25.0):
            for x in np.linspace(-8, 8, 49):
                total = student_t_cdf(x, df) + student_t_cdf(-x, df)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_df_one_is_cauchy(self):
        for x in np.linspace(-10, 10, 41):
            cauchy = 0.5 + math.atan(x) / math.pi
            assert student_t_cdf(x, 1.0) == pytest.approx(cauchy, abs=1e-12)

    def test_df_two_closed_form(self):
        for x in np.linspace(-10, 10, 41):
            closed = 0.5 + x / (2.0 * math.sqrt(2.0 + x * x))
            assert student_t_cdf(x, 2.0) == pytest.approx(closed, abs=1e-12)

    def test_large_df_approaches_normal(self):
        for x in np.linspace(-4, 4, 17):
            assert student_t_cdf(x, 1e6) == pytest.approx(normal_cdf(x), abs=2e-6)

    def test_monotone_in_x(self):
        grid = np.linspace(-15, 15, 121)
        vals = [student_t_cdf(x, 4.5) for x in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        for x in np.linspace(0, 1, 21):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-13
            )

    def test_reflection(self):
        for a, b in ((0.5, 4.0), (2.0, 2.0), (7.5, 1.25)):
            for x in np.linspace(0.01, 0.99, 25):
                lhs = regularized_incomplete_beta(a, b, x)
                rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_binomial_tail_identity(self):
        # I_p(k, n-k+1) = P(Bin(n, p) >= k), checked by direct summation
        n, k, p = 12, 5, 0.37
        tail = sum(
            math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1)
        )
        assert regularized_incomplete_beta(k, n - k + 1, p) == pytest.approx(
            tail, abs=1e-12
        )


@pytest.mark.parametrize("x,df,expected", STUDENT_T_CDF_PROBES[:4])
def test_live_arbitrary_precision_spotcheck(x, df, expected):
    """The frozen probes themselves, re-derived by mpmath when available."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    xm, dfm = mp.mpf(x), mp.mpf(df)
    live = mp.betainc(dfm / 2, dfm / 2, 0, (xm + mp.sqrt(xm**2 + dfm)) / (2 * mp.sqrt(xm**2 + dfm)), regularized=True)
    assert abs(float(live) - expected) <= 1e-13


class TestArrayKernelsMatchScalarOracle:
    """Each element of an array call is, bit for bit, the scalar function
    the kernels were written from (tests/_oracles.py) on that element."""

    def test_normal_probes_and_edges(self):
        x = [x for x, _ in NORMAL_CDF_PROBES] + NORMAL_EDGES
        assert bits(normal_cdf(np.array(x))) == bits([scalar_normal_cdf(v) for v in x])
        assert bits(erfc(np.array(x))) == bits([scalar_erfc(v) for v in x])

    def test_normal_grid(self):
        x = np.concatenate([np.linspace(-12.0, 12.0, 4801),
                            np.random.default_rng(3).normal(0.0, 3.0, 2000)])
        assert bits(normal_cdf(x)) == bits([scalar_normal_cdf(v) for v in x.tolist()])

    def test_t_probes_and_edges(self):
        pairs = [(x, df) for x, df, _ in STUDENT_T_CDF_PROBES] + T_EDGES
        x, df = (np.array(column) for column in zip(*pairs))
        assert bits(student_t_cdf(x, df)) == bits([scalar_student_t_cdf(*p) for p in pairs])

    @pytest.mark.parametrize("kind", ["pooled", "welch"])
    def test_t_grid(self, kind):
        # pooled tests refer t to integer df; Welch's df is fractional,
        # between about half the pooled df and all of it
        gen = np.random.default_rng(4)
        df = np.repeat(np.arange(2.0, 201.0), 25)
        if kind == "welch":
            df = df * gen.uniform(0.5, 1.0, df.size)
        x = np.abs(gen.standard_t(5, df.size)) * gen.choice([1.0, 4.0], df.size)
        want = [scalar_student_t_cdf(*p) for p in zip(x.tolist(), df.tolist())]
        assert bits(student_t_cdf(x, df)) == bits(want)

    def test_incomplete_beta_grid(self):
        gen = np.random.default_rng(5)
        a, b = gen.uniform(0.05, 60.0, (2, 3000))
        x = np.concatenate([[0.0, 1.0, 0.5], gen.uniform(0.0, 1.0, 2997)])
        want = [scalar_incomplete_beta(*v) for v in zip(a.tolist(), b.tolist(), x.tolist())]
        assert bits(regularized_incomplete_beta(a, b, x)) == bits(want)

    @given(st.lists(st.tuples(st.floats(-60, 60), st.floats(0.5, 2000)), min_size=1,
                    max_size=40), st.randoms(use_true_random=False), st.integers(0, 40))
    def test_an_element_ignores_the_others(self, pairs, order, cut):
        """Whatever the order, split or length of the array, an element's
        result is its own, as the scalar function gives it."""
        order.shuffle(pairs)
        x, df = (np.array(column) for column in zip(*pairs))
        want_t = bits([scalar_student_t_cdf(*p) for p in pairs])
        want_normal = bits([scalar_normal_cdf(v) for v in x.tolist()])
        for part in (slice(None, cut), slice(cut, None)):
            assert bits(student_t_cdf(x[part], df[part])) == want_t[part]
            assert bits(normal_cdf(x[part])) == want_normal[part]
        assert bits([student_t_cdf(*p) for p in pairs]) == want_t


def test_square_overflow_reads_the_limit():
    # x * x = inf past |x| = 1.3e154: the t CDF reads I_0 = 0 there, as it
    # always did, and erfc reads 0, where the continued fraction once
    # failed to converge
    assert [normal_cdf(1e200), normal_cdf(-1e200)] == [1.0, 0.0]
    assert [erfc(math.inf), erfc(-math.inf), erfc(1e160)] == [0.0, 2.0, 0.0]
    assert [student_t_cdf(1e200, 3.0), student_t_cdf(-1e300, 3.0)] == [1.0, 0.0]
    with pytest.raises(ArithmeticError):
        erfc(math.nan)


class TestScalarContract:
    """A scalar argument gives a Python float, as before the array kernels:
    its repr reaches the CSV and table text."""

    @pytest.mark.parametrize("value", [1.5, 2, np.float64(1.5), np.array(1.5)],
                             ids=["float", "int", "float64", "0d"])
    def test_floats_give_floats(self, value):
        for result in (normal_cdf(value), erfc(value), student_t_cdf(value, value),
                       regularized_incomplete_beta(value, value, 0.25)):
            assert type(result) is float

    def test_arrays_give_arrays(self):
        x = np.array([[0.5, -1.0], [2.0, 0.0]])
        for result in (normal_cdf(x), erfc(x), student_t_cdf(x, 3.0),
                       regularized_incomplete_beta(2.0, np.abs(x) + 1.0, 0.25)):
            assert isinstance(result, np.ndarray) and result.shape == (2, 2)
        assert student_t_cdf([0.5], [3.0]).shape == (1,)

    @pytest.mark.parametrize("call,message", [
        (lambda: normal_cdf(math.inf), "normal_cdf requires a finite argument"),
        (lambda: normal_cdf(np.array([0.0, math.nan])), "normal_cdf requires a finite argument"),
        (lambda: student_t_cdf(1.0, 0.0), "degrees of freedom must be positive and finite"),
        (lambda: student_t_cdf(1.0, math.inf), "degrees of freedom must be positive and finite"),
        (lambda: student_t_cdf([1.0, 2.0], [3.0, math.nan]),
         "degrees of freedom must be positive and finite"),
        (lambda: student_t_cdf(math.nan, 3.0), "student_t_cdf requires a finite argument"),
        (lambda: student_t_cdf(math.inf, -1.0), "degrees of freedom must be positive and finite"),
        (lambda: regularized_incomplete_beta(0.0, 1.0, 0.5),
         "incomplete beta requires positive shape parameters"),
        (lambda: regularized_incomplete_beta(1.0, -1.0, 0.5),
         "incomplete beta requires positive shape parameters"),
        (lambda: regularized_incomplete_beta(1.0, 1.0, 1.5),
         "incomplete beta argument must lie in [0, 1]"),
        (lambda: regularized_incomplete_beta(1.0, 1.0, [0.5, math.nan]),
         "incomplete beta argument must lie in [0, 1]"),
    ])
    def test_value_errors_unchanged(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_a_lentz_delta_converges_only_at_one():
    # the continued fractions test |delta - 1| < _EPS as delta == 1
    from randcompare.special import _EPS
    for neighbour in (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)):
        assert not abs(neighbour - 1.0) < _EPS
