"""Invariances the resampling tests' p-values owe to the mathematics.

Each data set has 3 to 10 units per arm, of one of three kinds: small
integers with ties, three-decimal floats, and one-decimal values on a
level of 1e6. Every bound below was fixed from the arithmetic before any
result was seen:

- reordering the units, swapping the arm names, and, for the rank sum, a
  strictly increasing transform of the responses leave each exact
  p-value bit for bit as it was;
- a Monte Carlo p-value of B draws is the add-one estimate (1 + h) / (B + 1)
  with h ~ Binomial(B, p), so it lies within 4 sqrt(p (1 - p) / B) of p
  plus the add-one shift 1 / (B + 1); the rank sum doubles the smaller of
  two such tails, each of variance at most min(p / 2, 1/4) / B, since the
  two tails sum to at least 1;
- an Explicit design that puts fl(1/N) on each of the N points of the
  uniform support sums h of those masses where the uniform CRD divides h
  by N once: each mass is off by at most u = 2^-53 relative, any order of
  summing h terms adds at most (h - 1) u relative, and the division u
  more, so the two differ by at most (N + 2) u p < (N + 2) 2^-52 p.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from randcompare import (
    AssignmentVector,
    ExactEngine,
    Explicit,
    MonteCarloEngine,
    ObservedExperiment,
    RngStream,
    SampleVector,
    UniformCRD,
    fisher_randomization_test,
    permutation_test,
    support_label_matrix,
    wilcoxon_test,
)

RESAMPLING = ("permutation", "wilcoxon", "fisher_rand")
BUDGET = 2000


def p_values(labels, y, engine_of=ExactEngine) -> dict:
    """Each resampling test's report on the data, the uniform CRD of its
    arm sizes for fisher_rand, each from a fresh engine_of()."""
    obs = ObservedExperiment(SampleVector.first_n(len(y)), AssignmentVector(labels), y)
    design = UniformCRD(obs.n, obs.n1)
    return {"permutation": permutation_test(obs, engine_of()),
            "wilcoxon": wilcoxon_test(obs, engine_of()),
            "fisher_rand": fisher_randomization_test(obs, design, engine_of())}


def bits(reports) -> dict:
    return {name: float(report.p_value).hex() for name, report in reports.items()}


@st.composite
def experiments(draw, most=10):
    """(labels, responses) of 3 to most units per arm, units in a random order."""
    n1, n2 = draw(st.integers(3, most)), draw(st.integers(3, most))
    n = n1 + n2
    kind = draw(st.sampled_from(("ties", "floats", "level")))
    if kind == "ties":
        values = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        y = np.array(values, dtype=float)
    elif kind == "floats":
        values = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
        y = np.array(values, dtype=float) / 1000
    else:
        values = draw(st.lists(st.integers(0, 10**4), min_size=n, max_size=n))
        y = 1e6 + np.array(values, dtype=float) / 10
    labels = np.array([1] * n1 + [2] * n2)[draw(st.permutations(range(n)))]
    return labels, y


@given(experiments(), st.data())
def test_reordering_the_units_moves_no_exact_p_value(data, draws):
    labels, y = data
    order = np.array(draws.draw(st.permutations(range(len(y)))))
    assert bits(p_values(labels[order], y[order])) == bits(p_values(labels, y))


@given(experiments())
def test_swapping_the_arm_names_moves_no_exact_p_value(data):
    labels, y = data
    assert bits(p_values(3 - labels, y)) == bits(p_values(labels, y))


@given(experiments(), st.data())
def test_rank_sum_ignores_a_strictly_increasing_transform(data, draws):
    # the transform sends the k-th smallest distinct response to the sum of
    # k positive steps, so ties stay ties and order stays order
    labels, y = data
    distinct = np.unique(y)
    steps = draws.draw(st.lists(st.integers(1, 1000), min_size=len(distinct),
                                max_size=len(distinct)))
    moved = np.cumsum(np.array(steps, dtype=float) / 8)[np.searchsorted(distinct, y)]
    assert bits(p_values(labels, moved))["wilcoxon"] == bits(p_values(labels, y))["wilcoxon"]


@given(experiments(), st.integers(0, 2**32 - 1))
def test_monte_carlo_p_value_is_near_the_exact_one(data, seed):
    labels, y = data
    exact = p_values(labels, y)
    drawn = p_values(labels, y, lambda: MonteCarloEngine(BUDGET, RngStream(seed)))
    shift = 1 / (BUDGET + 1)
    for name in RESAMPLING:
        p = exact[name].p_value
        if name == "wilcoxon":
            bound = 2 * (4 * math.sqrt(min(p / 2, 0.25) / BUDGET) + shift)
        else:
            bound = 4 * math.sqrt(p * (1 - p) / BUDGET) + shift
        assert abs(drawn[name].p_value - p) <= bound, (name, p, drawn[name].p_value)


# 3 to 7 units per arm, at most 3,432 support points: an Explicit design
# holds one AssignmentVector per point, and 10 + 10 units take seconds to build
@settings(max_examples=30)
@given(experiments(most=7))
def test_explicit_uniform_support_is_the_uniform_crd(data):
    labels, y = data
    obs = ObservedExperiment(SampleVector.first_n(len(y)), AssignmentVector(labels), y)
    crd = UniformCRD(obs.n, obs.n1)
    support, _ = support_label_matrix(crd)
    size = len(support)
    explicit = Explicit(support=tuple(support), probs=np.full(size, 1 / size))
    p = fisher_randomization_test(obs, crd, ExactEngine()).p_value
    q = fisher_randomization_test(obs, explicit, ExactEngine()).p_value
    assert abs(q - p) <= (size + 2) * 2.0**-52 * p, (p, q)
