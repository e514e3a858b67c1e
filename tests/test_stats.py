import numpy as np
import pytest
from hypothesis import given, strategies as st

from randcompare import (
    AssignmentVector,
    CensusCRD,
    DataValidationError,
    DegenerateDataError,
    DesignInvalidError,
    Explicit,
    ExplicitJoint,
    InsufficientDataError,
    ObservedExperiment,
    PotentialTable,
    SampleVector,
    UniformCRD,
    UnsupportedDesignError,
    d_statistic,
    neyman_se,
    pooled_se,
    rank_midranks,
    rank_sum_statistic,
    realized_effects,
    resolve_weights,
    sample_variance,
    select_components,
    support_label_matrix,
    welch_df,
    welch_se,
)


class TestResolveWeights:
    def test_arm_sizes(self, six_obs):
        w = resolve_weights(UniformCRD(6, 3), six_obs.sample, six_obs.assignment)
        assert np.all(w[0] == 3.0)
        assert np.all(w[1] == 3.0)

    def test_crd_inclusion_equals_arm_sizes(self):
        # under uniform CRD, n * pi(t, j) = n_t exactly, also where
        # 22 * (7 / 22) rounds away from 7
        obs = ObservedExperiment.from_arms(np.arange(7.0), np.arange(15.0))
        w = resolve_weights(UniformCRD(22, 7), obs.sample, obs.assignment)
        assert np.array_equal(w, np.repeat([[7.0], [15.0]], 22, axis=1))

    def test_census_selection_weights(self):
        obs = ObservedExperiment.from_arms([1.0, 2.0], [3.0, 4.0])
        w = resolve_weights(CensusCRD(4, 2), obs.sample, obs.assignment)
        assert np.all(w[0] == 2.0)
        assert np.all(w[1] == 2.0)

    def test_census_requires_full_population(self):
        sample = SampleVector([1, 2, 4])
        assignment = AssignmentVector([1, 2, 2])
        with pytest.raises(DesignInvalidError):
            resolve_weights(CensusCRD(4, 1), sample, assignment)

    def test_explicit_joint_weights(self):
        # unit 1 is always sampled; it gets treatment 1 w.p. 0.75
        support = (
            (SampleVector([1, 2]), AssignmentVector([1, 2])),
            (SampleVector([1, 3]), AssignmentVector([1, 2])),
            (SampleVector([1, 2]), AssignmentVector([2, 1])),
        )
        design = ExplicitJoint(
            n_population=3, support=support, probs=np.array([0.5, 0.25, 0.25])
        )
        sample = SampleVector([1, 2])
        assignment = AssignmentVector([1, 2])
        w = resolve_weights(design, sample, assignment)
        assert w[0, 0] == pytest.approx(3 * 0.75)
        assert w[1, 0] == pytest.approx(3 * 0.25)
        assert w[0, 1] == pytest.approx(3 * 0.25)
        assert w[1, 1] == pytest.approx(3 * 0.5)

    def test_zero_weight_at_observed_label(self):
        design = Explicit(support=(AssignmentVector([1, 2]),), probs=np.array([1.0]))
        sample = SampleVector([1, 2])
        observed = AssignmentVector([2, 1])  # impossible under the design
        with pytest.raises(DesignInvalidError):
            resolve_weights(design, sample, observed)

    def test_design_for_another_n(self):
        obs = ObservedExperiment.from_arms([1.0, 2.0, 3.0], [4.0, 5.0])
        with pytest.raises(DesignInvalidError, match="design is for n=6 but the data have n=5"):
            resolve_weights(UniformCRD(6, 3), obs.sample, obs.assignment)


class TestDStatistic:
    def test_equals_mean_difference_with_arm_sizes(self, six_obs):
        w = resolve_weights(UniformCRD(6, 3), six_obs.sample, six_obs.assignment)
        d = d_statistic(six_obs.responses, six_obs.assignment, w)
        assert d == pytest.approx(np.mean([3, 1, 4]) - np.mean([1, 5, 9]), abs=1e-12)

    def test_empty_arm_contributes_zero(self):
        assignment = AssignmentVector([1, 1])
        weights = np.array([[2.0, 2.0], [0.0, 0.0]])
        d = d_statistic(np.array([4.0, 6.0]), assignment, weights)
        assert d == pytest.approx(5.0, abs=1e-12)

    def test_zero_weight_on_active_term(self):
        assignment = AssignmentVector([1, 2])
        weights = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DesignInvalidError):
            d_statistic(np.array([1.0, 2.0]), assignment, weights)

    def test_misaligned(self):
        assignment = AssignmentVector([1, 2])
        with pytest.raises(DataValidationError):
            d_statistic(np.array([1.0]), assignment, np.ones((2, 2)))


def _ht_expectation(table, design):
    """E[D] over the design, with inclusion weights, by full enumeration."""
    sample = SampleVector.first_n(design.n)
    total = 0.0
    for labels, prob in zip(*support_label_matrix(design)):
        assignment = AssignmentVector(labels)
        responses = select_components(table, sample, assignment)
        w = resolve_weights(design, sample, assignment)
        total += prob * d_statistic(responses, assignment, w)
    return total


class TestHorvitzThompsonUnbiasedness:
    def test_uniform_crd(self):
        gen = np.random.default_rng(31)
        for _ in range(10):
            n = int(gen.integers(3, 8))
            n1 = int(gen.integers(1, n))
            table = PotentialTable(gen.normal(size=n), gen.normal(size=n))
            target = realized_effects(table, SampleVector.first_n(n)).aggregate_sample
            assert _ht_expectation(table, UniformCRD(n, n1)) == pytest.approx(
                target, abs=1e-10
            )

    def test_nonuniform_explicit_design(self):
        # unequal atom probabilities, every position assignable to both arms
        gen = np.random.default_rng(7)
        vectors = list(support_label_matrix(UniformCRD(4, 2))[0])
        raw = gen.uniform(0.2, 1.0, size=len(vectors))
        design = Explicit(support=tuple(vectors), probs=raw / raw.sum())
        table = PotentialTable(gen.normal(size=4), gen.normal(size=4))
        target = realized_effects(table, SampleVector.first_n(4)).aggregate_sample
        assert _ht_expectation(table, design) == pytest.approx(target, abs=1e-10)

    def test_varying_arm_size_design(self):
        # mix C(4,1) and C(4,3) atoms: arm sizes differ across the support
        gen = np.random.default_rng(13)
        vectors = list(support_label_matrix(UniformCRD(4, 1))[0])
        vectors += list(support_label_matrix(UniformCRD(4, 3))[0])
        raw = gen.uniform(0.2, 1.0, size=len(vectors))
        design = Explicit(support=tuple(vectors), probs=raw / raw.sum())
        table = PotentialTable(gen.normal(size=4), gen.normal(size=4))
        target = realized_effects(table, SampleVector.first_n(4)).aggregate_sample
        assert _ht_expectation(table, design) == pytest.approx(target, abs=1e-10)


class TestRanks:
    def test_hand_case(self):
        ranks = rank_midranks(np.array([3.0, 1.0, 4.0, 1.0, 5.0]))
        assert list(ranks) == [3.0, 1.5, 4.0, 1.5, 5.0]

    def test_all_tied(self):
        ranks = rank_midranks(np.array([2.0, 2.0, 2.0]))
        assert list(ranks) == [2.0, 2.0, 2.0]

    def test_no_ties_is_ordering(self):
        values = np.array([10.0, -3.0, 2.5, 7.0])
        assert list(rank_midranks(values)) == [4.0, 1.0, 2.0, 3.0]

    def test_monotone_invariance(self):
        gen = np.random.default_rng(3)
        values = gen.integers(0, 5, size=12).astype(float)
        assert np.array_equal(rank_midranks(values), rank_midranks(np.exp(values)))

    @given(
        st.lists(
            st.integers(-5, 5).map(float), min_size=1, max_size=30
        )
    )
    def test_midranks_sum(self, values):
        n = len(values)
        assert rank_midranks(np.array(values)).sum() == pytest.approx(
            n * (n + 1) / 2, abs=1e-9
        )

    def test_rank_sum(self, six_obs):
        ranks = rank_midranks(six_obs.responses)
        w = rank_sum_statistic(ranks, six_obs.assignment)
        # responses (3,1,4 | 1,5,9): midranks (3, 1.5, 4 | 1.5, 5, 6)
        assert w == pytest.approx(8.5, abs=1e-12)


class TestStandardErrors:
    def test_sample_variance_guard(self):
        with pytest.raises(InsufficientDataError):
            sample_variance(np.array([1.0]))
        assert sample_variance(np.array([1.0, 3.0])) == pytest.approx(2.0)
        assert sample_variance(np.array([1.0, 3.0]), ddof=0) == pytest.approx(1.0)

    def test_welch_pooled_equal_when_balanced(self):
        # with n1 = n2 the two SE formulas coincide
        assert welch_se(4.0, 10, 9.0, 10) == pytest.approx(pooled_se(4.0, 10, 9.0, 10))

    def test_welch_df_hand_value(self):
        assert welch_df(1.0, 5, 9.0, 15) == pytest.approx(17.92, abs=1e-12)

    def test_welch_df_equal_variances(self):
        assert welch_df(2.0, 8, 2.0, 8) == pytest.approx(14.0, abs=1e-9)

    def test_welch_df_degenerate(self):
        with pytest.raises(DegenerateDataError):
            welch_df(0.0, 5, 0.0, 5)
        with pytest.raises(InsufficientDataError):
            welch_df(1.0, 1, 1.0, 5)

    def test_divisor_split_identity(self):
        # the variance-bound SE uses divide-by-n arm variances; the t tests
        # use divide-by-(n-1): nse^2 = s1^2 (n1-1)/n1^2 + s2^2 (n2-1)/n2^2
        gen = np.random.default_rng(17)
        for _ in range(10):
            n1 = int(gen.integers(2, 9))
            n2 = int(gen.integers(2, 9))
            obs = ObservedExperiment.from_arms(
                gen.normal(size=n1), gen.normal(size=n2)
            )
            nse = neyman_se(obs, UniformCRD(n1 + n2, n1))
            s1 = sample_variance(obs.arm_responses(1))
            s2 = sample_variance(obs.arm_responses(2))
            expected = np.sqrt(
                s1 * (n1 - 1) / n1**2 + s2 * (n2 - 1) / n2**2
            )
            assert nse == pytest.approx(expected, rel=1e-12)
            assert nse < welch_se(s1, n1, s2, n2)

    def test_neyman_se_requires_uniform_crd(self, six_obs):
        design = Explicit(
            support=tuple(support_label_matrix(UniformCRD(6, 3))[0]),
            probs=np.full(20, 1 / 20),
        )
        with pytest.raises(UnsupportedDesignError):
            neyman_se(six_obs, design)

    def test_neyman_se_design_mismatch(self, six_obs):
        with pytest.raises(DesignInvalidError):
            neyman_se(six_obs, UniformCRD(6, 2))
