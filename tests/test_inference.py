import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import uniform_crd_tails_by_fractions
from randcompare import (
    AssignmentVector,
    CensusCRD,
    DataValidationError,
    DegenerateDataError,
    EnumerationTooLargeError,
    ExactEngine,
    Explicit,
    ExplicitJoint,
    Hypothesis,
    InsufficientDataError,
    MonteCarloEngine,
    NoncomputableDistributionError,
    ObservedExperiment,
    RngStream,
    SampleVector,
    TestReport as Report,
    UniformCRD,
    UnsupportedDesignError,
    add_one_pvalue,
    d_statistic,
    explicit_from_json,
    fisher_exact_2x2,
    fisher_randomization_test,
    fisher_selection_test,
    neyman_randomization_test,
    neyman_se,
    neyman_selection_test,
    permutation_test,
    pooled_t_test,
    sample_variance,
    support_label_matrix,
    welch_t_test,
    wilcoxon_test,
)
import randcompare.cli
from randcompare.designs import sample_assignment_batch, scan_tails
from randcompare.inference import (
    STOP_CHUNK,
    TESTS,
    fisher_randomization_plan,
    permutation_plan,
    run_resampling_plans,
    run_tests,
    wilcoxon_plan,
)
from randcompare.simulation import DEFAULT_TEST_SUITE


def random_instance(gen, n_lo=4, n_hi=9):
    n = int(gen.integers(n_lo, n_hi))
    n1 = int(gen.integers(1, n))
    labels = np.full(n, 2, np.int8)
    labels[gen.permutation(n)[:n1]] = 1
    return ObservedExperiment(
        SampleVector(np.arange(1, n + 1)),
        AssignmentVector(labels),
        gen.normal(size=n).round(3),
    )


class TestEngines:
    def test_mc_budget_floor(self):
        with pytest.raises(DataValidationError):
            MonteCarloEngine(999, RngStream(0))

    def test_kernel_add_one_rule(self):
        # a constant zero statistic: |0| never reaches 5, and always reaches 0
        never, always = MonteCarloEngine(2000, RngStream(1)).tails(
            UniformCRD(6, 3),
            [(np.zeros(6), 0.0, 5.0), (np.zeros(6), 0.0, 0.0)],
        )
        assert never[0] == 0
        p, se = add_one_pvalue(never[0], 2000)
        assert p == pytest.approx(1 / 2001)
        assert always[0] == 2000
        p, se = add_one_pvalue(always[0], 2000)
        assert p == 1.0
        assert se == 0.0

    def test_kernel_stderr(self):
        # unit 1 lands in arm 1 in about half of the draws
        [[hits, upper, lower]] = MonteCarloEngine(10000, RngStream(2)).tails(
            UniformCRD(2, 1), [(np.array([1.0, 0.0]), 0.0, 1.0)],
        )
        p, se = add_one_pvalue(hits, 10000)
        assert se == pytest.approx(math.sqrt(p * (1 - p) / 10000))
        assert abs(p - 0.5) < 5 * se
        assert upper == hits and lower == 10000

    def test_kernel_counts_the_streams_batches(self):
        # budget above one chunk: the counts are those of the chunks the
        # design draws from rng.generator(), in order
        design = UniformCRD(8, 4)
        coef = np.arange(8.0)
        gen = RngStream(3).generator()
        stats = np.concatenate([
            (sample_assignment_batch(design, size, gen) == 1) @ coef
            for size in (100_000, 20_000)
        ])
        [tails] = MonteCarloEngine(120_000, RngStream(3)).tails(design, [(coef, 0.0, 17.0)])
        assert tails == [
            np.count_nonzero(np.abs(stats) >= 17.0 * (1 - 1e-9)),
            np.count_nonzero(stats >= 17.0 - 1.7e-8),
            np.count_nonzero(stats <= 17.0 + 1.7e-8),
        ]

    def test_kernel_columns_share_one_batch(self, six_obs):
        design = UniformCRD(6, 3)
        columns = [(six_obs.responses, 0.0, 10.0), (np.arange(6.0), -1.0, 4.0)]
        together = MonteCarloEngine(5000, RngStream(4)).tails(design, columns)
        alone = [MonteCarloEngine(5000, RngStream(4)).tails(design, [c])[0]
                 for c in columns]
        assert together == alone

    def test_kernel_holds_one_chunk_at_a_time(self):
        # a chunk is STOP_CHUNK float64 indicator rows of n = 64 units;
        # scored before the next is drawn, two chunks are never alive at once
        design, coef = UniformCRD(64, 32), np.arange(64.0)
        columns = [(coef, 0.0, 1000.0), (-coef, 1.0, 900.0)]
        engine = MonteCarloEngine(20 * STOP_CHUNK, RngStream(0))
        tracemalloc.start()
        try:
            engine.tails(design, columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * STOP_CHUNK * 64 * 8

    # 1000 is the smallest budget; 1024 and 1025 end on and one row past a
    # chunk, 9192 and 20,000 within one
    @pytest.mark.parametrize("budget", (1000, 1024, 1025, 9192, 20_000))
    @pytest.mark.parametrize("design", [UniformCRD(8, 3), Explicit(
        support=tuple(AssignmentVector(labels) for labels in
                      ([1, 1, 1, 2, 2, 2, 2, 2], [2, 2, 1, 1, 2, 1, 2, 2],
                       [2, 1, 2, 2, 1, 2, 1, 2], [1, 2, 2, 2, 2, 2, 1, 1])),
        probs=np.array([0.4, 0.3, 0.2, 0.1]))], ids=["crd", "explicit"])
    def test_kernel_chunks_are_one_batch(self, drawn_rows, design, budget):
        # the counts of the chunks drawn one after another from the stream
        # are those of one batch of the whole budget drawn from it
        gen = np.random.default_rng(7)
        columns = [(gen.normal(size=8), -0.5, 0.3), (np.arange(8.0), 0.0, 12.0)]
        counts = MonteCarloEngine(budget, RngStream(11)).tails(design, columns)
        assert sum(drawn_rows) == budget and max(drawn_rows) <= STOP_CHUNK
        bounded = [(coef, offset, design.tie_bounds(coef, offset, observed))
                   for coef, offset, observed in columns]
        batch = design.sample_batch(budget, RngStream(11).generator())
        assert counts == scan_tails(batch, bounded)

    def test_kernel_exact_masses(self, tiny_obs):
        # arm-1 sums of (1,2,3,4) over the 6 splits: 3,4,5,5,6,7; each tail
        # holds 4 of the 6
        engine, design = ExactEngine(), UniformCRD(4, 2)
        [tails] = engine.tails(design, [(tiny_obs.responses, 0.0, 5.0)])
        assert (tails, engine.denominator(design)) == ([4, 4, 4], 6)

    def test_kernel_budget_must_be_positive(self):
        for budget in (0, 999):
            with pytest.raises(DataValidationError, match=">= 1000"):
                MonteCarloEngine(budget, RngStream(0)).tails(
                    UniformCRD(4, 2), [(np.ones(4), 0.0, 1.0)])

    def test_report_validates_p(self):
        with pytest.raises(DataValidationError):
            Report("x", Hypothesis.DUP, 0.0, 1.5, "exact", None, (), 1, 1)


STOP_BUDGETS = (1000, 4000, 10_000, 100_000)


def stop_alphas(budget):
    """The levels each stop rule is checked at: below the smallest add-one
    p-value, at it, the usual ones, and 1."""
    return (1 / (budget + 2), 1 / (budget + 1), 0.01, 0.05, 0.1, 0.5, 1.0)


class TestStopRule:
    """The harness's lazy decisions, ResamplingPlan.rejection_bound and
    stop_rule, against brute force over the report's own p-values."""

    @pytest.mark.parametrize("budget", STOP_BUDGETS)
    def test_bounds_match_a_scan_of_every_count(self, six_obs, budget):
        for plan in (permutation_plan(six_obs), wilcoxon_plan(six_obs)):
            p = [plan.report([h, h, h], budget, "monte_carlo").p_value
                 for h in range(budget + 1)]
            for alpha in stop_alphas(budget):
                expected = max((h for h, value in enumerate(p) if value <= alpha), default=-1)
                assert plan.rejection_bound(alpha, budget) == expected, (plan.test, alpha)

    def test_decided_when_every_reachable_count_agrees(self, six_obs):
        # a plan is decided when each count it can still reach gives the
        # same decision; the rank sum reads its smaller tail, either one
        budget = 1000
        for plan in (permutation_plan(six_obs), wilcoxon_plan(six_obs)):
            for alpha in stop_alphas(budget):
                decided = plan.stop_rule(alpha, budget)
                bound = plan.rejection_bound(alpha, budget)
                for drawn in (0, 1, 500, 999, 1000):
                    left = budget - drawn
                    for count in {0, drawn, bound - left - 1, bound - left, bound - left + 1,
                                  bound, bound + 1}:
                        if not 0 <= count <= drawn:
                            continue
                        reachable = {
                            plan.report([k, k, k], budget, "monte_carlo").p_value <= alpha
                            for k in range(count, count + left + 1)}
                        if plan.test == "wilcoxon":
                            layouts = ([drawn, count, drawn], [drawn, drawn, count])
                        else:
                            layouts = ([count, drawn - count, drawn],)
                        for tails in layouts:
                            assert decided(tails, drawn) == (len(reachable) == 1), (
                                plan.test, alpha, drawn, tails)

    @pytest.mark.parametrize("seed", range(3))
    def test_stopped_decisions_are_the_full_budgets(self, seed):
        gen = np.random.default_rng(seed)
        for _ in range(8):
            observed = random_instance(gen, 10, 24)
            design = UniformCRD(observed.n, observed.n1)
            plans = [permutation_plan(observed), wilcoxon_plan(observed),
                     fisher_randomization_plan(observed, design)]
            full = run_resampling_plans(plans, MonteCarloEngine(2000, RngStream(seed)))
            alphas = (1 / 2002, 1 / 2001, 0.01, 0.05, 0.5, *(r.p_value for r in full))
            for alpha in alphas:
                lazy = run_resampling_plans(plans, MonteCarloEngine(2000, RngStream(seed)),
                                            alpha)
                assert [r.p_value <= alpha for r in lazy] == [r.p_value <= alpha
                                                              for r in full], alpha

    def test_kernel_without_a_rule_draws_its_budget(self, drawn_rows, six_obs):
        engine = MonteCarloEngine(9192, RngStream(9))
        run_resampling_plans([permutation_plan(six_obs)], engine)
        assert sum(drawn_rows) == 9192 and max(drawn_rows) <= STOP_CHUNK


class TestPermutation:
    def test_exact_hand_case(self, tiny_obs):
        # responses (1,2 | 3,4): |mean diff| >= 2 for 2 of the 6 splits
        report = permutation_test(tiny_obs, ExactEngine())
        assert report.p_value == pytest.approx(1 / 3, abs=1e-15)
        assert report.statistic == pytest.approx(-2.0)
        assert report.hypothesis is Hypothesis.DUP
        assert report.assumptions == ("A1", "A2", "A3")
        assert report.p_value_kind == "exact"
        assert report.mc_stderr is None

    def test_single_arm_rejected(self):
        obs = ObservedExperiment(
            SampleVector([1, 2]), AssignmentVector([1, 1]), np.array([1.0, 2.0])
        )
        with pytest.raises(InsufficientDataError):
            permutation_test(obs, ExactEngine())

    def test_mc_matches_exact(self, six_obs):
        exact = permutation_test(six_obs, ExactEngine()).p_value
        report = permutation_test(six_obs, MonteCarloEngine(20000, RngStream(5)))
        assert report.p_value_kind == "monte_carlo"
        assert abs(report.p_value - exact) <= 3 * report.mc_stderr + 1e-12

    def test_mc_deterministic(self, six_obs):
        a = permutation_test(six_obs, MonteCarloEngine(5000, RngStream(9))).p_value
        b = permutation_test(six_obs, MonteCarloEngine(5000, RngStream(9))).p_value
        assert a == b

    @given(st.integers(0, 2**32 - 1))
    def test_exact_p_is_support_rational(self, seed):
        gen = np.random.default_rng(seed)
        obs = random_instance(gen, 4, 8)
        if obs.n1 == 0 or obs.n2 == 0:
            return
        p = permutation_test(obs, ExactEngine()).p_value
        m = math.comb(obs.n, obs.n1)
        assert 0.0 < p <= 1.0
        k = p * m
        assert abs(k - round(k)) < 1e-6
        assert round(k) >= 1  # the observed split always lands in its own tail


class TestDegenerateExactReports:
    """An exact tail spanning the whole support is M / M, so exactly 1."""

    @pytest.mark.parametrize("n1, n2", [(10, 10), (12, 7)])
    def test_constant_responses(self, n1, n2):
        observed = ObservedExperiment.from_arms([3.0] * n1, [3.0] * n2)
        design = UniformCRD(n1 + n2, n1)
        reports = [permutation_test(observed, ExactEngine()),
                   wilcoxon_test(observed, ExactEngine()),
                   fisher_randomization_test(observed, design, ExactEngine())]
        for report in reports:
            assert report.degenerate
            assert report.p_value == 1.0

    @pytest.mark.parametrize("arm1, arm2", [
        ([0, 10, 1, 9, 2, 8, 3, 7, 4, 6], [5, 5, 0, 10, 3, 7, 1, 9, 2, 8]),
        ([0, 10, 1, 9, 2, 8, 3, 7, 4, 6, 5, 5], [5, 0, 10, 2, 8, 4, 6]),
    ], ids=["10+10", "12+7"])
    def test_zero_difference(self, arm1, arm2):
        # equal arm means in exact arithmetic, on a 0.1 grid
        observed = ObservedExperiment.from_arms(np.array(arm1) / 10, np.array(arm2) / 10)
        design = UniformCRD(observed.n, observed.n1)
        assert permutation_test(observed, ExactEngine()).p_value == 1.0
        assert fisher_randomization_test(observed, design, ExactEngine()).p_value == 1.0


class TestShiftInvariance:
    """Under a uniform CRD a common shift of the responses, or a scale by a
    power of two, changes no resampling p-value on either engine; the
    reported statistic is still D of the data as given. The scales here
    stay within 2^-16..2^16 of integer responses up to 10;
    TestScaleFreeTies takes them to 2^-60..2^60."""

    @staticmethod
    def draw(data):
        n1, n2 = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        # a narrow range of values, so that many assignments tie with the
        # observed one
        y = data.draw(st.lists(st.integers(-10, 10), min_size=n1 + n2, max_size=n1 + n2))
        labels = np.array(data.draw(st.permutations([1] * n1 + [2] * n2)), dtype=np.int8)
        return np.array(y, dtype=float), labels, data.draw(st.integers(0, 2**32 - 1))

    @staticmethod
    def reports(y, labels, seed) -> list:
        observed = ObservedExperiment(SampleVector.first_n(len(y)), AssignmentVector(labels), y)
        design = UniformCRD(len(y), int(np.sum(labels == 1)))
        return [test(observed, engine)
                for engine in (ExactEngine(), MonteCarloEngine(1000, RngStream(seed)))
                for test in (permutation_test, wilcoxon_test,
                             lambda obs, e: fisher_randomization_test(obs, design, e))]

    @given(st.data())
    def test_shift(self, data):
        y, labels, seed = self.draw(data)
        c = data.draw(st.integers(-10, 10)) * 10 ** data.draw(st.integers(0, 8))
        shifted = self.reports(y + c, labels, seed)
        assert [r.p_value for r in shifted] == [r.p_value for r in self.reports(y, labels, seed)]
        means = y[labels == 1].mean() - y[labels == 2].mean()
        assert shifted[0].statistic == pytest.approx(means, abs=1e-6)

    @given(st.data())
    def test_power_of_two_scale(self, data):
        y, labels, seed = self.draw(data)
        scale = 2.0 ** data.draw(st.integers(-16, 16))
        assert [r.p_value for r in self.reports(scale * y, labels, seed)] == [
            r.p_value for r in self.reports(y, labels, seed)]


def experiment(y, labels) -> ObservedExperiment:
    return ObservedExperiment(SampleVector.first_n(len(y)), AssignmentVector(labels),
                              np.asarray(y, dtype=float))


class TestScaleFreeTies:
    """The tie rule's tolerance is a bound on the rounding of the sums
    behind the statistics, taken from the column (design.tie_bounds): it
    scales with the data, catches every exact tie and separates the
    distinct statistics of integer data wherever float64 can."""

    @given(st.data())
    def test_power_of_two_scale_up_to_2_to_the_60(self, data):
        n = data.draw(st.integers(3, 12))
        n1 = data.draw(st.integers(1, n - 1))
        y = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)), float)
        labels = np.array(data.draw(st.permutations([1] * n1 + [2] * (n - n1))), np.int8)
        scale = 2.0 ** data.draw(st.integers(-60, 60))
        assert [r.p_value for r in TestShiftInvariance.reports(scale * y, labels, 5)] == [
            r.p_value for r in TestShiftInvariance.reports(y, labels, 5)]

    @given(st.data())
    def test_large_levels_and_wide_spreads_match_the_fractions(self, data):
        """Integer data with some units on a level of 1e3..1e12, where a
        tolerance relative to |D| merged distinct statistics."""
        n = data.draw(st.integers(3, 10))
        n1 = data.draw(st.integers(1, n - 1))
        level = data.draw(st.integers(10**3, 10**12))
        small = st.integers(-5, 5)
        y = np.array(data.draw(st.lists(st.one_of(small, small.map(lambda v: v + level)),
                                        min_size=n, max_size=n)), float)
        labels = np.array(data.draw(st.permutations([1] * n1 + [2] * (n - n1))), np.int8)
        observed = experiment(y, labels)
        difference, ranks = uniform_crd_tails_by_fractions(y, labels)
        assert permutation_test(observed, ExactEngine()).p_value == difference[0]
        assert wilcoxon_test(observed, ExactEngine()).p_value == min(
            1.0, 2 * min(ranks[1], ranks[2]))

    def test_a_small_gap_on_a_large_level(self):
        # D is 1e10 + 1.5 at unit 3's assignment, 1e10 - 1.5 at unit 2's
        # and -2e10 at unit 1's: two of three are as extreme
        observed = experiment([0.0, 1e10, 1e10 + 1], [2, 2, 1])
        assert permutation_test(observed, ExactEngine()).p_value == 2 / 3

    @pytest.mark.parametrize("j", [0, 24, 40])
    def test_rounding_noise_of_a_zero_difference_stays_a_tie(self, j):
        # D is 0 in exact arithmetic; at 2^24 its rounding was 1.5e-8, past
        # an absolute tolerance of 1e-9
        labels = np.full(8, 2, np.int8)
        labels[3] = 1
        observed = experiment(2.0**j * np.array([1, -20, -29, 5, 49, 11, 12, 11]), labels)
        assert permutation_test(observed, ExactEngine()).p_value == 1.0
        assert permutation_test(observed, MonteCarloEngine(1000, RngStream(0))).p_value == 1.0

    @pytest.mark.parametrize("arm", [1, 2])
    def test_one_unit_alone_at_n_20000_is_ranked_exactly(self, arm):
        """With unit i alone in an arm, |D| is n / (n - 1) times |y_i - mean|,
        so the exact p is the share of units at least as far from the mean,
        decided here in rational arithmetic. Units in the 20 closest pairs
        are tested: a tolerance that grows like n * sum(|coef|) merges them."""
        n = 20_000
        y = np.random.default_rng(20_000).normal(size=n)
        mean = sum(map(Fraction, y.tolist())) / n
        spread = np.abs(y - float(mean))
        order = np.argsort(spread)
        closest = np.argsort(np.diff(spread[order]))[:20]
        engine = ExactEngine()
        for i in set(order[closest]) | set(order[closest + 1]):
            # float spreads decide every unit but those within 1e-9 of unit i's
            near = np.flatnonzero(np.abs(spread - spread[i]) <= 1e-9 * spread[i])
            at_least = np.count_nonzero(spread > spread[i] * (1 + 1e-9)) + sum(
                abs(Fraction(y[j]) - mean) >= abs(Fraction(y[i]) - mean) for j in near)
            labels = np.full(n, 3 - arm, np.int8)
            labels[i] = arm
            assert permutation_test(experiment(y, labels), engine).p_value == at_least / n

    def test_mixed_signs_at_2000_choose_2(self):
        # with units {i, j} in arm 1, 2 * 1998 * D = 2000 (y_i + y_j) - 2 sum(y)
        gen = np.random.default_rng(2000)
        i, j = np.triu_indices(2000, 1)
        for scale in (1, 10**8):
            y = gen.integers(-1000, 1001, size=2000) * scale
            ones = gen.choice(2000, 2, replace=False)
            labels = np.full(2000, 2, np.int8)
            labels[ones] = 1
            key = np.abs(1000 * (y[i] + y[j]) - y.sum())
            at_least = np.count_nonzero(key >= abs(1000 * y[ones].sum() - y.sum()))
            p = permutation_test(experiment(y, labels), ExactEngine()).p_value
            assert p == at_least / math.comb(2000, 2)


class TestWilcoxon:
    def test_exact_hand_case(self, tiny_obs):
        # rank sums over splits of (1,2,3,4): doubled lower tail of W=3 is 1/3
        report = wilcoxon_test(tiny_obs, ExactEngine())
        assert report.p_value == pytest.approx(1 / 3, abs=1e-15)
        assert report.statistic == pytest.approx(3.0)
        assert report.assumptions == ("A1", "A2", "A3", "A4")

    def test_tied_data_uses_midranks(self):
        obs = ObservedExperiment.from_arms([1.0, 1.0, 2.0], [1.0, 2.0, 2.0])
        report = wilcoxon_test(obs, ExactEngine())
        assert 0.0 < report.p_value <= 1.0

    def test_doubled_tail_capped(self):
        obs = ObservedExperiment.from_arms([1.0, 4.0], [2.0, 3.0])
        assert wilcoxon_test(obs, ExactEngine()).p_value == 1.0


class TestTTests:
    def test_welch_cellphone(self, cellphone):
        report = welch_t_test(cellphone.observed)
        assert report.statistic == pytest.approx(2.630705975455834, abs=1e-12)
        assert report.p_value == pytest.approx(0.010952788264724234, abs=1e-12)
        assert report.hypothesis is Hypothesis.EUP
        assert report.assumptions == ("A1", "A2", "A3", "A5")
        assert report.p_value_kind == "asymptotic"

    def test_pooled_cellphone(self, cellphone):
        report = pooled_t_test(cellphone.observed)
        assert report.statistic == pytest.approx(2.630705975455834, abs=1e-12)
        assert report.p_value == pytest.approx(0.010734983267845388, abs=1e-12)
        assert report.assumptions == ("A1", "A2", "A3", "A6")

    def test_balanced_statistics_coincide(self):
        gen = np.random.default_rng(23)
        obs = ObservedExperiment.from_arms(gen.normal(size=8), gen.normal(size=8))
        assert welch_t_test(obs).statistic == pytest.approx(
            pooled_t_test(obs).statistic, rel=1e-12
        )

    def test_constant_data_degenerate(self):
        obs = ObservedExperiment.from_arms([2.0, 2.0], [2.0, 2.0])
        with pytest.raises(DegenerateDataError):
            welch_t_test(obs)

    def test_constant_data_with_rounded_variance_is_degenerate(self):
        # three copies of 0.1 have a float variance near 1e-34, not 0, so the
        # studentized tests report; like every other test, they flag the data
        obs = ObservedExperiment.from_arms([0.1] * 3, [0.1] * 3)
        assert sample_variance(obs.arm_responses(1)) > 0.0
        reports = [welch_t_test(obs), pooled_t_test(obs),
                   neyman_randomization_test(obs, UniformCRD(6, 3)),
                   permutation_test(obs, ExactEngine())]
        assert [report.degenerate for report in reports] == [True] * 4

    def test_small_arm_rejected(self):
        obs = ObservedExperiment.from_arms([1.0], [2.0, 3.0])
        with pytest.raises(InsufficientDataError):
            welch_t_test(obs)

    def test_p_consistent_with_cdf(self):
        from randcompare import student_t_cdf, welch_df

        obs = ObservedExperiment.from_arms([1.0, 2.0, 3.0], [4.0, 5.0, 7.0])
        report = welch_t_test(obs)
        df = welch_df(1.0, 3, 7 / 3, 3)
        expected = 2.0 * (1.0 - student_t_cdf(abs(report.statistic), df))
        assert report.p_value == pytest.approx(expected, abs=1e-14)


class TestHugeResponses:
    """Finite responses whose arm moments or statistic overflow: each
    closed-form test refuses them with a DataValidationError that names
    the quantity, where the t tests once crashed or read p = 1."""

    TESTS = {"welch": welch_t_test, "pooled": pooled_t_test,
             "neyman": lambda obs: neyman_randomization_test(obs, UniformCRD(6, 3))}

    @pytest.mark.parametrize("name", TESTS)
    def test_variance_overflow(self, name):
        obs = ObservedExperiment.from_arms([1e308, -1e308, 1e308], [1.0, 2.0, 3.0])
        with pytest.raises(DataValidationError, match="the standard error is not finite"):
            self.TESTS[name](obs)

    @pytest.mark.parametrize("name", ["pooled", "neyman"])
    def test_statistic_overflow(self, name):
        obs = ObservedExperiment.from_arms([0.0, 1e-150, 2e-150], [1e300] * 3)
        with pytest.raises(DataValidationError, match="the statistic is not finite"):
            self.TESTS[name](obs)

    def test_welch_statistic_overflow(self):
        obs = ObservedExperiment.from_arms([0.0, 1e-150, 2e-150], [1e300] * 3)
        with pytest.raises(DataValidationError, match="the statistic is not finite"):
            welch_t_test(obs)

    def test_huge_finite_statistic(self):
        # t near 2e200: its square overflows in the CDF, which reads the limit
        obs = ObservedExperiment.from_arms([0.0, 1e-100, 2e-100], [1e100] * 3)
        for name in ("pooled", "neyman"):
            report = self.TESTS[name](obs)
            assert abs(report.statistic) > 1e154 and report.p_value == 0.0, name

    @pytest.mark.parametrize("engine", [ExactEngine(), MonteCarloEngine(1000, RngStream(3))],
                             ids=["exact", "mc"])
    @pytest.mark.parametrize("arms, quantity", [
        (([1e308, -1e308, 1e308], [1.0, 2.0, 3.0]), "range of the resampled statistic"),
        (([1e308] * 3, [-1e308] * 3), "statistic"),
    ], ids=["sums", "statistic"])
    @pytest.mark.parametrize("test", ["permutation", "fisher_rand"])
    def test_resampling_overflow(self, test, arms, quantity, engine):
        # the sums the tail counter forms would overflow: once read as p = 1
        obs = ObservedExperiment.from_arms(*arms)
        with pytest.raises(DataValidationError, match=f"^the {quantity} is not finite: "
                                                      "the responses are too large"):
            if test == "permutation":
                permutation_test(obs, engine)
            else:
                fisher_randomization_test(obs, UniformCRD(6, 3), engine)

    def test_welch_df_overflow(self):
        # a finite variance near 1e300: the se is finite, the df's square is not
        obs = ObservedExperiment.from_arms([1e150, -1e150, 0.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataValidationError, match="the degrees of freedom is not finite"):
            welch_t_test(obs)
        assert pooled_t_test(obs).p_value == 1.0


class TestFisherRandomization:
    def test_exact_equals_permutation(self):
        gen = np.random.default_rng(101)
        for _ in range(25):
            obs = random_instance(gen)
            design = UniformCRD(obs.n, obs.n1)
            p_perm = permutation_test(obs, ExactEngine()).p_value
            p_fisher = fisher_randomization_test(obs, design, ExactEngine()).p_value
            assert p_perm == p_fisher

    def test_mc_identical_to_permutation_same_stream(self, cellphone):
        obs = cellphone.observed
        design = UniformCRD(obs.n, obs.n1)
        p1 = permutation_test(obs, MonteCarloEngine(50000, RngStream(7))).p_value
        p2 = fisher_randomization_test(
            obs, design, MonteCarloEngine(50000, RngStream(7))
        ).p_value
        assert p1 == p2

    @given(st.integers(22, 60), st.data())
    def test_plan_equals_permutation_plan_bit_for_bit(self, n, data):
        # the uniform CRD's weights are its arm sizes, so the two plans
        # agree at every arm size, not only where n * (n1 / n) == n1
        n1 = data.draw(st.integers(1, n - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        gen = np.random.default_rng(seed)
        labels = np.full(n, 2, np.int8)
        labels[gen.permutation(n)[:n1]] = 1
        obs = ObservedExperiment(
            SampleVector.first_n(n), AssignmentVector(labels), gen.normal(size=n).round(3)
        )
        perm = permutation_plan(obs)
        fisher = fisher_randomization_plan(obs, UniformCRD(n, n1))
        assert np.array_equal(perm.coef, fisher.coef)
        assert (perm.offset, perm.statistic) == (fisher.offset, fisher.statistic)
        p_perm, p_fisher = (
            run_resampling_plans([plan], MonteCarloEngine(1000, RngStream(seed)))[0].p_value
            for plan in (perm, fisher)
        )
        assert p_perm == p_fisher

    def test_report_fields(self, six_obs):
        report = fisher_randomization_test(six_obs, UniformCRD(6, 3), ExactEngine())
        assert report.hypothesis is Hypothesis.RUs
        assert report.assumptions == ("B1", "B2")
        assert report.test == "fisher_rand"

    def test_design_must_match_observed_arms(self, six_obs):
        from randcompare import DesignInvalidError

        with pytest.raises(DesignInvalidError):
            fisher_randomization_test(six_obs, UniformCRD(6, 2), ExactEngine())

    def test_observed_must_be_in_explicit_support(self):
        from randcompare import DesignInvalidError

        obs = ObservedExperiment(
            SampleVector([1, 2, 3, 4]),
            AssignmentVector([1, 2, 1, 2]),
            np.array([1.0, 3.0, 2.0, 4.0]),
        )
        design = Explicit(
            support=(AssignmentVector([1, 1, 2, 2]), AssignmentVector([2, 2, 1, 1])),
            probs=np.array([0.5, 0.5]),
        )
        with pytest.raises(DesignInvalidError):
            fisher_randomization_test(obs, design, ExactEngine())

    @pytest.mark.parametrize("engine", [ExactEngine(), MonteCarloEngine(2000, RngStream(5))])
    def test_equal_explicit_designs_share_one_kernel_call(self, monkeypatch, six_obs, engine):
        doc = {"support": [[1, 1, 1, 2, 2, 2], [2, 2, 2, 1, 1, 1], [1, 2, 1, 2, 1, 2]],
               "probs": [0.5, 0.3, 0.2]}
        first, second = explicit_from_json(doc), explicit_from_json(doc)
        alone = [run_resampling_plans([fisher_randomization_plan(six_obs, d)], engine)[0]
                 for d in (first, second)]
        calls = []
        kernel = type(engine).tails

        def counting(self, design, columns):
            calls.append(design)
            return kernel(self, design, columns)

        monkeypatch.setattr(type(engine), "tails", counting)
        plans = [fisher_randomization_plan(six_obs, d) for d in (first, second)]
        together = run_resampling_plans(plans, engine)
        assert len(calls) == 1
        assert together == alone

    def test_nonuniform_explicit_design_changes_p(self):
        # same data, same support; tilting the atom probabilities moves p
        obs = ObservedExperiment.from_arms([1.0, 2.0], [3.0, 4.0])
        vectors = tuple(support_label_matrix(UniformCRD(4, 2))[0])
        uniform = Explicit(support=vectors, probs=np.full(6, 1 / 6))
        tilted_probs = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        tilted = Explicit(support=vectors, probs=tilted_probs)
        p_u = fisher_randomization_test(obs, uniform, ExactEngine()).p_value
        p_t = fisher_randomization_test(obs, tilted, ExactEngine()).p_value
        assert p_u == pytest.approx(1 / 3, abs=1e-12)
        assert p_t != pytest.approx(p_u, abs=1e-6)

    def test_enumeration_cap_respected(self, cellphone):
        obs = cellphone.observed
        design = UniformCRD(obs.n, obs.n1)
        with pytest.raises(EnumerationTooLargeError):
            fisher_randomization_test(obs, design, ExactEngine())


class TestNeyman:
    def test_randomization_cellphone(self, cellphone):
        obs = cellphone.observed
        design = UniformCRD(obs.n, obs.n1)
        report = neyman_randomization_test(obs, design)
        assert report.statistic == pytest.approx(2.6727999438644074, abs=1e-12)
        assert report.p_value == pytest.approx(0.007522109468450333, abs=1e-12)
        assert report.hypothesis is Hypothesis.RAs
        assert report.assumptions == ("B1", "B2")
        assert neyman_se(obs, design) == pytest.approx(19.30325916028131, abs=1e-10)

    def test_selection_census_identical(self, cellphone):
        # also at arms of 15 and 7, where 22 * (15 / 22) rounds away from 15
        gen = np.random.default_rng(4)
        uneven = ObservedExperiment.from_arms(gen.normal(size=15), gen.normal(size=7))
        for obs in (cellphone.observed, uneven):
            rand = neyman_randomization_test(obs, UniformCRD(obs.n, obs.n1))
            sel = neyman_selection_test(obs, CensusCRD(obs.n, obs.n1))
            assert sel.statistic == rand.statistic
            assert sel.p_value == rand.p_value
            assert sel.hypothesis is Hypothesis.RAP
            assert sel.assumptions == ("C1", "C2")
        # every split of 7 units into 4 and 3, equally likely, is a census
        # whose own weights, 7 * (20 / 35), miss the arm size 4 in the last bit
        gen = np.random.default_rng(5)
        obs = ObservedExperiment.from_arms(gen.normal(size=4), gen.normal(size=3))
        support = tuple((obs.sample, AssignmentVector([1 if j in ones else 2 for j in range(7)]))
                        for ones in itertools.combinations(range(7), 4))
        design = ExplicitJoint(n_population=7, support=support, probs=np.full(35, 1 / 35))
        weights = design.weight_table(obs.sample)
        assert not np.array_equal(weights, CensusCRD(7, 4).weight_table(obs.sample))
        sel = neyman_selection_test(obs, design)
        se = neyman_se(obs, UniformCRD(7, 4))
        assert sel.statistic == d_statistic(obs.responses, obs.assignment, weights) / se
        assert sel.hypothesis is Hypothesis.RAP

    def test_selection_requires_census(self):
        obs = ObservedExperiment.from_arms([1.0, 2.0], [3.0, 4.0])
        support = (
            (SampleVector([1, 2]), AssignmentVector([1, 2])),
            (SampleVector([1, 2]), AssignmentVector([2, 1])),
        )
        design = ExplicitJoint(
            n_population=3, support=support, probs=np.array([0.5, 0.5])
        )
        with pytest.raises(UnsupportedDesignError):
            neyman_selection_test(obs, design)

    def test_selection_on_a_large_one_point_design_is_refused(self):
        # one support point, the whole population of 140 split 70 + 70, is
        # no census; C(140, 70) needs more than 128 bits
        gen = np.random.default_rng(2)
        obs = ObservedExperiment.from_arms(gen.normal(size=70), gen.normal(size=70))
        design = ExplicitJoint(n_population=140, support=((obs.sample, obs.assignment),),
                               probs=np.array([1.0]))
        with pytest.raises(UnsupportedDesignError, match="reduce to a census"):
            neyman_selection_test(obs, design)

    def test_selection_without_census_names_no_flag(self):
        obs = ObservedExperiment.from_arms([1.0, 2.0], [3.0, 4.0])
        [result] = run_tests(obs, UniformCRD(4, 2), ExactEngine(), ["neyman_sel"])
        assert isinstance(result, UnsupportedDesignError)
        assert str(result) == ("the population average test needs a census design, "
                               "and none was given")

    @pytest.mark.parametrize("design", [UniformCRD(4, 2), Explicit(
        support=(AssignmentVector([1, 1, 2, 2]), AssignmentVector([2, 2, 1, 1])),
        probs=np.array([0.5, 0.5]))], ids=["crd", "explicit"])
    def test_selection_refuses_an_assignment_design(self, design):
        obs = ObservedExperiment.from_arms([1.0, 2.0], [3.0, 4.0])
        with pytest.raises(UnsupportedDesignError):
            neyman_selection_test(obs, design)

    def test_p_never_exceeds_welch(self):
        # smaller SE and a normal reference: the variance-bound p is the
        # more aggressive of the two on identical data
        gen = np.random.default_rng(37)
        for _ in range(20):
            n1 = int(gen.integers(3, 10))
            n2 = int(gen.integers(3, 10))
            obs = ObservedExperiment.from_arms(
                gen.normal(size=n1), gen.normal(size=n2) + 0.5
            )
            p_n = neyman_randomization_test(obs, UniformCRD(n1 + n2, n1)).p_value
            p_w = welch_t_test(obs).p_value
            assert p_n <= p_w + 1e-12


class TestFisherSelection:
    def test_always_raises(self, six_obs):
        with pytest.raises(NoncomputableDistributionError) as exc:
            fisher_selection_test(six_obs, CensusCRD(6, 3))
        message = str(exc.value)
        assert "fisher_randomization_test" in message
        assert "neyman_selection_test" in message


class TestFisherExact2x2:
    def test_hand_case(self):
        obs = ObservedExperiment.from_arms([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        report = fisher_exact_2x2(obs)
        assert report.p_value == pytest.approx(0.1, abs=1e-15)
        assert report.p_value_kind == "exact"

    def test_equals_randomization_on_symmetric_margins(self):
        for n1 in (3, 4, 5):
            n = 2 * n1
            for k1 in range(n1 + 1):
                for k2 in range(n1 + 1):
                    if k1 + k2 in (0, n):
                        continue
                    obs = ObservedExperiment.from_arms(
                        [1.0] * k1 + [0.0] * (n1 - k1),
                        [1.0] * k2 + [0.0] * (n1 - k2),
                    )
                    p_rand = fisher_randomization_test(
                        obs, UniformCRD(n, n1), ExactEngine()
                    ).p_value
                    assert fisher_exact_2x2(obs).p_value == pytest.approx(
                        p_rand, abs=1e-12
                    )

    def test_rejects_nonbinary(self, six_obs):
        with pytest.raises(DataValidationError):
            fisher_exact_2x2(six_obs)

    def test_to_dict_round_trip(self, tiny_obs):
        report = permutation_test(tiny_obs, ExactEngine())
        doc = report.to_dict()
        assert doc["test"] == "permutation"
        assert doc["hypothesis"] == "DUP"
        assert doc["p_value"] == report.p_value
        assert doc["assumptions"] == ["A1", "A2", "A3"]


class TestCatalogue:
    """Each test's null and assumptions are written once, in TESTS."""

    def test_every_report_carries_its_entry(self, six_obs):
        design = UniformCRD(6, 3)
        census = CensusCRD(6, 3)
        binary = ObservedExperiment.from_arms([1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        engines = (ExactEngine(), MonteCarloEngine(1000, RngStream(0)))
        reports = [
            *(permutation_test(six_obs, e) for e in engines),
            *(wilcoxon_test(six_obs, e) for e in engines),
            *(fisher_randomization_test(six_obs, design, e) for e in engines),
            welch_t_test(six_obs),
            pooled_t_test(six_obs),
            neyman_randomization_test(six_obs, design),
            neyman_selection_test(six_obs, census),
            fisher_exact_2x2(binary),
        ]
        assert {r.test for r in reports} == set(TESTS) - {"fisher_sel"}
        for report in reports:
            entry = TESTS[report.test]
            assert (report.hypothesis, report.assumptions) == (entry.hypothesis, entry.assumptions)
        with pytest.raises(NoncomputableDistributionError):
            fisher_selection_test(six_obs, census)

    def test_suites_name_only_catalogue_tests(self):
        assert set(DEFAULT_TEST_SUITE) <= set(TESTS)
        assert set(randcompare.cli._ALL_ORDER) <= set(TESTS)
        # every test has its own spelling, which --tests reads as its report name
        spellings = [entry.spelling for entry in TESTS.values()]
        assert randcompare.cli._parse_test_list(",".join(spellings)) == list(TESTS)

    # p-values and stderrs of the reports at the parent commit, whose
    # report() took the engine instead of its budget
    @pytest.mark.parametrize("engine, budget, expected", [
        (MonteCarloEngine(2000, RngStream(7)), 2000,
         {"permutation": (0.5092453773113443, 0.011178428400235226),
          "wilcoxon": (0.5087456271864068, 0.019476513306949002)}),
        (ExactEngine(), None, {"permutation": (0.5, None), "wilcoxon": (0.5, None)}),
    ], ids=["monte_carlo", "exact"])
    def test_plan_report_takes_the_budget(self, six_obs, engine, budget, expected):
        plans = [permutation_plan(six_obs), wilcoxon_plan(six_obs)]
        design = plans[0].design
        tails = engine.tails(design, [p.column for p in plans])
        denominator = budget or math.comb(6, 3)
        assert engine.denominator(design) == denominator
        reports = [plan.report(t, denominator, engine.kind) for plan, t in zip(plans, tails)]
        assert reports == run_resampling_plans(plans, engine)
        for report in reports:
            assert (report.p_value, report.mc_stderr) == expected[report.test]
            assert report.p_value_kind == ("exact" if budget is None else "monte_carlo")
