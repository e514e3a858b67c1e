import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randcompare import (
    AssignmentVector,
    AsymptoticEngine,
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
    enumerate_support,
    explicit_from_json,
    fisher_exact_2x2,
    fisher_randomization_test,
    fisher_selection_test,
    neyman_randomization_test,
    neyman_se,
    neyman_selection_test,
    permutation_test,
    pooled_t_test,
    resample_tails,
    support_mask,
    welch_t_test,
    wilcoxon_test,
)
import randcompare.cli
import randcompare.inference
from randcompare.designs import sample_assignment_batch
from randcompare.inference import (
    TESTS,
    fisher_randomization_plan,
    permutation_plan,
    run_resampling_plans,
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
        never, always = resample_tails(
            UniformCRD(6, 3),
            [(np.zeros(6), 0.0, 5.0), (np.zeros(6), 0.0, 0.0)],
            budget=2000, rng=RngStream(1),
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
        [[hits, upper, lower]] = resample_tails(
            UniformCRD(2, 1), [(np.array([1.0, 0.0]), 0.0, 1.0)],
            budget=10000, rng=RngStream(2),
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
        [tails] = resample_tails(design, [(coef, 0.0, 17.0)], budget=120_000,
                                 rng=RngStream(3))
        assert tails == [
            np.count_nonzero(np.abs(stats) >= 17.0 * (1 - 1e-9)),
            np.count_nonzero(stats >= 17.0 - 1.7e-8),
            np.count_nonzero(stats <= 17.0 + 1.7e-8),
        ]

    def test_kernel_columns_share_one_batch(self, six_obs):
        design = UniformCRD(6, 3)
        columns = [(six_obs.responses, 0.0, 10.0), (np.arange(6.0), -1.0, 4.0)]
        together = resample_tails(design, columns, budget=5000, rng=RngStream(4))
        alone = [resample_tails(design, [c], budget=5000, rng=RngStream(4))[0]
                 for c in columns]
        assert together == alone

    def test_kernel_exact_masses(self, tiny_obs):
        # arm-1 sums of (1,2,3,4) over the 6 splits: 3,4,5,5,6,7
        [[p_abs, upper, lower]] = resample_tails(
            UniformCRD(4, 2), [(tiny_obs.responses, 0.0, 5.0)],
            support=support_mask(UniformCRD(4, 2)),
        )
        assert (p_abs, upper, lower) == pytest.approx((4 / 6, 4 / 6, 4 / 6))

    def test_kernel_budget_must_be_positive(self):
        with pytest.raises(DataValidationError):
            resample_tails(UniformCRD(4, 2), [(np.ones(4), 0.0, 1.0)],
                           budget=0, rng=RngStream(0))

    def test_report_validates_p(self):
        with pytest.raises(DataValidationError):
            Report("x", Hypothesis.DUP, 0.0, 1.5, "exact", None, (), 1, 1)


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

    def test_rejects_asymptotic_engine(self, tiny_obs):
        with pytest.raises(DataValidationError):
            permutation_test(tiny_obs, AsymptoticEngine())

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
        kernel = randcompare.inference.resample_tails

        def counting(*args, **kwargs):
            calls.append(args[0])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(randcompare.inference, "resample_tails", counting)
        plans = [fisher_randomization_plan(six_obs, d) for d in (first, second)]
        together = run_resampling_plans(plans, engine)
        assert len(calls) == 1
        assert together == alone

    def test_nonuniform_explicit_design_changes_p(self):
        # same data, same support; tilting the atom probabilities moves p
        obs = ObservedExperiment.from_arms([1.0, 2.0], [3.0, 4.0])
        vectors = tuple(v for v, _ in enumerate_support(UniformCRD(4, 2)))
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
        obs = cellphone.observed
        rand = neyman_randomization_test(obs, UniformCRD(obs.n, obs.n1))
        sel = neyman_selection_test(obs, CensusCRD(obs.n, obs.n1))
        assert sel.statistic == rand.statistic
        assert sel.p_value == rand.p_value
        assert sel.hypothesis is Hypothesis.RAP
        assert sel.assumptions == ("C1", "C2")

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
            assert (report.hypothesis, report.assumptions) == TESTS[report.test]
        with pytest.raises(NoncomputableDistributionError):
            fisher_selection_test(six_obs, census)

    def test_suites_name_only_catalogue_tests(self):
        cli_tests = randcompare.cli._TESTS
        assert set(DEFAULT_TEST_SUITE) <= set(TESTS)
        assert {cli_tests[name][0] for name in randcompare.cli._ALL_ORDER} <= set(TESTS)
        assert {report_name for report_name, _, _ in cli_tests.values()} == set(TESTS)

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
        columns = [(p.coef, p.offset, p.statistic) for p in plans]
        if budget is None:
            tails = resample_tails(design, columns, support=support_mask(design))
        else:
            tails = resample_tails(design, columns, budget=budget, rng=RngStream(7))
        reports = [plan.report(t, budget) for plan, t in zip(plans, tails)]
        assert reports == run_resampling_plans(plans, engine)
        for report in reports:
            assert (report.p_value, report.mc_stderr) == expected[report.test]
            assert report.p_value_kind == ("exact" if budget is None else "monte_carlo")
