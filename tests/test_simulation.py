import codecs
import json
import math
import sys

import numpy as np
import pytest

from randcompare import (
    Bernoulli,
    CorrelatedBernoulliPair,
    DataValidationError,
    DegenerateDataError,
    ExactEngine,
    GammaLaw,
    Identity,
    MonteCarloEngine,
    Normal,
    ObservedBlock,
    ObservedExperiment,
    PotentialTable,
    REFERENCE_RATES,
    RandcompareError,
    RngStream,
    SampleVector,
    Scale,
    ScaleAboutMean,
    ScaleWithNoise,
    Scenario,
    Shift,
    ShiftWithCenteredNoise,
    UniformCRD,
    UniformMixture,
    UnknownScenarioError,
    draw_fixed_population,
    fisher_randomization_test,
    fixed_binary_vectors,
    generate_population,
    get_scenario,
    known_scenarios,
    load_scenario_file,
    neyman_randomization_test,
    permutation_test,
    pooled_t_test,
    random_deviates,
    run_size_power,
    sample_assignment,
    select_components,
    welch_t_test,
    wilcoxon_test,
)
import randcompare.designs
import randcompare.inference
import randcompare.simulation
from randcompare.inference import run_block, score_closed_form
from randcompare.simulation import _toml_subset_loads

from _oracles import closed_form_by_arms

BIG = 200_000


class TestLaws:
    def test_normal_moments(self):
        x = random_deviates(Normal(10.0, 2.0), BIG, RngStream(1))
        assert x.shape == (BIG,)
        assert abs(x.mean() - 10.0) < 5 * 2.0 / math.sqrt(BIG)
        assert abs(x.std(ddof=1) - 2.0) < 0.05

    def test_gamma_moments(self):
        x = random_deviates(GammaLaw(1.0, 5.0), BIG, RngStream(2))
        assert abs(x.mean() - 5.0) < 5 * 5.0 / math.sqrt(BIG)
        assert np.all(x >= 0)

    def test_mixture_components(self):
        law = UniformMixture(0.9, 0.0, 20.0, 200.0, 201.0)
        x = random_deviates(law, BIG, RngStream(3))
        high = x > 100.0
        assert abs(high.mean() - 0.1) < 5 * math.sqrt(0.09 / BIG)
        assert np.all(x[high] >= 200.0) and np.all(x[high] <= 201.0)
        assert np.all(x[~high] >= 0.0) and np.all(x[~high] <= 20.0)

    def test_bernoulli(self):
        x = random_deviates(Bernoulli(0.28), BIG, RngStream(4))
        assert set(np.unique(x)) <= {0.0, 1.0}
        assert abs(x.mean() - 0.28) < 5 * math.sqrt(0.28 * 0.72 / BIG)
        with pytest.raises(DataValidationError):
            Bernoulli(0.0)

    def test_correlated_pair(self):
        law = CorrelatedBernoulliPair(0.28, 0.28, 0.37)
        pair = random_deviates(law, BIG, RngStream(5))
        assert pair.shape == (2, BIG)
        y1, y2 = pair
        assert abs(y1.mean() - 0.28) < 0.01
        assert abs(y2.mean() - 0.28) < 0.01
        assert abs(np.corrcoef(y1, y2)[0, 1] - 0.37) < 0.01

    def test_correlated_pair_cells(self):
        cells = CorrelatedBernoulliPair(0.28, 0.71, 0.29).cells()
        assert len(cells) == 4
        assert all(c >= 0 for c in cells)
        assert sum(cells) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_correlation(self):
        with pytest.raises(DataValidationError):
            CorrelatedBernoulliPair(0.1, 0.9, 0.9)


class TestEffects:
    y = np.array([3.0, 1.0, 4.0, 1.0, 5.0])

    def test_identity(self):
        out = Identity().apply(self.y, RngStream(0).generator())
        assert np.array_equal(out, self.y)

    def test_shift(self):
        out = Shift(2.0).apply(self.y, RngStream(0).generator())
        assert np.allclose(out, self.y + 2.0)

    def test_scale(self):
        out = Scale(1.2).apply(self.y, RngStream(0).generator())
        assert np.allclose(out, 1.2 * self.y)

    def test_scale_about_mean_preserves_mean(self):
        out = ScaleAboutMean(2.0).apply(self.y, RngStream(0).generator())
        assert out.mean() == pytest.approx(self.y.mean(), abs=1e-12)
        assert np.allclose(out, 2.0 * self.y - self.y.mean())

    def test_shift_with_centered_noise_preserves_mean_shift(self):
        eff = ShiftWithCenteredNoise(2.0, 3.0)
        out = eff.apply(self.y, RngStream(1).generator())
        # centering the noise makes the realized mean shift exactly 2
        assert out.mean() - self.y.mean() == pytest.approx(2.0, abs=1e-12)
        assert not np.allclose(out, self.y + 2.0)

    def test_scale_with_noise_is_uncentered(self):
        eff = ScaleWithNoise(3.0, 5.0)
        out = eff.apply(self.y, RngStream(1).generator())
        noise = out - 3.0 * self.y
        assert noise.std() > 0.0
        assert abs(noise.sum()) > 1e-9  # no centering applied


class TestScenarioRegistry:
    def test_known_ids(self):
        ids = known_scenarios()
        assert len(ids) == 26
        assert "t3.sc1" in ids and "t6.sc6" in ids

    def test_unknown_id_lists_known(self):
        with pytest.raises(UnknownScenarioError) as exc:
            get_scenario("t9.sc1")
        assert "t3.sc1" in str(exc.value)

    def test_reference_rates_cover_registry(self):
        assert set(REFERENCE_RATES) == set(known_scenarios())
        for sid, rows in REFERENCE_RATES.items():
            assert set(rows) == {"randomization", "process"}
            for row, rates in rows.items():
                assert len(rates) == 6
                scenario = get_scenario(sid)
                for i, rate in enumerate(rates):
                    if rate is None:
                        # NA cells only for the rank test on binary data
                        assert i == 1 and scenario.binary
                    else:
                        assert 0.0 <= rate <= 100.0

    def test_scenario_validation(self):
        with pytest.raises(DataValidationError):
            Scenario(
                name="bad", n1=5, n2=5,
                law=CorrelatedBernoulliPair(0.3, 0.3, 0.1), effect=Shift(1.0),
            )
        with pytest.raises(DataValidationError):
            Scenario(name="bad", n1=5, n2=5, law=Normal(0.0, 1.0), effect=None)
        with pytest.raises(DataValidationError, match="adjust_equal_means"):
            Scenario(name="bad", n1=5, n2=5, law=Normal(0.0, 1.0), effect=Identity(),
                     adjust_equal_means=True)

    @pytest.mark.parametrize("count, ok", [(-1, False), (0, True), (10, True), (11, False)])
    def test_fixed_large_count_within_population(self, count, ok):
        def build():
            return Scenario(name="mix", n1=5, n2=5, law=UniformMixture(0.9, 0, 20, 200, 201),
                            effect=Identity(), fixed_large_count=count)
        if ok:
            assert build().fixed_large_count == count
        else:
            with pytest.raises(DataValidationError, match="fixed_large_count"):
                build()

    def test_binary_means_all_potentials_zero_or_one(self):
        assert [s for s in known_scenarios() if get_scenario(s).binary] == [
            "t3.sc6", "t3.sc7", "t4.sc6", "t5.sc6", "t5.sc7", "t6.sc6"]
        bern = dict(name="b", n1=10, n2=10, law=Bernoulli(0.3))
        assert Scenario(effect=Identity(), **bern).binary
        assert not Scenario(effect=Shift(1.0), **bern).binary
        assert not Scenario(effect=Identity(), fixed_y=PotentialTable(
            np.full(20, 2.0), np.full(20, 2.0)), **bern).binary

    def test_sizes(self):
        assert get_scenario("t3.sc1").n_population == 20
        assert get_scenario("t5.sc1").n_population == 100


class TestPopulations:
    def test_identity_scenarios_have_equal_potentials(self):
        table = generate_population(get_scenario("t3.sc1"), RngStream(1).generator())
        assert np.array_equal(table.y1, table.y2)
        assert table.n_units == 20

    def test_centered_noise_null(self):
        # equal potential means by construction, unequal units
        table = generate_population(get_scenario("t3.sc4"), RngStream(2).generator())
        assert table.y1.mean() == pytest.approx(table.y2.mean(), abs=1e-12)
        assert not np.array_equal(table.y1, table.y2)

    def test_scale_about_mean_null(self):
        table = generate_population(get_scenario("t3.sc5"), RngStream(3).generator())
        assert table.y1.mean() == pytest.approx(table.y2.mean(), abs=1e-12)

    def test_adjusted_binary_pair_null(self):
        table = generate_population(get_scenario("t3.sc7"), RngStream(4).generator())
        assert table.y1.sum() == table.y2.sum()  # integer-exact equal means
        assert set(np.unique(table.y1)) <= {0.0, 1.0}

    def test_power_scenario_construction(self):
        table = generate_population(get_scenario("t4.sc1"), RngStream(5).generator())
        assert np.allclose(table.y2, table.y1 + 2.0)

    def test_fixed_population_is_deterministic(self):
        a = draw_fixed_population(get_scenario("t3.sc1"), RngStream(11))
        b = draw_fixed_population(get_scenario("t3.sc1"), RngStream(11))
        assert np.array_equal(a.y1, b.y1)
        c = draw_fixed_population(get_scenario("t3.sc1"), RngStream(12))
        assert not np.array_equal(a.y1, c.y1)

    def test_unmet_conditioning_names_the_scenario(self, monkeypatch):
        monkeypatch.setattr(randcompare.simulation, "_MAX_CONDITION_ATTEMPTS", 10)
        normal = Scenario(name="never", n1=5, n2=5, law=Normal(0.0, 1.0),
                          effect=Identity(), fixed_large_count=1)
        with pytest.raises(DataValidationError, match="'never'"):
            draw_fixed_population(normal, RngStream(0))
        pair = Scenario(name="apart", n1=5, n2=5, effect=None, adjust_equal_means=True,
                        law=CorrelatedBernoulliPair(0.05, 0.95, 0.0))
        with pytest.raises(DataValidationError, match="'apart'"):
            generate_population(pair, RngStream(0).generator())

    def test_fixed_mixture_conditions_on_large_count(self):
        for seed in (1, 2, 3):
            table = draw_fixed_population(get_scenario("t3.sc3"), RngStream(seed))
            assert int(np.sum(table.y1 > 100.0)) == 1
        table = draw_fixed_population(get_scenario("t5.sc3"), RngStream(1))
        assert int(np.sum(table.y1 > 100.0)) == 7


class TestFixedBinaryVectors:
    def test_published_size_vector(self):
        table = fixed_binary_vectors(3, 6)
        assert np.array_equal(table.y1, table.y2)
        assert int(table.y1.sum()) == 4
        assert table.n_units == 20

    def test_published_pair_vectors(self):
        table = fixed_binary_vectors(3, 7)
        assert int(table.y1.sum()) == 6
        assert int(table.y2.sum()) == 6
        assert int((table.y1 * table.y2).sum()) == 4

    def test_published_power_vectors(self):
        table = fixed_binary_vectors(4, 6)
        assert int(table.y1.sum()) == 6
        assert int(table.y2.sum()) == 14

    def test_unknown_pair_lists_known(self):
        with pytest.raises(UnknownScenarioError) as exc:
            fixed_binary_vectors(5, 6)
        assert "(3, 6)" in str(exc.value)

    def test_scenario_registry_uses_them(self):
        scenario = get_scenario("t3.sc6")
        assert np.array_equal(
            scenario.fixed_y.y1, fixed_binary_vectors(3, 6).y1
        )

    def test_large_fixed_tables_match_stated_margins(self):
        sc = get_scenario("t5.sc7")
        assert int(sc.fixed_y.y1.sum()) == 33
        assert int(sc.fixed_y.y2.sum()) == 33
        assert int((sc.fixed_y.y1 * sc.fixed_y.y2).sum()) == 15
        sc = get_scenario("t6.sc6")
        assert int(sc.fixed_y.y1.sum()) == 24
        assert int(sc.fixed_y.y2.sum()) == 45
        corr = np.corrcoef(sc.fixed_y.y1, sc.fixed_y.y2)[0, 1]
        assert corr == pytest.approx(0.386, abs=0.001)


class TestRunSizePower:
    def test_validation(self):
        with pytest.raises(DataValidationError):
            run_size_power("t3.sc1", replicates=50, rng=RngStream(0))
        with pytest.raises(DataValidationError):
            run_size_power("t3.sc1", alpha=1.5, rng=RngStream(0))
        with pytest.raises(DataValidationError):
            run_size_power("t3.sc1", replicates=100, rng=None)
        with pytest.raises(DataValidationError):
            run_size_power("t3.sc1", replicates=100, rows=("both",), rng=RngStream(0))
        with pytest.raises(DataValidationError):
            run_size_power(
                "t3.sc1", test_suite=("anova",), replicates=100, rng=RngStream(0)
            )
        with pytest.raises(UnknownScenarioError):
            run_size_power("t3.sc99", replicates=100, rng=RngStream(0))
        with pytest.raises(DataValidationError, match=">= 1000"):
            run_size_power("t3.sc1", replicates=100, rng=RngStream(0), mc_budget=999)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(test_suite=("welch_t", "welch_t")), "duplicate test name 'welch_t'"),
        (dict(rows=("process", "process")), "duplicate row kind 'process'"),
        (dict(test_suite=()), "no test names given"),
        (dict(rows=()), "no row kinds given"),
    ], ids=["duplicate-test", "duplicate-row", "no-tests", "no-rows"])
    def test_refuses_duplicate_or_empty_names(self, kwargs, message):
        with pytest.raises(DataValidationError, match=message):
            run_size_power("t3.sc6", replicates=100, rng=RngStream(0), **kwargs)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one(self, threads):
        with pytest.raises(DataValidationError, match="threads must be >= 1"):
            run_size_power("t3.sc1", replicates=100, rng=RngStream(0), threads=threads)

    def test_estimate_bookkeeping(self):
        estimates = run_size_power("t3.sc1", replicates=100, rng=RngStream(3))
        assert len(estimates) == 12  # 6 tests x 2 rows
        assert [e.row for e in estimates[:6]] == ["randomization"] * 6
        for e in estimates:
            assert 0.0 <= e.rejection_rate <= 100.0
            assert e.rejection_rate == pytest.approx(100.0 * e.rejections / 100)
            assert e.mc_stderr == pytest.approx(
                math.sqrt(e.rejection_rate * (100.0 - e.rejection_rate) / 100)
            )

    def test_rank_test_na_on_binary(self):
        estimates = run_size_power(
            "t3.sc6", replicates=100, rng=RngStream(3), rows=("randomization",)
        )
        by_name = {e.test_name: e for e in estimates}
        assert by_name["wilcoxon"].rejection_rate is None
        assert by_name["wilcoxon"].rejections is None
        assert by_name["fisher_rand"].rejection_rate is not None

    def test_thread_determinism(self):
        a = run_size_power("t3.sc1", replicates=100, rng=RngStream(11), threads=1)
        b = run_size_power("t3.sc1", replicates=100, rng=RngStream(11), threads=4)
        assert [e.rejections for e in a] == [e.rejections for e in b]

    def test_custom_scenario_object(self):
        scenario = Scenario(
            name="custom", n1=5, n2=5, law=Normal(0.0, 1.0), effect=Shift(1.0)
        )
        estimates = run_size_power(
            scenario, replicates=100, rng=RngStream(1), rows=("process",)
        )
        assert len(estimates) == 6

    def test_closed_form_suite_draws_nothing(self, monkeypatch):
        kwargs = dict(replicates=100, rng=RngStream(5))
        default = run_size_power("t3.sc1", **kwargs)
        rows = []
        batch = randcompare.inference.sample_assignment_batch

        def counting(design, size, gen):
            rows.append(size)
            return batch(design, size, gen)

        exact_calls = []
        exact_tails = UniformCRD.exact_tails

        def counting_exact(design, columns, memo=None):
            exact_calls.append(design)
            return exact_tails(design, columns, memo)

        monkeypatch.setattr(randcompare.inference, "sample_assignment_batch", counting)
        monkeypatch.setattr(UniformCRD, "exact_tails", counting_exact)
        welch = run_size_power("t3.sc1", test_suite=("welch_t",), **kwargs)
        exact = run_size_power("t3.sc1", test_suite=("welch_t",), exact_small=True, **kwargs)
        assert sum(rows) == 0
        assert exact_calls == []
        expected = [(e.row, e.rejections) for e in default if e.test_name == "welch_t"]
        assert [(e.row, e.rejections) for e in welch] == expected
        assert [(e.row, e.rejections) for e in exact] == expected

    def test_alpha_one_draws_nothing(self, drawn_rows):
        # every p-value is at most 1, so at alpha = 1 the full budgets
        # reject every replicate too
        estimates = run_size_power("t3.sc1", replicates=100, rng=RngStream(5), alpha=1.0)
        assert sum(drawn_rows) == 0
        assert [e.rejections for e in estimates] == [100] * len(estimates)

    def test_alpha_below_every_p_value_draws_nothing(self, drawn_rows):
        # the smallest add-one p-value of 1000 draws is 1/1001
        estimates = run_size_power("t3.sc1", test_suite=("permutation", "wilcoxon", "fisher_rand"),
                                   replicates=100, rng=RngStream(5), alpha=1 / 1002,
                                   mc_budget=1000)
        assert sum(drawn_rows) == 0
        assert [e.rejections for e in estimates] == [0] * len(estimates)

    def test_decided_replicates_stop_drawing(self, drawn_rows):
        run_size_power("t3.sc1", replicates=100, rng=RngStream(11), rows=("randomization",))
        assert 0 < sum(drawn_rows) < 100 * 10_000

    @pytest.mark.parametrize("exact_small", [False, True])
    def test_each_replicate_scores_two_columns(self, monkeypatch, exact_small):
        """fisher_rand and permutation have one column, scored once, and
        one difference plan, built once per replicate."""
        widths = []
        engine_class = ExactEngine if exact_small else MonteCarloEngine
        tails = engine_class.tails

        def counting(engine, design, columns, *stop):
            widths.append(len(columns))
            return tails(engine, design, columns, *stop)

        built = []
        affine = randcompare.inference.d_affine_form

        def counting_affine(y, weights):
            built.append(len(y))
            return affine(y, weights)

        monkeypatch.setattr(engine_class, "tails", counting)
        monkeypatch.setattr(randcompare.inference, "d_affine_form", counting_affine)
        run_size_power("t3.sc1", replicates=100, rng=RngStream(5), exact_small=exact_small)
        assert widths == [2] * 200
        assert len(built) == 200

    def test_exact_small_enumerates_nothing(self, monkeypatch):
        supports = []
        enumerate_support = randcompare.designs.support_label_matrix

        def counting_support(design, *args):
            supports.append(design)
            return enumerate_support(design, *args)

        monkeypatch.setattr(randcompare.designs, "support_label_matrix", counting_support)
        kwargs = dict(replicates=100, exact_small=True)
        one = run_size_power("t3.sc1", rng=RngStream(8), threads=1, **kwargs)
        # a uniform CRD counts its tails without enumerating its support
        assert supports == []
        # the threads share one engine, whose memo changes no result
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (2, 4):
                many = run_size_power("t3.sc1", rng=RngStream(8), threads=threads, **kwargs)
                assert supports == []
                assert [(e.row, e.test_name, e.rejections) for e in many] == [
                    (e.row, e.test_name, e.rejections) for e in one]
        finally:
            sys.setswitchinterval(interval)

    def test_exact_small_estimates_do_not_depend_on_threads(self):
        # one ExactEngine per call, its memo shared by the threads
        one, two = (run_size_power("t3.sc1", replicates=100, rng=RngStream(2),
                                   exact_small=True, threads=threads) for threads in (1, 2))
        assert one == two

    def test_exact_small_past_the_cap_runs_monte_carlo(self):
        # C(100, 50) assignments do not fit the enumeration cap
        kwargs = dict(replicates=100, rng=RngStream(5))
        mc = run_size_power("t5.sc1", **kwargs)
        exact = run_size_power("t5.sc1", exact_small=True, **kwargs)
        assert [(e.row, e.test_name, e.rejections) for e in exact] == [
            (e.row, e.test_name, e.rejections) for e in mc]

    def test_budget_above_a_chunk_with_exact_small(self):
        kwargs = dict(replicates=100, exact_small=True)
        default = run_size_power("t3.sc1", rng=RngStream(6), **kwargs)
        big = run_size_power("t3.sc1", rng=RngStream(6), mc_budget=200_000, **kwargs)
        assert [(e.row, e.test_name, e.rejections) for e in big] == [
            (e.row, e.test_name, e.rejections) for e in default]

    @pytest.mark.parametrize("sid, kwargs", [
        ("t6.sc6", {}), ("t3.sc5", {}), ("t3.sc1", dict(exact_small=True)),
    ], ids=["binary", "monte_carlo", "exact"])
    def test_estimates_do_not_depend_on_the_split(self, monkeypatch, sid, kwargs):
        """Blocks of replicates are scored together; how a row is split,
        by threads or by the block cap MC_CHUNK sets, moves no estimate."""
        reps, n = 100, get_scenario(sid).n_population
        kwargs = dict(replicates=reps, rng=RngStream(4), mc_budget=1000, **kwargs)
        one = run_size_power(sid, threads=1, **kwargs)
        for threads in (2, 3):
            assert run_size_power(sid, threads=threads, **kwargs) == one, threads
        sizes = []
        block = randcompare.simulation.ObservedBlock

        def recording(experiments):
            sizes.append(len(experiments))
            return block(experiments)

        monkeypatch.setattr(randcompare.simulation, "ObservedBlock", recording)
        for size in (1, 7, reps):
            sizes.clear()
            monkeypatch.setattr(randcompare.simulation, "MC_CHUNK", size * n)
            assert run_size_power(sid, threads=1, **kwargs) == one, size
            assert max(sizes) == size and sum(sizes) == 2 * reps

    def test_exact_small_close_to_mc(self):
        kwargs = dict(replicates=200, rows=("randomization",))
        mc = run_size_power("t3.sc1", rng=RngStream(6), **kwargs)
        ex = run_size_power("t3.sc1", rng=RngStream(6), exact_small=True, **kwargs)
        for a, b in zip(mc, ex):
            # same draws, same fixed table; only the p-value engine differs
            assert abs(a.rejection_rate - b.rejection_rate) <= 2.5


def _mc_stream(master, row, replicate):
    return master.substream(4, 0 if row == "randomization" else 1, replicate)


def _harness_experiments(scenario, master, row, replicates):
    """The experiments of a harness row, drawn on the harness's substreams."""
    n = scenario.n_population
    design, sample = UniformCRD(n, scenario.n1), SampleVector.first_n(n)
    fixed = (draw_fixed_population(scenario, master) if row == "randomization"
             else sample_assignment(design, master.substream(1, 0)))
    experiments = []
    for r in range(replicates):
        if row == "randomization":
            table, assignment = fixed, sample_assignment(design, master.substream(2, r))
        else:
            table = generate_population(scenario, master.substream(3, r).generator())
            assignment = fixed
        experiments.append(ObservedExperiment(sample, assignment,
                                              select_components(table, sample, assignment)))
    return design, experiments


class TestBlockMatchesStandaloneTests:
    """A block's closed-form tests come from one set of arm reductions; each
    experiment's result equals, bit for bit, the public function's and the
    one-dimensional reductions' on that experiment alone."""

    CLOSED_FORM = ("welch_t", "pooled_t", "neyman_rand")

    @staticmethod
    def _result(outcome):
        if isinstance(outcome, Exception):
            return type(outcome), str(outcome)
        return outcome.statistic, outcome.p_value, outcome.degenerate

    def test_every_scenario_row(self):
        # at seed 2 the process rows of t3.sc7 and t4.sc6 each draw one
        # replicate whose arms are both constant
        degenerate = 0
        for sid in known_scenarios():
            scenario = get_scenario(sid)
            for row in ("randomization", "process"):
                design, experiments = _harness_experiments(scenario, RngStream(2), row, 100)
                block = ObservedBlock(experiments)
                batched = dict(zip(self.CLOSED_FORM, map(score_closed_form, run_block(
                    block, design, [ExactEngine()] * len(block), self.CLOSED_FORM))))
                for r, obs in enumerate(experiments):
                    public = {}
                    for name, test in (("welch_t", welch_t_test), ("pooled_t", pooled_t_test),
                                       ("neyman_rand", lambda o: neyman_randomization_test(
                                           o, design))):
                        try:
                            public[name] = self._result(test(obs))
                        except RandcompareError as exc:
                            public[name] = self._result(exc)
                    reference = closed_form_by_arms(obs, design)
                    for name in self.CLOSED_FORM:
                        got = self._result(batched[name][r])
                        # equal floats compare equal; the signs of zero must match too
                        assert repr(got) == repr(public[name]) == repr(reference[name]), (
                            sid, row, r, name)
                    if sid in ("t3.sc6", "t3.sc7", "t4.sc6"):
                        degenerate += public["welch_t"][0] is DegenerateDataError
        # the binary scenarios reach draws whose arms are both constant
        assert degenerate >= 1

    def test_a_negative_zero_difference_reads_zero(self):
        # arms of negative zeros: d_statistic adds the arms' sums to 0.0, so
        # its D reads 0.0, and the block's must too
        experiments = [ObservedExperiment.from_arms(arm1, arm2) for arm1, arm2 in (
            ([-0.0, -0.0], [-1.0, 1.0]), ([-1.0, 1.0], [0.0, 0.0]))]
        design = UniformCRD(4, 2)
        block = ObservedBlock(experiments)
        batched = dict(zip(self.CLOSED_FORM, map(score_closed_form, run_block(
            block, design, [ExactEngine()] * len(block), self.CLOSED_FORM))))
        for r, obs in enumerate(experiments):
            reference = closed_form_by_arms(obs, design)
            for name in self.CLOSED_FORM:
                assert repr(self._result(batched[name][r])) == repr(reference[name]), name
        assert repr(batched["neyman_rand"][0].statistic) == "0.0"


class TestKernelMatchesStandaloneTests:
    """The harness scores the tests' own plans on its cached support or
    its own substreams; its per-replicate p-values must agree with the
    public test functions replicate by replicate, not just on average."""

    def test_randomization_row_mc(self):
        sid, seed, reps = "t3.sc1", 17, 60
        scenario = get_scenario(sid)
        estimates = run_size_power(
            sid, replicates=max(reps, 100), rng=RngStream(seed),
            rows=("randomization",),
        )
        master = RngStream(seed)
        n = scenario.n_population
        design = UniformCRD(n, scenario.n1)
        sample = SampleVector.first_n(n)
        table = draw_fixed_population(scenario, master)
        counts = {t: 0 for t in ("permutation", "wilcoxon", "welch_t",
                                 "pooled_t", "fisher_rand", "neyman_rand")}
        for r in range(max(reps, 100)):
            assignment = sample_assignment(design, master.substream(2, r))
            responses = select_components(table, sample, assignment)
            obs = ObservedExperiment(sample, assignment, responses)
            stream = _mc_stream(master, "randomization", r)
            p = {
                "permutation": permutation_test(
                    obs, MonteCarloEngine(10_000, stream)
                ).p_value,
                "wilcoxon": wilcoxon_test(
                    obs, MonteCarloEngine(10_000, stream)
                ).p_value,
                "fisher_rand": fisher_randomization_test(
                    obs, design, MonteCarloEngine(10_000, stream)
                ).p_value,
                "welch_t": welch_t_test(obs).p_value,
                "pooled_t": pooled_t_test(obs).p_value,
                "neyman_rand": neyman_randomization_test(obs, design).p_value,
            }
            for name, value in p.items():
                counts[name] += value <= 0.05
        by_name = {e.test_name: e for e in estimates}
        for name, expected in counts.items():
            assert by_name[name].rejections == expected, name

    def test_process_row_mc(self):
        sid, seed = "t3.sc4", 23
        scenario = get_scenario(sid)
        estimates = run_size_power(
            sid, replicates=100, rng=RngStream(seed), rows=("process",)
        )
        master = RngStream(seed)
        n = scenario.n_population
        design = UniformCRD(n, scenario.n1)
        sample = SampleVector.first_n(n)
        assignment = sample_assignment(design, master.substream(1, 0))
        counts = {t: 0 for t in ("permutation", "fisher_rand", "neyman_rand")}
        for r in range(100):
            table = generate_population(scenario, master.substream(3, r).generator())
            responses = select_components(table, sample, assignment)
            obs = ObservedExperiment(sample, assignment, responses)
            stream = _mc_stream(master, "process", r)
            counts["permutation"] += (
                permutation_test(obs, MonteCarloEngine(10_000, stream)).p_value
                <= 0.05
            )
            counts["fisher_rand"] += (
                fisher_randomization_test(
                    obs, design, MonteCarloEngine(10_000, stream)
                ).p_value
                <= 0.05
            )
            counts["neyman_rand"] += (
                neyman_randomization_test(obs, design).p_value <= 0.05
            )
        by_name = {e.test_name: e for e in estimates}
        for name, expected in counts.items():
            assert by_name[name].rejections == expected, name

    def test_binary_exact_path(self):
        sid, seed = "t3.sc6", 29
        scenario = get_scenario(sid)
        estimates = run_size_power(
            sid, replicates=100, rng=RngStream(seed), rows=("randomization",)
        )
        master = RngStream(seed)
        design = UniformCRD(20, 10)
        sample = SampleVector.first_n(20)
        table = scenario.fixed_y
        counts = {t: 0 for t in ("fisher_rand", "neyman_rand")}
        for r in range(100):
            assignment = sample_assignment(design, master.substream(2, r))
            responses = select_components(table, sample, assignment)
            obs = ObservedExperiment(sample, assignment, responses)
            counts["fisher_rand"] += (
                fisher_randomization_test(obs, design, ExactEngine()).p_value <= 0.05
            )
            try:
                p_n = neyman_randomization_test(obs, design).p_value
            except DegenerateDataError:
                p_n = 1.0
            counts["neyman_rand"] += p_n <= 0.05
        by_name = {e.test_name: e for e in estimates}
        assert by_name["fisher_rand"].rejections == counts["fisher_rand"]
        assert by_name["neyman_rand"].rejections == counts["neyman_rand"]


    def test_bernoulli_law_with_shift_is_resampled(self):
        # responses of 0, 1 and 2: not binary, so no hypergeometric shortcut
        scenario = Scenario(name="b", n1=10, n2=10, law=Bernoulli(0.3), effect=Shift(1.0))
        estimates = run_size_power(
            scenario, replicates=100, rng=RngStream(3), rows=("randomization",)
        )
        master = RngStream(3)
        design = UniformCRD(20, 10)
        sample = SampleVector.first_n(20)
        table = draw_fixed_population(scenario, master)
        counts = {t: 0 for t in ("permutation", "wilcoxon", "fisher_rand")}
        for r in range(100):
            assignment = sample_assignment(design, master.substream(2, r))
            responses = select_components(table, sample, assignment)
            obs = ObservedExperiment(sample, assignment, responses)
            engine = MonteCarloEngine(10_000, _mc_stream(master, "randomization", r))
            counts["permutation"] += permutation_test(obs, engine).p_value <= 0.05
            counts["wilcoxon"] += wilcoxon_test(obs, engine).p_value <= 0.05
            counts["fisher_rand"] += (
                fisher_randomization_test(obs, design, engine).p_value <= 0.05
            )
        by_name = {e.test_name: e for e in estimates}
        assert by_name["wilcoxon"].rejection_rate is not None
        for name, expected in counts.items():
            assert by_name[name].rejections == expected, name


class TestScenarioFiles:
    doc = {
        "name": "demo",
        "n1": 6,
        "n2": 6,
        "law": {"kind": "normal", "mean": 0.0, "sd": 1.0},
        "effect": {"kind": "shift", "delta": 1.0},
    }

    def test_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.doc))
        scenario = load_scenario_file(path)
        assert scenario.name == "demo"
        assert scenario.n_population == 12
        assert isinstance(scenario.law, Normal)
        assert isinstance(scenario.effect, Shift)

    def test_toml(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(
            'name = "demo"\nn1 = 6\nn2 = 6\n\n'
            '[law]\nkind = "gamma"\nshape = 1.0\nscale = 5.0\n\n'
            '[effect]\nkind = "scale"\nfactor = 2.0\n'
        )
        scenario = load_scenario_file(path)
        assert isinstance(scenario.law, GammaLaw)
        assert isinstance(scenario.effect, Scale)

    def test_toml_with_byte_order_mark(self, tmp_path):
        plain, marked = tmp_path / "plain.toml", tmp_path / "marked.toml"
        plain.write_text(
            'name = "demo"\nn1 = 6\nn2 = 6\n\n[law]\nkind = "normal"\nmean = 0.0\nsd = 1.0\n\n'
            '[effect]\nkind = "shift"\ndelta = 1.0\n'
        )
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert load_scenario_file(marked) == load_scenario_file(plain)

    def test_unknown_kind(self, tmp_path):
        bad = dict(self.doc, law={"kind": "cauchy"})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(DataValidationError):
            load_scenario_file(path)

    def test_loaded_scenario_runs(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.doc))
        scenario = load_scenario_file(path)
        estimates = run_size_power(
            scenario, replicates=100, rng=RngStream(2), rows=("process",)
        )
        assert len(estimates) == 6


class TestTomlSubsetFallback:
    """_toml_subset_loads, the scenario-file reader for interpreters
    without tomllib, called directly so it runs on every Python."""

    TEXT = (
        "# a scenario\n"
        'name = "demo#1"\n'
        "n1 = 6\n"
        "ratio = -1.5e1\n"
        "adjust_equal_means = true\n"
        'hypothesis_truth = ["EUP", "RAs"]\n'
        "\n"
        "[law]\n"
        'kind = "normal"  # trailing comment\n'
        "sd = 2.0\n"
        "[ fixed_y ]\n"
        "y1 = [0, 1]\n"
    )

    def test_sections_and_values(self):
        doc = _toml_subset_loads(self.TEXT, "demo.toml")
        assert doc == {
            "name": "demo#1",
            "n1": 6,
            "ratio": -15.0,
            "adjust_equal_means": True,
            "hypothesis_truth": ["EUP", "RAs"],
            "law": {"kind": "normal", "sd": 2.0},
            "fixed_y": {"y1": [0, 1]},
        }
        assert type(doc["n1"]) is int and type(doc["ratio"]) is float

    def test_agrees_with_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        assert _toml_subset_loads(self.TEXT, "demo.toml") == tomllib.loads(self.TEXT)

    @pytest.mark.parametrize("text, message", [
        ('name = "x"\n[[law]]\n', "demo.toml: line 2: unsupported table header"),
        ("[]\n", "demo.toml: line 1: unsupported table header"),
        ("n1 6\n", "demo.toml: line 1: expected 'key = value'"),
        ("n1 =\n", "demo.toml: line 1: expected 'key = value'"),
        ("\nkind = normal\n", "demo.toml: line 2: unsupported value syntax 'normal'"),
    ])
    def test_errors(self, text, message):
        with pytest.raises(DataValidationError) as exc:
            _toml_subset_loads(text, "demo.toml")
        assert str(exc.value) == message
