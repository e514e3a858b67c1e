import json
import math

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
    ObservedExperiment,
    REFERENCE_RATES,
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
from randcompare.simulation import _toml_subset_loads

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

    def test_exact_small_close_to_mc(self):
        kwargs = dict(replicates=200, rows=("randomization",))
        mc = run_size_power("t3.sc1", rng=RngStream(6), **kwargs)
        ex = run_size_power("t3.sc1", rng=RngStream(6), exact_small=True, **kwargs)
        for a, b in zip(mc, ex):
            # same draws, same fixed table; only the p-value engine differs
            assert abs(a.rejection_rate - b.rejection_rate) <= 2.5


def _mc_stream(master, row, replicate):
    return master.substream(4, 0 if row == "randomization" else 1, replicate)


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
