import argparse
import math
import importlib
import json
import shutil
import subprocess
from dataclasses import fields
from pathlib import Path

import jsonschema
import pytest

import randcompare.cli
import randcompare.inference
import randcompare.simulation
from randcompare import (
    ExactEngine,
    MonteCarloEngine,
    RngStream,
    TestReport as Report,
    UniformCRD,
    explicit_from_json,
    fisher_randomization_test,
    load_dataset,
    permutation_test,
    wilcoxon_test,
)
from randcompare.cli import main
from randcompare.datasets import bundled_dataset_path
from randcompare.inference import STOP_CHUNK

SCHEMAS = {}
for name in ("test_report", "simulation"):
    path = bundled_dataset_path("cellphone").parent.parent / "schemas"
    with open(path / f"{name}.schema.json", "r", encoding="utf-8") as fh:
        SCHEMAS[name] = json.load(fh)


def run_cli(*argv):
    """main() with stdout captured; returns (exit_code, stdout_text)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestTestCommand:
    def test_worked_example_table(self):
        code, out = run_cli(
            "test", "--data", "cellphone.csv",
            "--tests", "fisher-rand,neyman-rand",
            "--design", "crd", "--seed", "7",
        )
        assert code == 0
        assert "n=64, arm1=32, arm2=32" in out
        assert "difference: 51.59375" in out
        assert "monte_carlo (budget=1000000, seed=7)" in out
        fisher = next(l for l in out.splitlines() if l.startswith("fisher_rand"))
        neyman = next(l for l in out.splitlines() if l.startswith("neyman_rand"))
        assert fisher.split() == [
            "fisher_rand", "RUs", "51.5938", "0.00755499", "monte_carlo", "8.66e-05"
        ]
        assert neyman.split() == [
            "neyman_rand", "RAs", "2.6728", "0.00752211", "asymptotic", "-"
        ]

    def test_bundled_name_fallback(self):
        code_a, out_a = run_cli("test", "--data", "cellphone", "--seed", "1",
                                "--tests", "welch")
        code_b, out_b = run_cli(
            "test", "--data", str(bundled_dataset_path("cellphone")),
            "--seed", "1", "--tests", "welch",
        )
        assert code_a == code_b == 0
        # identical apart from the dataset path line
        tail = lambda text: text.splitlines()[1:]
        assert tail(out_a) == tail(out_b)

    def test_json_output_validates(self):
        code, out = run_cli(
            "test", "--data", "cellphone.csv", "--seed", "7", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["test_report"])
        assert doc["seed"] == 7
        assert len(doc["reports"]) == 6
        assert [r["test"] for r in doc["reports"]] == [
            "fisher_rand", "neyman_rand", "permutation",
            "wilcoxon", "welch_t", "pooled_t",
        ]
        assert len(doc["notices"]) == 1
        assert doc["notices"][0]["test"] == "fisher_sel"
        assert doc["notices"][0]["error"] == "noncomputable_distribution"
        by_name = {r["test"]: r for r in doc["reports"]}
        # shared engine stream: the two difference-statistic tests agree
        assert by_name["permutation"]["p_value"] == by_name["fisher_rand"]["p_value"]
        assert by_name["welch_t"]["p_value_kind"] == "asymptotic"

    def test_reruns_are_byte_identical(self):
        args = ("test", "--data", "cellphone.csv", "--seed", "42",
                "--format", "json")
        assert run_cli(*args) == run_cli(*args)

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("RANDCOMPARE_SEED", "7")
        _, out_env = run_cli("test", "--data", "cellphone.csv", "--format", "json")
        monkeypatch.delenv("RANDCOMPARE_SEED")
        _, out_flag = run_cli("test", "--data", "cellphone.csv", "--seed", "7",
                              "--format", "json")
        assert out_env == out_flag
        _, out_default = run_cli("test", "--data", "cellphone.csv", "--format", "json")
        assert json.loads(out_default)["seed"] == 0

    def test_env_seed_invalid(self, monkeypatch, capsys):
        monkeypatch.setenv("RANDCOMPARE_SEED", "lucky")
        code, _ = run_cli("test", "--data", "cellphone.csv")
        assert code == 2
        assert "RANDCOMPARE_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["-1", str(2**64)])
    def test_env_seed_out_of_range(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("RANDCOMPARE_SEED", raw)
        code, out = run_cli("test", "--data", "cellphone.csv", "--tests", "welch",
                            "--format", "json")
        assert code == 2 and out == ""
        assert "RANDCOMPARE_SEED" in capsys.readouterr().err

    def test_env_seed_largest(self, monkeypatch):
        monkeypatch.setenv("RANDCOMPARE_SEED", str(2**64 - 1))
        code, out = run_cli("test", "--data", "cellphone.csv", "--tests", "welch",
                            "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["test_report"])
        assert doc["seed"] == 2**64 - 1

    def test_csv_format(self):
        code, out = run_cli(
            "test", "--data", "cellphone.csv", "--seed", "7",
            "--tests", "welch,pooled", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[:5] == [
            "test", "hypothesis", "statistic", "p_value", "p_value_kind"
        ]
        welch = lines[1].split(",")
        assert welch[0] == "welch_t"
        # full-precision repr round-trips through the csv
        assert float(welch[3]) == pytest.approx(0.011, abs=5e-4)

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            "test", "--data", "cellphone.csv", "--seed", "7",
            "--format", "json", "--out", str(target),
        )
        assert code == 0 and out == ""
        jsonschema.validate(json.loads(target.read_text()), SCHEMAS["test_report"])

    def test_explicit_design_file(self, tmp_path):
        # two-point design over 6 units; observed labels are the first atom
        doc = {
            "support": [[1, 1, 1, 2, 2, 2], [2, 2, 2, 1, 1, 1]],
            "probs": [0.75, 0.25],
        }
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(doc))
        data_path = tmp_path / "six.csv"
        data_path.write_text(
            "unit_id,treatment,response\n"
            "1,1,3\n2,1,1\n3,1,4\n4,2,1\n5,2,5\n6,2,9\n"
        )
        code, out = run_cli(
            "test", "--data", str(data_path), "--design", str(design_path),
            "--tests", "fisher-rand", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["engine"]["kind"] == "exact"
        # the unobserved atom has the larger |D|, so the whole support is
        # at least as extreme as the observed one
        assert doc["reports"][0]["p_value"] == 1.0

    def test_default_engine_is_exact_up_to_the_cap(self, tmp_path):
        # C(22, 11) = 705,432 assignments fit ENUMERATION_CAP, so the
        # default is the exact engine, which --engine exact would not refuse
        data = tmp_path / "d22.csv"
        data.write_text("unit_id,treatment,response\n" + "".join(
            f"{i + 1},{1 + i % 2},{(7 * i) % 11}\n" for i in range(22)))
        code, out = run_cli("test", "--data", str(data), "--tests", "permutation",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["engine"] == {"kind": "exact", "enumeration_cap": 2_000_000}

    def test_mc_flag_implies_engine(self):
        code, out = run_cli(
            "test", "--data", "cellphone.csv", "--tests", "welch",
            "--mc", "2000", "--seed", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["engine"] == {
            "kind": "monte_carlo", "budget": 2000, "seed": 3
        }

    @pytest.mark.parametrize("argv", [
        ("test", "--data", "cellphone.csv", "--tests", "welch", "--mc", "0"),
        ("test", "--data", "cellphone.csv", "--tests", "welch", "--mc", "999"),
        ("simulate", "t3.sc1", "--replicates", "100", "--mc", "999"),
    ], ids=["0", "999", "simulate_999"])
    def test_mc_budget_below_floor_is_2(self, argv, capsys):
        code, out = run_cli(*argv, "--format", "json")
        assert code == 2
        assert out == ""
        assert ">= 1000" in capsys.readouterr().err

    def test_mc_budget_at_floor_runs(self):
        code, out = run_cli("test", "--data", "cellphone.csv", "--tests", "welch",
                            "--mc", "1000", "--format", "json")
        assert code == 0
        assert json.loads(out)["engine"]["budget"] == 1000

    def test_mc_flag_conflicts_with_exact(self, capsys):
        code, _ = run_cli(
            "test", "--data", "cellphone.csv", "--mc", "2000",
            "--engine", "exact",
        )
        assert code == 2
        assert "--mc" in capsys.readouterr().err


SIX_CSV = "unit_id,treatment,response\n1,1,3\n2,1,1\n3,1,4\n4,2,1\n5,2,5\n6,2,9\n"
# four atoms over six units, the observed labels first; every unit can
# land in either arm
SIX_DESIGN = {
    "support": [[1, 1, 1, 2, 2, 2], [2, 2, 2, 1, 1, 1],
                [1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1]],
    "probs": [0.4, 0.3, 0.2, 0.1],
}


@pytest.fixture
def six_files(tmp_path):
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV)
    design = tmp_path / "design.json"
    design.write_text(json.dumps(SIX_DESIGN))
    return str(data), str(design)


# every resampling test, with an asymptotic one between them; --tests all
# also runs neyman-rand, which an explicit design does not support
RESAMPLING_TESTS = "fisher-rand,welch,permutation,wilcoxon"


class TestGroupedResampling:
    """The command scores the resampling tests that share a design on one
    kernel call; each report must still equal its standalone function's."""

    @staticmethod
    def assert_matches_standalone(argv, data, design, engine, tests="all"):
        code, out = run_cli("test", "--data", data, "--tests", tests,
                            "--format", "json", *argv)
        assert code == 0
        got = {r["test"]: r for r in json.loads(out)["reports"]}
        observed = load_dataset(Path(data)).observed
        expected = (
            fisher_randomization_test(observed, design, engine),
            permutation_test(observed, engine),
            wilcoxon_test(observed, engine),
        )
        for report in expected:
            assert got[report.test] == report.to_dict()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_monte_carlo_field_study(self, seed):
        data = str(bundled_dataset_path("cellphone"))
        engine = MonteCarloEngine(2000, RngStream(seed))
        self.assert_matches_standalone(
            ("--mc", "2000", "--seed", str(seed)), data, UniformCRD(64, 32), engine
        )

    def test_exact_six_units(self, six_files):
        data, _ = six_files
        self.assert_matches_standalone(
            ("--engine", "exact"), data, UniformCRD(6, 3), ExactEngine()
        )

    @pytest.mark.parametrize("argv, engine", [
        (("--engine", "exact"), ExactEngine()),
        (("--mc", "2000", "--seed", "5"), MonteCarloEngine(2000, RngStream(5))),
    ])
    def test_explicit_design_file(self, six_files, argv, engine):
        data, design = six_files
        self.assert_matches_standalone(
            ("--design", design, *argv), data, explicit_from_json(Path(design)),
            engine, tests=RESAMPLING_TESTS,
        )

    @pytest.mark.parametrize("explicit, rows", [(False, 2000), (True, 4000)])
    def test_all_draws_each_design_once(self, monkeypatch, six_files, explicit, rows):
        drawn = []
        original = randcompare.inference.sample_assignment_batch

        def counting(design, size, gen):
            batch = original(design, size, gen)
            drawn.append(len(batch))
            return batch

        monkeypatch.setattr(randcompare.inference, "sample_assignment_batch", counting)
        data, design = six_files
        argv = ("--design", design) if explicit else ()
        code, _ = run_cli("test", "--data", data, "--tests", RESAMPLING_TESTS,
                          "--mc", "2000", *argv)
        assert code == 0
        assert sum(drawn) == rows

    def test_repeated_test_names(self):
        code, out = run_cli("test", "--data", "cellphone.csv", "--mc", "2000",
                            "--tests", "permutation,permutation", "--format", "json")
        assert code == 0
        first, second = json.loads(out)["reports"]
        assert first == second
        observed = load_dataset(bundled_dataset_path("cellphone")).observed
        assert first == permutation_test(
            observed, MonteCarloEngine(2000, RngStream(0))
        ).to_dict()

    def test_errors_keep_tests_order(self, tmp_path, six_files, capsys):
        data, _ = six_files
        # the observed labels are outside this design's support
        design = tmp_path / "other.json"
        design.write_text(json.dumps(
            {"support": [[1, 2, 1, 2, 1, 2], [2, 1, 2, 1, 2, 1]], "probs": [0.5, 0.5]}
        ))
        code, _ = run_cli("test", "--data", data, "--design", str(design),
                          "--tests", "neyman-sel,fisher-rand")
        assert code == 3
        code, _ = run_cli("test", "--data", data, "--design", str(design),
                          "--tests", "fisher-rand,neyman-sel")
        assert code == 2
        assert "outside the design support" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run_cli("test", "--data", data, "--engine", "asymptotic",
                    "--tests", "welch,wilcoxon,permutation")
        assert exc.value.code == 2
        assert "invalid choice: 'asymptotic'" in capsys.readouterr().err

    def test_scoring_errors_keep_tests_order(self, tmp_path, capsys):
        # 13 + 13 units: the permutation test's own design has
        # C(26, 13) = 10,400,600 assignments, past the exact cap
        labels = [1] * 13 + [2] * 13
        data = tmp_path / "d26.csv"
        data.write_text("unit_id,treatment,response\n" + "".join(
            f"{i + 1},{t},{(7 * i) % 11}\n" for i, t in enumerate(labels)))
        design = tmp_path / "two_point.json"
        design.write_text(json.dumps(
            {"support": [labels, [3 - t for t in labels]], "probs": [0.5, 0.5]}))
        argv = ("test", "--data", str(data), "--design", str(design), "--engine", "exact")
        assert run_cli(*argv, "--tests", "permutation,neyman-sel")[0] == 4
        assert "exceeds enumeration cap" in capsys.readouterr().err
        assert run_cli(*argv, "--tests", "neyman-sel,permutation")[0] == 3
        assert "needs a census" in capsys.readouterr().err

    def test_an_error_first_draws_nothing(self, monkeypatch, tmp_path, capsys):
        drawn = []
        original = randcompare.inference.sample_assignment_batch

        def counting(design, size, gen):
            batch = original(design, size, gen)
            drawn.append(len(batch))
            return batch

        monkeypatch.setattr(randcompare.inference, "sample_assignment_batch", counting)
        # the observed assignment and its mirror: no census, so neyman-sel
        # fails before permutation's million draws are needed
        labels = load_dataset(bundled_dataset_path("cellphone")).observed.assignment.labels
        design = tmp_path / "mirror.json"
        design.write_text(json.dumps({"support": [labels.tolist(), (3 - labels).tolist()],
                                      "probs": [0.5, 0.5]}))
        code, _ = run_cli("test", "--data", "cellphone", "--design", str(design),
                          "--tests", "neyman-sel,permutation", "--mc", "1000000")
        assert code == 3
        assert "needs a census" in capsys.readouterr().err
        assert sum(drawn) == 0

    def test_all_draws_its_budget_once(self, drawn_rows, six_files):
        """The test command reports full-budget p-values: no draw is spared."""
        data, _ = six_files
        code, _ = run_cli("test", "--data", data, "--tests", "all", "--design", "crd",
                          "--mc", "2000")
        assert code == 0
        assert sum(drawn_rows) == 2000 and max(drawn_rows) <= STOP_CHUNK

    def test_all_scores_two_columns(self, monkeypatch, six_files):
        """fisher-rand and permutation have one column under --design crd."""
        widths = []
        tails = MonteCarloEngine.tails

        def counting(engine, design, columns):
            widths.append(len(columns))
            return tails(engine, design, columns)

        monkeypatch.setattr(MonteCarloEngine, "tails", counting)
        data, _ = six_files
        code, _ = run_cli("test", "--data", data, "--tests", "all", "--design", "crd",
                          "--mc", "2000")
        assert code == 0
        assert widths == [2]


SCENARIO = {"name": "demo", "n1": 5, "n2": 5, "law": {"kind": "normal", "mean": 0, "sd": 1},
            "effect": {"kind": "identity"}}


class TestExitCodes:
    def test_duplicate_unit_id_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "unit_id,treatment,response\n1,1,3\n1,1,4\n2,2,5\n3,2,6\n"
        )
        code, _ = run_cli("test", "--data", str(bad))
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    def test_unknown_scenario_is_2(self, capsys):
        code, _ = run_cli("simulate", "t9.sc9", "--replicates", "100")
        assert code == 2
        err = capsys.readouterr().err
        assert "t3.sc1" in err and "t6.sc6" in err

    def test_bad_alpha_is_2(self, capsys):
        code, _ = run_cli("simulate", "t3.sc1", "--replicates", "100",
                          "--alpha", "1.5")
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_2(self, threads, capsys):
        code, out = run_cli("simulate", "t3.sc1", "--replicates", "100",
                            "--threads", threads, "--format", "json")
        assert (code, out) == (2, "")
        assert "threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "-0.5", "1.5", "7", "nan"])
    def test_test_alpha_outside_unit_interval_is_2(self, alpha, capsys):
        code, out = run_cli("test", "--data", "cellphone", "--tests", "welch",
                            "--alpha", alpha, "--format", "json")
        assert (code, out) == (2, "")
        assert "alpha must lie in (0, 1]" in capsys.readouterr().err

    def test_test_alpha_one_runs(self):
        code, out = run_cli("test", "--data", "cellphone", "--tests", "welch",
                            "--alpha", "1", "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMAS["test_report"])

    @pytest.mark.parametrize("filename, content, command", [
        ("design.json", b'{"support": [[1, 2]', ("test", "--data", "cellphone", "--design")),
        ("data.csv", b"unit_id,treatment,response\n1,1,3\n2,2,\xff\n", ("test", "--data")),
        ("n1.json", json.dumps({**SCENARIO, "n1": "five"}).encode(),
         ("simulate", "--replicates", "100")),
        ("truth.json", json.dumps({**SCENARIO, "hypothesis_truth": ["UP", "XX"]}).encode(),
         ("simulate", "--replicates", "100")),
        ("sd.json", json.dumps({**SCENARIO, "law": {"kind": "normal", "mean": 0, "sd": "2"}})
         .encode(), ("simulate", "--replicates", "100")),
        ("delta.json", json.dumps({**SCENARIO, "effect": {"kind": "shift", "delta": True}})
         .encode(), ("simulate", "--replicates", "100")),
        ("truth_int.json", json.dumps({**SCENARIO, "hypothesis_truth": 5}).encode(),
         ("simulate", "--replicates", "100")),
        ("n1_float.json", json.dumps({**SCENARIO, "n1": 10.7}).encode(),
         ("simulate", "--replicates", "100")),
        ("adjust.json", json.dumps({**SCENARIO, "adjust_equal_means": "false"}).encode(),
         ("simulate", "--replicates", "100")),
        ("count.json", json.dumps({**SCENARIO, "fixed_large_count": "1", "law": {
            "kind": "uniform_mixture", "weight": 0.9, "lo1": 0, "hi1": 20, "lo2": 200,
            "hi2": 201}}).encode(), ("simulate", "--replicates", "100")),
        ("fixed_y.json", json.dumps({**SCENARIO, "fixed_y": {"y1": [0] * 10, "y2": "ab"}})
         .encode(), ("simulate", "--replicates", "100")),
        ("name.json", json.dumps({**SCENARIO, "name": 5}).encode(),
         ("simulate", "--replicates", "100")),
        ("n1_huge.json", json.dumps({**SCENARIO, "n1": 10**400}).encode(),
         ("simulate", "--replicates", "100")),
    ], ids=["design_not_json", "data_not_utf8", "n1_not_integer", "unknown_hypothesis",
            "law_parameter_string", "effect_parameter_bool", "hypothesis_truth_not_list",
            "n1_not_integral", "flag_not_bool", "count_string", "fixed_y_not_numbers",
            "name_not_string", "population_past_index_range"])
    def test_malformed_input_file_is_2(self, tmp_path, capsys, filename, content, command):
        path = tmp_path / filename
        path.write_bytes(content)
        code, _ = run_cli(*command, str(path))
        assert code == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("filename, command", [
        ("data.csv", ("test", "--data")),
        ("design.json", ("test", "--data", "cellphone", "--design")),
        ("scenario.json", ("simulate", "--replicates", "100")),
        ("scenario.toml", ("simulate", "--replicates", "100")),
    ])
    def test_input_file_not_utf8_is_2(self, tmp_path, capsys, filename, command):
        path = tmp_path / filename
        path.write_bytes(b"\xff")
        code, out = run_cli(*command, str(path))
        assert (code, out) == (2, "")
        assert f"{path}: not valid UTF-8: " in capsys.readouterr().err

    def test_unmet_conditioning_is_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(randcompare.simulation, "_MAX_CONDITION_ATTEMPTS", 10)
        path = tmp_path / "never.json"
        path.write_text(json.dumps({**SCENARIO, "fixed_large_count": 1}))
        code, _ = run_cli("simulate", "--replicates", "100", str(path))
        assert code == 2
        assert "'demo'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"fixed_large_count": 11}, "fixed_large_count"),
        ({"adjust_equal_means": True}, "adjust_equal_means"),
        ({"fixed_y": {"y1": [0, 1], "y2": [0, 1]}}, "fixed table size"),
        ({"law": {"kind": "normal", "mean": 0, "sd": -1}}, "sd > 0"),
        ({"law": {"kind": "cauchy"}}, "unknown law kind 'cauchy'"),
    ])
    def test_scenario_file_refused_by_scenario_is_2(self, tmp_path, capsys, extra, message):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps({**SCENARIO, **extra}))
        code, out = run_cli("simulate", "--replicates", "100", str(path))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert f"error: {path}: " in err
        assert message in err

    def test_unknown_test_name_is_2(self, capsys):
        code, _ = run_cli("test", "--data", "cellphone.csv", "--tests", "anova")
        assert code == 2
        assert "anova" in capsys.readouterr().err

    def test_missing_data_file_is_2(self, capsys):
        code, _ = run_cli("test", "--data", "nope.csv")
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_population_average_needs_census_is_3(self, tmp_path, capsys):
        doc = {
            "support": [[1, 1, 2, 2], [2, 2, 1, 1]],
            "probs": [0.5, 0.5],
        }
        design_path = tmp_path / "design.json"
        design_path.write_text(json.dumps(doc))
        data_path = tmp_path / "four.csv"
        data_path.write_text(
            "unit_id,treatment,response\n1,1,3\n2,1,1\n3,2,4\n4,2,1\n"
        )
        code, _ = run_cli(
            "test", "--data", str(data_path), "--design", str(design_path),
            "--tests", "neyman-sel",
        )
        assert code == 3
        assert "census" in capsys.readouterr().err

    def test_enumeration_too_large_is_4(self, capsys):
        code, _ = run_cli(
            "test", "--data", "cellphone.csv", "--engine", "exact",
            "--tests", "fisher-rand",
        )
        assert code == 4
        assert "1832624140942590534" in capsys.readouterr().err

    @pytest.mark.parametrize("tests", ["permutation", "wilcoxon", "all"])
    def test_exact_counter_keeps_the_cap(self, capsys, tests):
        # a uniform CRD counts its tails without enumerating them, yet the
        # exact engine still refuses C(64, 32) assignments
        code, _ = run_cli("test", "--data", "cellphone.csv", "--engine", "exact",
                          "--tests", tests)
        assert code == 4
        assert ("support size 1832624140942590534 exceeds enumeration cap 2000000"
                in capsys.readouterr().err)

    def test_exact_past_128_bits_is_4(self, tmp_path, capsys):
        # C(150, 75) needs more than 128 bits and is still only too large
        data = tmp_path / "d150.csv"
        data.write_text("unit_id,treatment,response\n" + "".join(
            f"{i + 1},{1 + i % 2},{(7 * i) % 11}\n" for i in range(150)))
        code, _ = run_cli("test", "--data", str(data), "--engine", "exact")
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: support size {math.comb(150, 75)} exceeds enumeration cap 2000000\n")

    def test_exact_past_4300_digits_is_4(self, tmp_path, capsys):
        # C(15000, 7500) has more digits than str() writes out; the design
        # is refused without computing or printing it
        data = tmp_path / "d15000.csv"
        data.write_text("unit_id,treatment,response\n" + "".join(
            f"{i + 1},{1 + i % 2},{(7 * i) % 11}\n" for i in range(15000)))
        code, _ = run_cli("test", "--data", str(data), "--tests", "permutation",
                          "--engine", "exact")
        assert code == 4
        assert capsys.readouterr().err == (
            "error: support size of more than 4000 digits exceeds enumeration cap 2000000\n")


class TestSimulateCommand:
    def test_json_output_validates(self):
        code, out = run_cli(
            "simulate", "t3.sc1", "--replicates", "100", "--seed", "11",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["simulation"])
        assert doc["replicates"] == 100
        assert len(doc["estimates"]) == 12
        rows = {(e["row"], e["test"]) for e in doc["estimates"]}
        assert ("randomization", "fisher_rand") in rows
        assert ("process", "neyman_rand") in rows

    def test_rank_test_na_cell(self):
        code, out = run_cli(
            "simulate", "t3.sc6", "--replicates", "100", "--seed", "5",
            "--format", "json",
        )
        doc = json.loads(out)
        wilcoxon = [e for e in doc["estimates"] if e["test"] == "wilcoxon"]
        assert all(e["rejection_rate"] is None for e in wilcoxon)
        code, out = run_cli(
            "simulate", "t3.sc6", "--replicates", "100", "--seed", "5",
        )
        assert "NA" in out

    def test_thread_counts_do_not_change_results(self):
        args = ("simulate", "t3.sc1", "--replicates", "100", "--seed", "11",
                "--format", "csv")
        _, single = run_cli(*args, "--threads", "1")
        _, eight = run_cli(*args, "--threads", "8")
        assert single == eight

    def test_scenario_file(self, tmp_path):
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({
            "name": "demo",
            "n1": 10, "n2": 10,
            "law": {"kind": "normal", "mean": 100.0, "sd": 20.0},
            "effect": {"kind": "identity"},
        }))
        code, out = run_cli(
            "simulate", str(path), "--replicates", "100", "--seed", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert {e["scenario"] for e in doc["estimates"]} == {"demo"}

    def test_scenario_required(self, capsys):
        code, _ = run_cli("simulate")
        assert code == 2
        assert "--all-tables" in capsys.readouterr().err

    def test_exact_small_flag(self):
        code, out = run_cli(
            "simulate", "t3.sc1", "--replicates", "100", "--seed", "11",
            "--exact-small", "--format", "json",
        )
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMAS["simulation"])

    def test_exact_small_past_the_cap_runs(self):
        code, out = run_cli(
            "simulate", "t5.sc1", "--replicates", "100", "--exact-small", "--format", "json",
        )
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMAS["simulation"])


def test_csv_headers_match_fields_and_schemas():
    """The test report's fields, the test CSV header and the report schema
    name the same fields in the same order; likewise the simulate CSV
    header and the schema's estimate items."""
    names = [f.name for f in fields(Report)]
    _, out = run_cli("test", "--data", "cellphone.csv", "--tests", "welch", "--format", "csv")
    report = SCHEMAS["test_report"]["$defs"]["report"]
    assert out.splitlines()[0].split(",") == names
    assert list(report["properties"]) == names
    assert report["required"] == names
    _, out = run_cli("simulate", "t3.sc1", "--replicates", "100", "--format", "csv")
    item = SCHEMAS["simulation"]["properties"]["estimates"]["items"]
    assert out.splitlines()[0].split(",") == list(item["properties"]) == item["required"]


def test_engine_kinds_match_the_schema(tmp_path):
    """The test command's --engine choices write exactly the engine kinds
    that the report schema lists."""
    data = tmp_path / "six.csv"
    data.write_text(SIX_CSV)
    parser = randcompare.cli._build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    [engine] = [a for a in subparsers.choices["test"]._actions if a.dest == "engine"]
    kinds = set()
    for choice in engine.choices:
        code, out = run_cli("test", "--data", str(data), "--tests", "welch",
                            "--engine", choice, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMAS["test_report"])
        kinds.add(doc["engine"]["kind"])
    assert kinds == set(SCHEMAS["test_report"]["properties"]["engine"]["properties"]
                        ["kind"]["enum"])


class TestValidateCommand:
    def test_bundled_dataset(self):
        code, out = run_cli("validate", "--data", "cellphone")
        assert code == 0
        assert ": OK" in out
        assert "n: 64" in out
        assert "mean_difference: 51.59375" in out

    def test_json_format(self):
        code, out = run_cli("validate", "--data", "cellphone", "--format", "json")
        doc = json.loads(out)
        assert doc["n1"] == 32 and doc["n2"] == 32
        assert doc["mean_difference"] == pytest.approx(51.59375)

    def test_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("unit_id,treatment,response\n1,3,5\n")
        code, _ = run_cli("validate", "--data", str(bad))
        assert code == 2
        assert "treatment" in capsys.readouterr().err


def test_table_names_each_report(tmp_path):
    """Each CLI spelling yields a report, or a notice, under its report name."""
    data = tmp_path / "binary.csv"
    data.write_text("unit_id,treatment,response\n1,1,1\n2,1,0\n3,1,1\n"
                    "4,2,0\n5,2,0\n6,2,1\n")
    for report_name, entry in randcompare.inference.TESTS.items():
        code, out = run_cli("test", "--data", str(data), "--tests", entry.spelling,
                            "--format", "json")
        assert code == 0, entry.spelling
        doc = json.loads(out)
        [entry] = doc["reports"] + doc["notices"]
        assert entry["test"] == report_name


def test_closed_form_tests_have_one_patch_point(monkeypatch, tmp_path):
    """The command, the harness and the public function build a
    closed-form or a resampling test through its entry in
    randcompare.inference.TESTS: the harness once per block of replicates,
    the others on a block of one."""
    observed = randcompare.ObservedExperiment.from_arms([1.0, 2.0], [3.0, 5.0])
    for test, argv, public in (
            ("welch_t", ("--tests", "welch"), lambda: randcompare.welch_t_test(observed)),
            ("permutation", ("--tests", "permutation", "--mc", "1000"),
             lambda: permutation_test(observed, ExactEngine()))):
        calls = []
        entry = randcompare.inference.TESTS[test]

        def counting(block, design, census, entry=entry, calls=calls):
            calls.append(len(block))
            return entry.build(block, design, census)

        monkeypatch.setitem(randcompare.inference.TESTS, test, entry._replace(build=counting))
        randcompare.simulation.run_size_power("t3.sc1", test_suite=(test,),
                                              replicates=100, rng=RngStream(5))
        assert calls == [100, 100], test
        code, _ = run_cli("test", "--data", "cellphone", *argv)
        assert code == 0
        assert calls == [100, 100, 1], test
        public()
        assert calls == [100, 100, 1, 1], test


def test_closed_form_tests_refuse_huge_responses(tmp_path, capsys):
    """Finite responses whose arm variance, or the sums the resampling
    tests count, overflow exit 2 with a message from the first test, and
    numpy prints no warning."""
    data = tmp_path / "huge.csv"
    data.write_text("unit_id,treatment,response\n" + "".join(
        f"u{j},{arm},{y}\n" for j, (arm, y) in enumerate(
            [(1, 1e308), (1, -1e308), (1, 1e308), (2, 1), (2, 2), (2, 3)])), encoding="utf-8")
    for tests, quantity in (("welch,pooled,neyman-rand", "standard error"),
                            ("pooled", "standard error"), ("neyman-rand", "standard error"),
                            ("permutation", "range of the resampled statistic"),
                            ("fisher-rand", "range of the resampled statistic")):
        code, out = run_cli("test", "--data", str(data), "--tests", tests)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: the {quantity} is not finite: the responses are too large "
            "for this test\n"), tests


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.parametrize("argv", [
    ("test", "--data", "cellphone", "--tests", "welch"),
    ("simulate", "t3.sc1", "--replicates", "100"),
    ("validate", "--data", "cellphone"),
], ids=lambda argv: argv[0])
def test_every_flag_is_read(tmp_path, argv):
    """A flag whose value the command never reads does nothing."""
    parser = randcompare.cli._build_parser()
    args = parser.parse_args([*argv, "--out", str(tmp_path / "out")])
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    handlers = {"test": randcompare.cli.cmd_test, "simulate": randcompare.cli.cmd_simulate,
                "validate": randcompare.cli.cmd_validate}
    assert handlers[args.command](Recording(**vars(args))) == 0
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest for a in subparsers.choices[args.command]._actions} - {"help"}
    assert sorted(flags - read) == []


def test_module_entry_point(cli_process):
    proc = cli_process("validate", "--data", "cellphone")
    assert proc.returncode == 0, proc.stderr
    assert ": OK" in proc.stdout

    proc = cli_process("--help")
    assert proc.returncode == 0, proc.stderr
    assert "simulate" in proc.stdout


def test_declared_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["randcompare"] == "randcompare.cli:main"
    module, attr = scripts["randcompare"].split(":")
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.skipif(
    shutil.which("randcompare") is None,
    reason="randcompare console script not on PATH; pip install -e . to run",
)
def test_console_script_installed():
    proc = subprocess.run(
        ["randcompare", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
