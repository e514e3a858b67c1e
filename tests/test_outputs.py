"""The commands' JSON output: strict JSON, and the test command's exact
engine output pinned byte for byte.

The pinned files are written by the command lines in PINNED, run from the
root of the repository; CI's pinned-outputs job rewrites them the same way
and fails if git sees a change. A change that is meant to move them says so.
"""
import json
from pathlib import Path

import jsonschema
import pytest

from randcompare.cli import main
from randcompare.datasets import bundled_dataset_path

ROOT = Path(__file__).resolve().parent.parent

# pinned file -> the arguments of `randcompare test` that write it. An
# explicit design has no variance bound, so the design run leaves out
# neyman-rand, which --tests all would run.
PINNED = {
    "test_exact_ties20.json": ("--tests", "all"),
    "test_exact_ties20_design.json": (
        "--tests", "fisher-rand,permutation,wilcoxon,welch,pooled,fisher-sel",
        "--design", "tests/data/ties20_design.json"),
}


@pytest.mark.parametrize("name", PINNED)
def test_exact_output_is_pinned(monkeypatch, capsys, name):
    monkeypatch.chdir(ROOT)
    code = main(["test", "--data", "tests/data/ties20.csv", "--engine", "exact",
                 "--format", "json", *PINNED[name]])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == (ROOT / "tests" / "data" / name).read_bytes()


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("argv", [("validate",), ("test", "--tests", "fisher-sel")],
                         ids=["validate", "test"])
def test_overflowing_moments_are_strict_json(tmp_path, capsys, argv):
    # arm 1's mean and variance overflow: they are written as null, which
    # the table shows as '-', and never as Infinity or NaN
    data = tmp_path / "huge.csv"
    data.write_text("unit_id,treatment,response\na,1,1e308\nb,1,1e308\nc,2,1\nd,2,2\n")
    assert main([*argv, "--data", str(data), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse)
    assert (doc["arm1_mean"], doc["mean_difference"], doc["arm2_mean"]) == (None, None, 1.5)
    if argv[0] == "test":
        schemas = bundled_dataset_path("cellphone").parent.parent / "schemas"
        schema = json.loads((schemas / "test_report.schema.json").read_text(encoding="utf-8"))
        jsonschema.validate(doc, schema)
    else:
        assert (doc["arm1_variance"], doc["arm2_variance"]) == (None, 0.5)
