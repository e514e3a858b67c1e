"""The scripts under scripts/ run on the library as it is: each goes
through a child interpreter, so a public name they import that no longer
exists fails here."""
import csv
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DATA = Path(__file__).resolve().parent / "data"


def test_analyze_cellphone_matches_the_cli(python_process, cli_process):
    budget = ("--mc", "1000", "--seed", "7")
    script = python_process(str(SCRIPTS / "analyze_cellphone.py"), *budget)
    assert script.returncode == 0, script.stderr
    cli = cli_process("test", "--data", "cellphone", "--tests", "all", "--format", "json",
                      *budget)
    assert cli.returncode == 0, cli.stderr
    expected = {r["test"]: f"{r['p_value']:.6f}" for r in json.loads(cli.stdout)["reports"]}
    printed = {}
    for line in script.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] in expected:
            printed[fields[0]] = fields[2]
    assert printed == expected


@pytest.mark.parametrize("script", ["analyze_cellphone.py", "reproduce_tables.py"])
def test_help_exits_0(python_process, script):
    proc = python_process(str(SCRIPTS / script), "--help")
    assert proc.returncode == 0, proc.stderr


def test_reproduce_tables_writes_the_harness_rates(python_process, tmp_path):
    out = tmp_path / "t3.csv"
    proc = python_process(str(SCRIPTS / "reproduce_tables.py"), "--table", "t3",
                          "--replicates", "100", "--seed", "11", "--threads", "1",
                          "--exact-small", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # 7 scenarios, 2 rows, 6 tests
    assert len(rows) == 84
    reference = json.loads((DATA / "simulate_all_tables_exact_r100_s11.json").read_text())
    rates = {(e["scenario"], e["row"], e["test"]): e["rejection_rate"]
             for e in reference["estimates"]}
    for row in rows:
        rate = float(row["rate"]) if row["rate"] else None  # NA is written empty
        assert rate == rates[(row["scenario"], row["row"], row["test"])], row
