"""Minimum-length smoke check of the benchmark.

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs run.py once with --trace 0
and twice with --trace 1, each with --seconds 1 at seed 0, and checks:

- the last line has exactly the keys correct, attempted, failed and
  metrics, with correct true and no failed operation;
- the metrics are exactly the end-to-end (trace 0) or per-layer
  (trace 1) metrics BENCHMARK.json names, each with its unit and a
  finite value, and every end-to-end value is above zero;
- the per-layer counts of the two traced runs are identical.

It then copies BENCHMARK.json and the benchmark's directories, and
nothing else, into bench/out/isolated/ and checks that run.py fails
there without printing a result. Exits 0 when every check passes.
"""
import json
import math
import shutil
import subprocess
import sys

from run import OUT, ROOT

SEED = 0


def _run(cwd, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc, where: str, problems: list):
    if proc.returncode != 0:
        problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(doc)}")
    if doc.get("correct") is not True or doc.get("failed") != 0 or doc.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={doc.get('correct')} attempted="
                        f"{doc.get('attempted')} failed={doc.get('failed')}")
    return doc


def _check_metrics(doc, wanted: list, where: str, positive: bool, problems: list) -> None:
    got = doc["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        problems.append(f"{where}: missing {sorted(set(names) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(names))}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {entry.get('unit')!r} != {m['unit']!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} value {value!r}")
        elif positive and value <= 0:
            problems.append(f"{where}: {m['name']} is {value!r}, not above zero")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list = []
    for wl in spec["workloads"]:
        name = wl["name"]
        doc = _result(_run(ROOT, name, 0), f"{name} trace 0", problems)
        if doc:
            _check_metrics(doc, spec["end_to_end"], f"{name} trace 0", True, problems)
        counts = []
        for attempt in (1, 2):
            where = f"{name} trace 1 (run {attempt})"
            doc = _result(_run(ROOT, name, 1), where, problems)
            if doc:
                _check_metrics(doc, spec["per_layer"], where, False, problems)
                counts.append({k: v["value"] for k, v in doc["metrics"].items()
                               if v["unit"] == "count"})
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{name}: per-layer counts differ between runs: {diff}")
        print(f"{name}: checked", file=sys.stderr)

    isolated = OUT / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", isolated)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, isolated / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(isolated, spec["workloads"][0]["name"], 0)
    shutil.rmtree(isolated)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("isolated copy: run.py did not fail without the package")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
