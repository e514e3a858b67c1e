"""Write bench/reference.json: the outputs each workload must reproduce.

    python3 bench/pin.py

Runs one operation of every workload at each pinned seed and stores its
output: the field study's JSON report (with the data path normalised)
and each simulation's (row, test, rejections) triples. Regenerate only
when a change is meant to alter these outputs, and say so in that change.
"""
import json
import sys

from run import REFERENCE, ROOT, WORKLOADS, pin_blas_threads

PINNED_SEEDS = tuple(range(10))


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import BUILDERS

    seeds = {}
    for seed in PINNED_SEEDS:
        seeds[str(seed)] = {}
        for name in WORKLOADS:
            workload = BUILDERS[name](seed)
            seeds[str(seed)][name] = workload.output(workload.run())
        print(f"seed {seed} pinned", file=sys.stderr)
    doc = {"note": "written by bench/pin.py; see README.md", "seeds": seeds}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
