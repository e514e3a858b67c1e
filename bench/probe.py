"""Set-up time of one workload in a fresh interpreter.

    python3 bench/probe.py WORKLOAD SEED

Prints two numbers: the seconds taken by ``import randcompare``, and the
seconds from before that import until the workload's inputs are built,
which is the point where the first timed operation would start. run.py
starts several of these and reports the medians as import_s and setup_s.
Only modules the interpreter loads at start-up are imported before the
clock starts.
"""
import os
import sys
import time


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import randcompare  # noqa: F401
    t1 = time.perf_counter()
    from workloads import BUILDERS

    BUILDERS[name](seed)
    t2 = time.perf_counter()
    print(f"{t1 - t0!r} {t2 - t0!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
