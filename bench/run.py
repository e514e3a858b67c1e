"""randcompare benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The run first starts a few fresh interpreters to time set-up
(probe.py), then does one warm-up operation, then repeats the
operation until S seconds have passed. Every operation's output is
checked (README.md, "Output checks"); an operation that raises or fails
a check counts as failed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates traced
and untraced operations and reports the per-layer metrics (spans.py).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it give the
provenance and every metric with its unit, including those that are not
bounded. A full record goes to bench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 11
# Host-speed calibration (HostSpeed): the kernel's time on the reference
# host, and the share of each operation's time spent re-timing it.
CAL_REF_S = 0.035
CAL_SHARE = 0.05
WORKLOADS = ("field_study", "sim_mc_n100", "sim_exact_n20", "sim_binary_n100")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads and inherited by the probes.

    With the library default of one thread per CPU, the numpy-bound
    workloads run on both CPUs of a small host and their times follow
    whatever else runs there.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _setup_times(workload: str, seed: int) -> tuple:
    """Median (import_s, setup_s) over SETUP_PROBES fresh interpreters."""
    imports, setups = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, setup_s = map(float, proc.stdout.split())
        imports.append(import_s)
        setups.append(setup_s)
    return statistics.median(imports), statistics.median(setups)


def _blas() -> dict:
    """BLAS library and its thread count, read from the loaded library."""
    import ctypes

    import numpy

    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    # a checkout nested in some other repository must not report its commit
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src" / "randcompare"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance(seed: int) -> dict:
    import numpy

    import randcompare

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "randcompare_version": randcompare.__version__,
        "rng_algorithm": randcompare.RNG_ALGORITHM,
        "workload_seed": seed,
    }


class Run:
    """The operations of one run, each timed and checked."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.first = None
        self.records: list = []
        self.errors: list = []

    def attempt(self, label: str) -> dict:
        wl = self.workload
        t0 = time.perf_counter()
        c0 = os.times()
        try:
            result = wl.run()
        except Exception as exc:  # a raising operation is a failed one
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        wall = time.perf_counter() - t0
        c1 = os.times()
        if error is None:
            error = self._check(result)
        record = {"label": label, "wall_s": wall,
                  "cpu_s": (c1.user - c0.user) + (c1.system - c0.system),
                  "error": error}
        self.records.append(record)
        if error is not None:
            self.errors.append(f"op {len(self.records)} ({label}): {error}")
        return record

    def _check(self, result):
        invariant = self.workload.invariant
        try:
            output = self.workload.output(result)
            broken = invariant(result) if invariant is not None else None
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable output: {exc}"
        if self.expected is not None and output != self.expected:
            return "output differs from the pinned reference"
        if self.first is None:
            self.first = output
        elif output != self.first:
            return "output differs from the run's first operation"
        return broken

    def timed(self, label: str) -> list:
        return [r for r in self.records if r["label"] == label]


class HostSpeed:
    """How fast the host runs a fixed kernel during one run.

    On a shared host the same operation's time can move by 1.8x from one
    minute to the next while the process keeps its CPU busy. The kernel
    (an interpreter loop and small numpy sorts, under 1 MB of data) is
    timed between operations, and the run's times are scaled by
    CAL_REF_S / its median, so that two runs report what the same host
    speed would give.
    """

    def __init__(self):
        import numpy

        self._data = numpy.random.default_rng(0).random(1 << 16)
        self._sort = numpy.sort
        self.samples: list = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        for _ in range(40):
            self._sort(self._data)
        return time.perf_counter() - t0

    def sample(self, seconds: float) -> None:
        """Time the kernel for about `seconds`, at least once."""
        end = time.perf_counter() + seconds
        while True:
            self.samples.append(self._kernel())
            if time.perf_counter() >= end:
                return

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.samples)


def _untraced_loop(run: Run, speed: HostSpeed, seconds: float) -> None:
    start = time.perf_counter()
    while True:
        record = run.attempt("timed")
        speed.sample(CAL_SHARE * record["wall_s"])
        if time.perf_counter() - start >= seconds:
            return


def _traced_loop(run: Run, tracer, speed: HostSpeed, seconds: float) -> list:
    """Alternate traced and untraced operations; per-layer summaries of the traced ones."""
    summaries = []
    start = time.perf_counter()
    while True:
        op_id = len(run.records) + 1
        with tracer.traced(op_id):
            record = run.attempt("traced")
        summaries.append(tracer.summary(op_id, record["wall_s"]))
        record = run.attempt("untraced")
        speed.sample(CAL_SHARE * record["wall_s"])
        if time.perf_counter() - start >= seconds:
            return summaries


def _end_to_end(run: Run, speed: HostSpeed, setup_s: float) -> tuple:
    walls = [r["wall_s"] for r in run.timed("timed")]
    scale = speed.scale()
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "op_p50_s": (statistics.median(walls) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # No workload reaches the 100 operations a run would need for a p90
    # with ten operations beyond it, so only the median is reported.
    extras = {"ops": (len(walls), "count"),
              "op_wall_p50_s": (statistics.median(walls), "s"),
              "setup_wall_s": (setup_s, "s"),
              "calibration_s": (statistics.median(speed.samples), "s")}
    if run.workload.replicates_per_op:
        extras["replicates_per_s"] = (
            run.workload.replicates_per_op * len(walls) / sum(walls), "1/s")
    return metrics, extras


def _per_layer(run: Run, summaries: list, speed: HostSpeed, import_s: float) -> tuple:
    from spans import METRIC_NAMES

    traced = run.timed("traced")
    untraced = run.timed("untraced")
    metrics = {}
    counts = [{k: v for k, v in s.items() if not k.endswith("pct")} for s in summaries]
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            traced[i]["error"] = "per-layer counts differ from the first traced operation"
            run.errors.append(f"traced op {i + 1}: {traced[i]['error']}")
    for name in METRIC_NAMES:
        if name.endswith("pct"):
            metrics[name] = (statistics.median(s[name] for s in summaries), "%")
        else:
            metrics[name] = (counts[0][name], "count")
    scale = speed.scale()
    traced_p50 = statistics.median(r["wall_s"] for r in traced)
    metrics["import_s"] = (import_s * scale, "s")
    metrics["cpu_util"] = (
        sum(r["cpu_s"] for r in untraced) / sum(r["wall_s"] for r in untraced), "ratio")
    metrics["trace_overhead_s"] = (
        (traced_p50 - statistics.median(r["wall_s"] for r in untraced)) * scale, "s")
    extras = {"ops": (len(traced) + len(untraced), "count"),
              "op_traced_wall_p50_s": (traced_p50, "s"),
              "calibration_s": (statistics.median(speed.samples), "s")}
    return metrics, extras


def main(argv=None) -> int:
    args = _parse_args(argv)
    # only the package in this checkout counts, never an installed copy
    if not (ROOT / "src" / "randcompare" / "__init__.py").is_file():
        print(f"error: no randcompare package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import BUILDERS

    t_run = time.perf_counter()
    speed = HostSpeed()
    import_s, setup_s = _setup_times(args.workload, args.seed)
    speed.sample(CAL_SHARE * (time.perf_counter() - t_run))
    workload = BUILDERS[args.workload](args.seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = reference["seeds"].get(str(args.seed), {}).get(args.workload)
    run = Run(workload, expected)
    warmup = run.attempt("warmup")
    speed.sample(CAL_SHARE * warmup["wall_s"])
    if args.trace:
        tracer = Tracer()
        summaries = _traced_loop(run, tracer, speed, args.seconds)
        metrics, extras = _per_layer(run, summaries, speed, import_s)
    else:
        _untraced_loop(run, speed, args.seconds)
        metrics, extras = _end_to_end(run, speed, setup_s)
    attempted = len(run.records)
    failed = sum(r["error"] is not None for r in run.records)
    extras["first_op_s"] = (warmup["wall_s"], "s")
    extras["error_rate"] = (failed / attempted, "ratio")
    extras["pinned_reference"] = (int(expected is not None), "bool")

    provenance = _provenance(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}.csv", t_run)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance, "metrics": metrics, "extras": extras,
              "operations": run.records}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for error in run.errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    print(f"# provenance {json.dumps(provenance, sort_keys=True)}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
