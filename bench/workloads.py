"""The benchmark's four workloads, built on the public randcompare API only.

Each workload turns a seed into inputs (``build``) and then runs one
operation on them (``Workload.run``). ``Workload.output`` reduces the
result of one operation to a plain, comparable value: the JSON text of
the ``test`` command, or the (row, test, rejections) triples of a
``run_size_power`` call. README.md says why each workload was chosen.

This module imports randcompare at module level; ``probe.py`` times that
import, so nothing else here may be imported before it.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import PurePath
from typing import Callable

import randcompare

# Both conditioning rows in every simulation operation.
SIM_ROWS = ("randomization", "process")


@dataclass(frozen=True)
class Workload:
    run: Callable[[], object]
    output: Callable[[object], object]
    # replicates x rows done by one operation; 0 for the field study
    replicates_per_op: int
    # independent check that holds at any seed (None when there is none)
    invariant: Callable[[object], str | None] | None = None


def _field_study(seed: int) -> Workload:
    from randcompare import cli

    argv = ["test", "--data", "cellphone", "--tests", "all",
            "--format", "json", "--seed", str(seed)]

    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"randcompare test exited with code {code}")
        return buf.getvalue()

    def output(text: str) -> str:
        # The report names the bundled CSV by its absolute path, which
        # differs between checkouts; pin everything else byte for byte.
        path = json.loads(text)["data"]
        if PurePath(path).name != "cellphone.csv":
            raise ValueError(f"unexpected data path {path!r}")
        return text.replace(json.dumps(path), json.dumps("cellphone.csv"), 1)

    def invariant(text: str) -> str | None:
        # permutation and fisher-rand score the same statistic on the
        # same stream under a uniform CRD, so their p-values coincide.
        p = {r["test"]: r["p_value"] for r in json.loads(text)["reports"]}
        if p.get("permutation") is None or p.get("permutation") != p.get("fisher_rand"):
            return f"permutation p {p.get('permutation')} != fisher_rand p {p.get('fisher_rand')}"
        return None

    return Workload(run, output, 0, invariant)


def _sim(scenario_id: str, replicates: int, **kwargs) -> Callable[[int], Workload]:
    def build(seed: int) -> Workload:
        scenario = randcompare.get_scenario(scenario_id)
        rng = randcompare.RngStream(seed)

        def run() -> list:
            return randcompare.run_size_power(
                scenario, replicates=replicates, rng=rng, rows=SIM_ROWS, **kwargs
            )

        def output(estimates: list) -> list:
            return [[e.row, e.test_name, e.rejections] for e in estimates]

        return Workload(run, output, replicates * len(SIM_ROWS))

    return build


# run_size_power refuses fewer than 100 replicates. The binary workload
# uses 1000, the harness's default, so that one operation lasts about a
# second like the others and a brief stall on a shared host moves its
# time less.
BUILDERS: dict = {
    "field_study": _field_study,
    "sim_mc_n100": _sim("t6.sc1", 100, threads=2),
    "sim_exact_n20": _sim("t3.sc1", 100, exact_small=True, threads=1),
    "sim_binary_n100": _sim("t6.sc6", 1000, threads=1),
}
