import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import randcompare
import randcompare.inference
from randcompare import (
    AssignmentVector,
    ObservedBlock,
    ObservedExperiment,
    SampleVector,
    bundled_dataset_path,
    load_dataset,
)
from randcompare.inference import TESTS

# Deterministic property runs: the suite is part of a reproducibility gate,
# so example generation must not vary between invocations.
settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def resampling_plan(name, observed, design=None):
    """The ResamplingPlans of the resampling test name (a key of TESTS) on
    the block of observed alone, built by its TESTS entry, or the error
    that stopped it, raised."""
    plans = TESTS[name].build(observed.block, design, None)
    if plans.failures:
        raise plans.failures[0]
    return plans


def stacked_block(experiments) -> ObservedBlock:
    """The ObservedBlock whose rows are the given experiments, on the first
    one's sample: what an oracle that builds its experiments one at a time
    compares a block with."""
    return ObservedBlock(sample=experiments[0].sample,
                         labels=[obs.assignment.labels for obs in experiments],
                         responses=[obs.responses for obs in experiments])


def plan_bits(statistic, coef, offset, compared) -> tuple:
    """The bits of a plan's numbers, so that equal floats of either sign of
    zero differ: (statistic, offset, compared) and coef, as bytes."""
    return np.array([statistic, offset, compared]).tobytes(), coef.tobytes()


@pytest.fixture(scope="session")
def cellphone():
    return load_dataset(bundled_dataset_path())


@pytest.fixture
def tiny_obs():
    """Four units, two per arm, distinct responses."""
    return ObservedExperiment.from_arms([1.0, 2.0], [3.0, 4.0])


@pytest.fixture
def drawn_rows(monkeypatch):
    """The sizes of the Monte Carlo batches drawn from here on."""
    rows = []
    batch = randcompare.inference.sample_assignment_batch

    def counting(design, size, gen):
        rows.append(size)
        return batch(design, size, gen)

    monkeypatch.setattr(randcompare.inference, "sample_assignment_batch", counting)
    return rows


@pytest.fixture
def six_obs():
    return ObservedExperiment(
        sample=SampleVector(np.arange(1, 7)),
        assignment=AssignmentVector(np.array([1, 1, 1, 2, 2, 2])),
        responses=np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0]),
    )


@pytest.fixture(scope="session")
def python_process():
    """Run a child interpreter: ``run(*args)`` runs ``python *args``.

    The directory holding the imported ``randcompare`` goes first on the
    child's PYTHONPATH, so the child runs the same source as this process
    whether or not the package is installed and wherever pytest was
    started. Returns the ``subprocess.CompletedProcess`` with text stdout
    and stderr.
    """
    source_root = str(Path(randcompare.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [source_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env,
        )

    return run


@pytest.fixture(scope="session")
def cli_process(python_process):
    """Run the command line in a child interpreter: ``run(*args)`` runs
    ``python -m randcompare.cli *args`` through python_process."""
    return lambda *args: python_process("-m", "randcompare.cli", *args)
