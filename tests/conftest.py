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
    ObservedExperiment,
    SampleVector,
    bundled_dataset_path,
    load_dataset,
)

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
