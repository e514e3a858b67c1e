"""CSV ingestion and validation for observed two-arm experiments.

File format: header ``unit_id,treatment,response``; one row per unit;
unit_id is an opaque distinct string, treatment is 1 or 2, response is a
finite real. Units are numbered 1..n in file order.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
import csv
import io
import json
import math

import numpy as np

from .core import AssignmentVector, ObservedExperiment, SampleVector
from .errors import DataValidationError

_HEADER = ("unit_id", "treatment", "response")


@dataclass(frozen=True)
class LoadedDataset:
    observed: ObservedExperiment
    unit_ids: tuple
    source: str


def bundled_dataset_path(name: str = "cellphone") -> Path:
    """Filesystem path of a dataset shipped with the package."""
    path = resources.files(__package__).joinpath("data", f"{name}.csv")
    if not path.is_file():
        raise DataValidationError(f"no bundled dataset named {name!r}")
    return Path(str(path))


def read_text(path) -> str:
    """The text of an input file: its bytes decoded as UTF-8, with or without
    a leading byte-order mark. Every input file is read here."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DataValidationError(f"cannot read {path}: {exc}") from exc
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not valid UTF-8: {exc}") from exc


def read_json(path):
    """The document in a JSON input file, read by read_text."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"{path}: invalid JSON: {exc}") from exc


def load_dataset(path) -> LoadedDataset:
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    unit_ids: list = []
    labels: list = []
    responses: list = []
    seen: dict = {}
    try:
        header = next(reader)
    except StopIteration:
        raise DataValidationError(f"{path}: empty file") from None
    if tuple(h.strip().lower() for h in header) != _HEADER:
        raise DataValidationError(
            f"{path}: line 1: header must be 'unit_id,treatment,response', "
            f"got {','.join(header)!r}"
        )
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise DataValidationError(
                f"{path}: line {line}: expected 3 fields, got {len(row)}"
            )
        uid = row[0].strip()
        if not uid:
            raise DataValidationError(f"{path}: line {line}: empty unit_id")
        if uid in seen:
            raise DataValidationError(
                f"{path}: line {line}: duplicate unit_id {uid!r} "
                f"(first seen on line {seen[uid]})"
            )
        seen[uid] = line
        try:
            treatment = int(row[1])
        except ValueError:
            raise DataValidationError(
                f"{path}: line {line}: treatment must be 1 or 2, "
                f"got {row[1]!r}"
            ) from None
        if treatment not in (1, 2):
            raise DataValidationError(
                f"{path}: line {line}: treatment must be 1 or 2, got {treatment}"
            )
        try:
            response = float(row[2])
        except ValueError:
            raise DataValidationError(
                f"{path}: line {line}: response must be a real number, "
                f"got {row[2]!r}"
            ) from None
        if not math.isfinite(response):
            raise DataValidationError(
                f"{path}: line {line}: response must be finite, got {row[2]!r}"
            )
        unit_ids.append(uid)
        labels.append(treatment)
        responses.append(response)
    n = len(unit_ids)
    if n < 2:
        raise DataValidationError(f"{path}: need at least 2 data rows, got {n}")
    label_arr = np.asarray(labels, dtype=np.int8)
    if not np.any(label_arr == 1) or not np.any(label_arr == 2):
        raise DataValidationError(f"{path}: both treatment arms must be nonempty")
    observed = ObservedExperiment(
        sample=SampleVector.first_n(n),
        assignment=AssignmentVector(labels=label_arr),
        responses=np.asarray(responses, dtype=np.float64),
    )
    return LoadedDataset(observed=observed, unit_ids=tuple(unit_ids), source=str(path))


def dataset_summary(data: LoadedDataset) -> dict:
    """Arm sizes, means and variances for the validation report."""
    obs = data.observed
    arm1 = obs.arm_responses(1)
    arm2 = obs.arm_responses(2)

    def _var(values: np.ndarray):
        if len(values) < 2:
            return None
        return float(np.var(values, ddof=1))

    return {
        "source": data.source,
        "n": obs.n,
        "n1": obs.n1,
        "n2": obs.n2,
        "arm1_mean": float(arm1.mean()),
        "arm2_mean": float(arm2.mean()),
        "mean_difference": float(arm1.mean() - arm2.mean()),
        "arm1_variance": _var(arm1),
        "arm2_variance": _var(arm2),
    }
