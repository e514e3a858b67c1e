import codecs
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from randcompare import (
    DataValidationError,
    ObservedExperiment,
    bundled_dataset_path,
    dataset_summary,
    explicit_from_json,
    load_dataset,
    load_scenario_file,
)
from randcompare.datasets import LoadedDataset


def write_csv(tmp_path, rows, header="unit_id,treatment,response"):
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestBundledData:
    def test_path_exists(self):
        path = bundled_dataset_path()
        assert path.exists()
        assert path.name == "cellphone.csv"

    def test_unknown_name(self):
        with pytest.raises(DataValidationError):
            bundled_dataset_path("no-such-dataset")

    def test_shape_and_summary(self, cellphone):
        obs = cellphone.observed
        assert (obs.n, obs.n1, obs.n2) == (64, 32, 32)
        assert len(cellphone.unit_ids) == 64
        summary = dataset_summary(cellphone)
        assert summary["mean_difference"] == pytest.approx(51.59375, abs=1e-12)
        assert summary["arm1_mean"] == pytest.approx(585.1875, abs=1e-12)
        assert summary["arm2_mean"] == pytest.approx(533.59375, abs=1e-12)
        assert summary["n"] == 64

    def test_units_numbered_in_file_order(self, cellphone):
        assert list(cellphone.observed.sample.indices) == list(range(1, 65))


class TestLoader:
    def test_round_trip(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,3.5", "b,2,4.25", "c,1,1e2"])
        data = load_dataset(path)
        assert data.unit_ids == ("a", "b", "c")
        assert list(data.observed.responses) == [3.5, 4.25, 100.0]
        assert list(data.observed.assignment.labels) == [1, 2, 1]

    def test_accepts_str_path(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1", "b,2,2"])
        assert load_dataset(str(path)).observed.n == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_dataset(tmp_path / "absent.csv")

    def test_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" format starts the file with one
        source = bundled_dataset_path()
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
        data, plain = load_dataset(path), load_dataset(source)
        assert data.unit_ids == plain.unit_ids
        assert np.array_equal(data.observed.assignment.labels, plain.observed.assignment.labels)
        assert np.array_equal(data.observed.responses, plain.observed.responses)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1", "b,2,2"], header="id,arm,value")
        with pytest.raises(DataValidationError):
            load_dataset(path)

    def test_bad_treatment(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1", "b,3,2"])
        with pytest.raises(DataValidationError) as exc:
            load_dataset(path)
        assert "line 3" in str(exc.value)

    def test_nonnumeric_response(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1", "b,2,oops"])
        with pytest.raises(DataValidationError) as exc:
            load_dataset(path)
        assert "line 3" in str(exc.value)

    def test_nonfinite_response(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,inf", "b,2,2"])
        with pytest.raises(DataValidationError):
            load_dataset(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1", "b,2,2", "a,2,3"])
        with pytest.raises(DataValidationError) as exc:
            load_dataset(path)
        message = str(exc.value)
        assert "a" in message
        assert "line 2" in message and "line 4" in message

    def test_wrong_column_count(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1", "b,2"])
        with pytest.raises(DataValidationError) as exc:
            load_dataset(path)
        assert "line 3" in str(exc.value)

    def test_single_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1"])
        with pytest.raises(DataValidationError):
            load_dataset(path)

    def test_one_armed_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1", "b,1,2"])
        with pytest.raises(DataValidationError):
            load_dataset(path)

    def test_summary_variances_none_for_singleton_arm(self, tmp_path):
        path = write_csv(tmp_path, ["a,1,1", "b,2,2", "c,2,5"])
        summary = dataset_summary(load_dataset(path))
        assert summary["arm1_variance"] is None
        assert summary["arm2_variance"] == pytest.approx(4.5)

    # a singleton arm, small arms, and arms past numpy's 128-value pairwise
    # summation block
    ARM_SIZES = st.one_of(st.just(1), st.integers(2, 20), st.integers(129, 400))

    @given(n1=ARM_SIZES, n2=ARM_SIZES, seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e300]), decimals=st.integers(0, 3))
    @example(n1=1, n2=300, seed=0, scale=1.0, decimals=3)
    @example(n1=129, n2=1, seed=1, scale=1e6, decimals=0)
    def test_summary_is_the_arms_mean_and_var(self, n1, n2, seed, scale, decimals):
        """Each arm's mean and variance are, bit for bit, ndarray.mean()
        and np.var(ddof=1) of its responses, None where that is not
        finite; an arm of one has none."""
        gen = np.random.default_rng(seed)
        obs = ObservedExperiment.from_arms(
            *(np.round(gen.normal(size=size) * 10, decimals) * scale for size in (n1, n2)))
        summary = dataset_summary(LoadedDataset(observed=obs, unit_ids=(), source="drawn"))
        arm1, arm2 = obs.arm_responses(1), obs.arm_responses(2)
        finite = lambda value: value if value is None or math.isfinite(value) else None
        # at the largest scale the squares overflow to inf
        with np.errstate(over="ignore", invalid="ignore"):
            for t, arm in ((1, arm1), (2, arm2)):
                assert repr(summary[f"arm{t}_mean"]) == repr(finite(float(arm.mean())))
                want = float(np.var(arm, ddof=1)) if len(arm) > 1 else None
                assert repr(summary[f"arm{t}_variance"]) == repr(finite(want))
            assert repr(summary["mean_difference"]) == repr(
                finite(float(arm1.mean() - arm2.mean())))


# One valid file of each kind that an input reader takes, and that reader.
# Each file's text is ASCII, so that one byte 0xff makes it invalid UTF-8.
INPUT_FILES = {
    "dataset.csv": (b"unit_id,treatment,response\na,1,1\nb,2,2\n", load_dataset),
    "design.json": (b'{"support": [[1, 2], [2, 1]], "probs": [0.5, 0.5]}',
                    explicit_from_json),
    "scenario.json": (b'{"name": "demo", "n1": 5, "n2": 5, '
                      b'"law": {"kind": "normal", "mean": 0, "sd": 1}, '
                      b'"effect": {"kind": "identity"}}', load_scenario_file),
    "scenario.toml": (b'name = "demo"\nn1 = 5\nn2 = 5\n\n'
                      b'[law]\nkind = "normal"\nmean = 0\nsd = 1\n\n'
                      b'[effect]\nkind = "identity"\n', load_scenario_file),
}


@pytest.mark.parametrize("filename", sorted(INPUT_FILES))
class TestInputFileEncoding:
    """Every input file is read through datasets.read_text, as UTF-8 with
    an optional byte-order mark."""

    def test_loads_with_or_without_byte_order_mark(self, tmp_path, filename):
        content, reader = INPUT_FILES[filename]
        path = tmp_path / filename
        for prefix in (b"", codecs.BOM_UTF8):
            path.write_bytes(prefix + content)
            reader(path)

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
    def test_other_unicode_encodings_are_refused(self, tmp_path, filename, encoding):
        content, reader = INPUT_FILES[filename]
        path = tmp_path / filename
        path.write_bytes(content.decode("ascii").encode(encoding))
        message = "^" + re.escape(f"{path}: not valid UTF-8: ")
        with pytest.raises(DataValidationError, match=message):
            reader(path)

    def test_one_bad_byte_names_the_file(self, tmp_path, filename):
        content, reader = INPUT_FILES[filename]
        path = tmp_path / filename
        path.write_bytes(content[:1] + b"\xff" + content[1:])
        message = "^" + re.escape(f"{path}: not valid UTF-8: ")
        with pytest.raises(DataValidationError, match=message):
            reader(path)
