import codecs

import numpy as np
import pytest

from randcompare import (
    DataValidationError,
    bundled_dataset_path,
    dataset_summary,
    load_dataset,
)


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
