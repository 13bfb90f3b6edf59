"""Unit tests for repro.analysis.export."""

import csv
import io
import json

import pytest

from repro.analysis.export import (
    result_to_csv,
    result_to_json,
    write_result,
)
from repro.errors import ValidationError
from repro.experiments.base import ExperimentResult


@pytest.fixture
def series_result():
    return ExperimentResult(
        experiment_id="figX",
        title="test figure",
        x_label="DMs",
        x_values=(2, 4),
        series={"HD7970": (10.0, 20.0), "K20": (5.0, 8.0)},
    )


@pytest.fixture
def table_result():
    return ExperimentResult(
        experiment_id="tableX",
        title="test table",
        headers=("a", "b"),
        rows=(("x", 1), ("y", 2)),
        notes="a note",
    )


class TestCsv:
    def test_series_roundtrip(self, series_result):
        rows = list(csv.reader(io.StringIO(result_to_csv(series_result))))
        assert rows[0] == ["DMs", "HD7970", "K20"]
        assert rows[1] == ["2", "10.0", "5.0"]
        assert rows[2] == ["4", "20.0", "8.0"]

    def test_table_roundtrip(self, table_result):
        rows = list(csv.reader(io.StringIO(result_to_csv(table_result))))
        assert rows[0] == ["a", "b"]
        assert rows[2] == ["y", "2"]

    def test_empty_result_rejected(self):
        empty = ExperimentResult(experiment_id="nil", title="empty")
        with pytest.raises(ValidationError):
            result_to_csv(empty)


class TestJson:
    def test_series_payload(self, series_result):
        payload = json.loads(result_to_json(series_result))
        assert payload["experiment_id"] == "figX"
        assert payload["series"]["HD7970"] == [10.0, 20.0]
        assert payload["x_values"] == [2, 4]

    def test_table_payload(self, table_result):
        payload = json.loads(result_to_json(table_result))
        assert payload["headers"] == ["a", "b"]
        assert payload["rows"] == [["x", 1], ["y", 2]]
        assert payload["notes"] == "a note"


class TestWrite:
    def test_writes_both_formats(self, series_result, tmp_path):
        paths = write_result(series_result, tmp_path)
        assert {p.suffix for p in paths} == {".csv", ".json"}
        assert all(p.exists() for p in paths)

    def test_json_load_roundtrip(self, series_result, tmp_path):
        paths = write_result(series_result, tmp_path, formats=("json",))
        payload = json.loads(paths[0].read_text())
        assert payload["title"] == "test figure"

    def test_unknown_format_rejected(self, series_result, tmp_path):
        with pytest.raises(ValidationError):
            write_result(series_result, tmp_path, formats=("xml",))

    def test_creates_directory(self, series_result, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_result(series_result, target)
        assert target.exists()

    def test_real_experiment_exports(self, tmp_path):
        from repro.experiments.table1 import run_table1

        paths = write_result(run_table1(), tmp_path)
        text = paths[0].read_text()
        assert "HD7970" in text
