"""Export experiment results to CSV and JSON.

Downstream users plot the reproduced figures with their own tools; these
writers serialise any :class:`~repro.experiments.base.ExperimentResult`
losslessly — series experiments become one column per legend entry, table
experiments keep their headers.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from typing import TYPE_CHECKING

from repro.errors import ValidationError

if TYPE_CHECKING:  # avoid a repro.analysis <-> repro.experiments cycle
    from repro.experiments.base import ExperimentResult


def result_to_csv(result: ExperimentResult) -> str:
    """Serialise an experiment result to CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if result.series:
        writer.writerow([result.x_label] + list(result.series))
        for i, x in enumerate(result.x_values):
            writer.writerow(
                [x] + [result.series[label][i] for label in result.series]
            )
    elif result.headers:
        writer.writerow(result.headers)
        for row in result.rows:
            writer.writerow(row)
    else:
        raise ValidationError(
            f"experiment {result.experiment_id} has no data to export"
        )
    return buffer.getvalue()


def result_to_json(result: ExperimentResult, indent: int = 2) -> str:
    """Serialise an experiment result to a JSON document."""
    payload: dict = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "notes": result.notes,
    }
    if result.series:
        payload["x_label"] = result.x_label
        payload["x_values"] = list(result.x_values)
        payload["series"] = {
            label: list(values) for label, values in result.series.items()
        }
    if result.headers:
        payload["headers"] = list(result.headers)
        payload["rows"] = [list(row) for row in result.rows]
    return json.dumps(payload, indent=indent)


def write_result(
    result: ExperimentResult,
    directory: str | Path,
    formats: tuple[str, ...] = ("csv", "json"),
) -> list[Path]:
    """Write an experiment result into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for fmt in formats:
        if fmt == "csv":
            text = result_to_csv(result)
        elif fmt == "json":
            text = result_to_json(result)
        else:
            raise ValidationError(f"unknown export format {fmt!r}")
        path = directory / f"{result.experiment_id}.{fmt}"
        path.write_text(text)
        written.append(path)
    return written
