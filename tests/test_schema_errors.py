"""Newer-than-supported schema versions fail cleanly, end to end.

A survey ledger or sweep store written by a *future* repro must not crash with
a traceback (or worse, be deleted as corrupt): it raises
:class:`repro.errors.SchemaVersionError`, which the CLI renders as a
one-line error, and persistent files are left intact for the newer
build that can read them.
"""

import json

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import lofar
from repro.cli import main
from repro.core.persistence import SUPPORTED_SCHEMAS, load_sweep
from repro.errors import (
    LedgerError,
    SchemaVersionError,
    ValidationError,
)
from repro.hardware.catalog import hd7970
from repro.sched.ledger import (
    SUPPORTED_SURVEY_LEDGER_SCHEMAS,
    SurveyLedger,
    load_survey_ledger,
)
from repro.service.cache import DiskSweepStore
from repro.service.keys import InstanceKey

NEWER = 99


class TestErrorType:
    def test_is_both_validation_and_ledger_error(self):
        # Pre-existing handlers catch ValidationError (sweeps) or
        # LedgerError (ledgers); the new subtype must satisfy both.
        assert issubclass(SchemaVersionError, ValidationError)
        assert issubclass(SchemaVersionError, LedgerError)


def write_survey_ledger(path, schema):
    """A one-line survey ledger whose header claims ``schema``."""
    ledger = SurveyLedger(
        {"seed": 0, "scenario": "rfi_storm", "setup": "low",
         "n_beams": 8, "n_dms": 12}
    )
    header = {**ledger.header_doc(), "schema": schema}
    path.write_text(json.dumps(header, sort_keys=True) + "\n")
    return path


class TestLedger:
    def test_newer_schema_raises_schema_version_error(self, tmp_path):
        path = write_survey_ledger(tmp_path / "survey.jsonl", NEWER)
        with pytest.raises(SchemaVersionError, match="newer version"):
            load_survey_ledger(path)

    def test_older_schema_keeps_plain_ledger_error(self, tmp_path):
        path = write_survey_ledger(tmp_path / "survey.jsonl", 0)
        with pytest.raises(LedgerError) as excinfo:
            load_survey_ledger(path)
        assert not isinstance(excinfo.value, SchemaVersionError)

    def test_survey_resume_fails_cleanly(self, tmp_path, capsys):
        assert NEWER > max(SUPPORTED_SURVEY_LEDGER_SCHEMAS)
        path = write_survey_ledger(tmp_path / "survey.jsonl", NEWER)
        code = main(["survey", "--ledger", str(path), "--resume"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "upgrade" in err
        assert "Traceback" not in err
        # Left intact for the newer build that can read it.
        assert json.loads(path.read_text())["schema"] == NEWER


class TestSweepStore:
    def _newer_document(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"schema": NEWER, "samples": []}))
        return path

    def test_newer_schema_raises_schema_version_error(self, tmp_path):
        assert NEWER > max(SUPPORTED_SCHEMAS)
        with pytest.raises(SchemaVersionError, match="upgrade"):
            load_sweep(self._newer_document(tmp_path))

    def test_garbage_schema_keeps_plain_validation_error(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"schema": "vNext"}))
        with pytest.raises(ValidationError) as excinfo:
            load_sweep(path)
        assert not isinstance(excinfo.value, SchemaVersionError)

    def test_disk_store_preserves_newer_file(self, tmp_path):
        store = DiskSweepStore(tmp_path / "store")
        key = InstanceKey.for_instance(
            hd7970(), lofar(), DMTrialGrid(n_dms=8, first=0.0, step=1.0)
        )
        path = store.path_for(key)
        path.write_text(json.dumps({"schema": NEWER, "samples": []}))
        with pytest.raises(SchemaVersionError):
            store.load(key)
        # A stale-but-readable document would have been deleted; a
        # newer-schema one must survive for the build that can read it.
        assert path.exists()
