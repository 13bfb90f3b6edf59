"""Unit tests for repro.sched.ledger — the run ledger and survey journal."""

import json

import pytest

from repro.errors import LedgerError, SchemaVersionError
from repro.sched.ledger import (
    SURVEY_LEDGER_SCHEMA_VERSION,
    Attempt,
    RunLedger,
    SurveyBeamRecord,
    SurveyLedger,
    load_survey_ledger,
)
from repro.sched.shard import Shard


def make_shard(beam=0, dm_start=0, dm_count=4, batch=0, samples=100):
    return Shard(
        beam=beam, dm_start=dm_start, dm_count=dm_count,
        batch=batch, samples=samples,
    )


class TestAttempt:
    def test_rejects_unknown_outcome(self):
        with pytest.raises(LedgerError, match="outcome"):
            Attempt(worker="dev/0", started_s=0.0, finished_s=1.0, outcome="lost")

    def test_rejects_negative_duration(self):
        with pytest.raises(LedgerError, match="before"):
            Attempt(worker="dev/0", started_s=2.0, finished_s=1.0, outcome="ok")


class TestRunLedger:
    def test_register_is_idempotent(self):
        ledger = RunLedger()
        shard = make_shard()
        assert ledger.register(shard) is ledger.register(shard)

    def test_ok_attempt_completes_shard(self):
        ledger = RunLedger()
        shard = make_shard()
        ledger.note_attempt(
            shard, Attempt(worker="dev/0", started_s=0.0, finished_s=0.5, outcome="ok")
        )
        assert ledger.records[shard.shard_id].state == "done"
        assert ledger.exactly_once()

    def test_second_attempt_after_done_violates_exactly_once(self):
        ledger = RunLedger()
        shard = make_shard()
        ok = Attempt(worker="dev/0", started_s=0.0, finished_s=0.5, outcome="ok")
        ledger.note_attempt(shard, ok)
        with pytest.raises(LedgerError, match="exactly-once"):
            ledger.note_attempt(shard, ok)

    def test_retries_then_success(self):
        ledger = RunLedger()
        shard = make_shard()
        ledger.note_attempt(
            shard,
            Attempt(worker="dev/0", started_s=0.0, finished_s=0.2, outcome="transient"),
        )
        ledger.note_attempt(
            shard,
            Attempt(worker="dev/1", started_s=0.3, finished_s=0.8, outcome="ok"),
        )
        record = ledger.records[shard.shard_id]
        assert record.state == "done"
        assert record.successes == 1
        assert ledger.attempts_total == 2

    def test_counts_by_state(self):
        ledger = RunLedger()
        done, failed, pending = make_shard(0), make_shard(1), make_shard(0, 4)
        ledger.note_attempt(
            done, Attempt(worker="dev/0", started_s=0, finished_s=1, outcome="ok")
        )
        ledger.register(pending)
        ledger.mark_failed(failed)
        records = ledger.records
        assert records[done.shard_id].state == "done"
        assert records[pending.shard_id].state == "pending"
        assert records[failed.shard_id].state == "failed"
        assert not ledger.exactly_once()


IDENTITY = {
    "seed": 0, "scenario": "rfi_storm", "setup": "low",
    "n_beams": 4, "n_dms": 12,
}


def make_beam_record(beam=0, snr=9.5):
    return SurveyBeamRecord(
        beam=beam,
        verdict={"verdict": "complete", "candidates": 1},
        accepted=[{"best": {"beam": beam, "snr": snr}}],
    )


def make_survey_ledger(n_recorded=0):
    ledger = SurveyLedger(dict(IDENTITY))
    for beam in range(n_recorded):
        ledger.record_beam(make_beam_record(beam))
    return ledger


class TestSurveyLedger:
    def test_identity_must_be_complete(self):
        with pytest.raises(LedgerError, match="n_beams"):
            SurveyLedger({"seed": 0, "scenario": "x"})

    def test_duplicate_beam_is_rejected(self):
        ledger = make_survey_ledger(1)
        with pytest.raises(LedgerError, match="exactly-once"):
            ledger.record_beam(make_beam_record(0))

    def test_record_needs_verdict_payload(self):
        with pytest.raises(LedgerError, match="verdict"):
            SurveyBeamRecord(beam=0, verdict={"candidates": 3})

    def test_matches_is_exact(self):
        ledger = make_survey_ledger()
        assert ledger.matches(dict(IDENTITY))
        assert not ledger.matches({**IDENTITY, "n_beams": 8})

    def test_round_trip(self, tmp_path):
        path = make_survey_ledger(3).start(tmp_path / "s.jsonl")
        loaded = load_survey_ledger(path)
        assert loaded.matches(IDENTITY)
        assert loaded.completed_beams() == {0, 1, 2}
        assert not loaded.truncated
        assert [r.as_dict() for r in loaded.beam_records()] == [
            make_beam_record(b).as_dict() for b in range(3)
        ]

    def test_start_is_byte_deterministic(self, tmp_path):
        a = make_survey_ledger(2).start(tmp_path / "a.jsonl")
        b = make_survey_ledger(2).start(tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_append_then_load_equals_start(self, tmp_path):
        appended = tmp_path / "appended.jsonl"
        ledger = make_survey_ledger()
        ledger.start(appended)
        for beam in range(3):
            ledger.append_beam(appended, make_beam_record(beam))
        rewritten = make_survey_ledger(3).start(tmp_path / "whole.jsonl")
        assert appended.read_bytes() == rewritten.read_bytes()


class TestLoadSurveyLedgerRecovery:
    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = make_survey_ledger(3).start(tmp_path / "s.jsonl")
        text = path.read_text()
        path.write_text(text[: text.rfind('"verdict"')])
        loaded = load_survey_ledger(path)
        assert loaded.truncated
        assert loaded.completed_beams() == {0, 1}

    def test_missing_trailing_newline_marks_final_line_partial(
        self, tmp_path
    ):
        path = make_survey_ledger(2).start(tmp_path / "s.jsonl")
        path.write_text(path.read_text().rstrip("\n"))
        loaded = load_survey_ledger(path)
        assert loaded.truncated
        assert loaded.completed_beams() == {0}

    def test_resume_rewrite_restores_original_bytes(self, tmp_path):
        golden = make_survey_ledger(3).start(tmp_path / "golden.jsonl")
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_bytes(golden.read_bytes()[:-20])
        recovered = load_survey_ledger(crashed)
        assert recovered.truncated
        recovered.start(crashed)
        recovered.append_beam(crashed, make_beam_record(2))
        assert crashed.read_bytes() == golden.read_bytes()

    def test_corrupt_middle_line_is_an_error_not_a_crash_artifact(
        self, tmp_path
    ):
        path = make_survey_ledger(3).start(tmp_path / "s.jsonl")
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="corrupt at line 3"):
            load_survey_ledger(path)

    def test_newer_schema_raises_schema_version_error(self, tmp_path):
        path = make_survey_ledger(1).start(tmp_path / "s.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = SURVEY_LEDGER_SCHEMA_VERSION + 1
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaVersionError, match="newer version"):
            load_survey_ledger(path)

    def test_unrecognized_schema_is_a_ledger_error(self, tmp_path):
        path = make_survey_ledger(1).start(tmp_path / "s.jsonl")
        lines = path.read_text().splitlines()
        lines[0] = '{"schema":"v1","survey":{}}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="unsupported survey ledger"):
            load_survey_ledger(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(LedgerError, match="empty"):
            load_survey_ledger(path)

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(LedgerError, match="cannot read"):
            load_survey_ledger(tmp_path / "absent.jsonl")
