"""Ledgers: the engine's per-shard attempt record and the survey journal.

:class:`RunLedger` is the execution engine's in-memory record of one
run: one :class:`ShardRecord` per shard with its full attempt history
(worker, virtual start/end, outcome).  It enforces exactly-once
completion at write time — any attempt after a shard is ``done`` raises
— and because the engine is deterministic, two runs with the same seed
record identical attempts.

Survey section
--------------
The multi-beam survey driver (:mod:`repro.survey`) checkpoints through
the :class:`SurveyLedger` defined here: an append-only JSON-lines file
whose first line is a schema-versioned header carrying the survey's
identity (seed, scenario, setup, beam count, ...) and every following
line one completed beam's deterministic record (verdict payload plus
serialised candidate clusters).  Appending one canonical line per beam
means a crash mid-write loses at most the final, partially-written
line; :func:`load_survey_ledger` recovers by dropping that truncated
tail and flagging it, so ``repro survey --resume`` re-runs only the
beam that was in flight.  Because beam records contain no wall-clock
fields, an interrupted-then-resumed survey converges to a file that is
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import LedgerError, SchemaVersionError
from repro.sched.shard import Shard

#: The attempt outcomes a ledger may record.
OUTCOMES: tuple[str, ...] = ("ok", "transient", "crash")

#: The shard states a ledger may record.
STATES: tuple[str, ...] = ("pending", "done", "failed")


@dataclass(frozen=True)
class Attempt:
    """One execution attempt of one shard on one worker."""

    worker: str
    started_s: float
    finished_s: float
    outcome: str  # one of OUTCOMES

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise LedgerError(f"unknown attempt outcome {self.outcome!r}")
        if self.finished_s < self.started_s:
            raise LedgerError(
                f"attempt finishes ({self.finished_s}) before it starts "
                f"({self.started_s})"
            )


@dataclass
class ShardRecord:
    """A shard plus its attempt history and final state."""

    shard: Shard
    attempts: list[Attempt] = field(default_factory=list)
    state: str = "pending"

    @property
    def successes(self) -> int:
        """Number of successful attempts (1 for a completed shard)."""
        return sum(1 for a in self.attempts if a.outcome == "ok")


class RunLedger:
    """All shard records of one run, keyed by shard id."""

    def __init__(self) -> None:
        self.records: dict[str, ShardRecord] = {}

    # -- recording -----------------------------------------------------
    def register(self, shard: Shard) -> ShardRecord:
        """Get-or-create the record for ``shard``."""
        record = self.records.get(shard.shard_id)
        if record is None:
            record = ShardRecord(shard=shard)
            self.records[shard.shard_id] = record
        return record

    def note_attempt(self, shard: Shard, attempt: Attempt) -> None:
        """Append one attempt; an ``ok`` outcome completes the shard."""
        record = self.register(shard)
        if record.state == "done":
            raise LedgerError(
                f"shard {shard.shard_id} already completed; a second "
                f"attempt violates exactly-once execution"
            )
        record.attempts.append(attempt)
        if attempt.outcome == "ok":
            record.state = "done"

    def mark_failed(self, shard: Shard) -> None:
        """Record that ``shard`` exhausted its retry budget."""
        self.register(shard).state = "failed"

    # -- queries -------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """State -> number of shards."""
        out = {state: 0 for state in STATES}
        for record in self.records.values():
            out[record.state] += 1
        return out

    @property
    def attempts_total(self) -> int:
        """All attempts across all shards."""
        return sum(len(r.attempts) for r in self.records.values())

    def exactly_once(self) -> bool:
        """True when every shard is done with exactly one success."""
        return all(
            r.state == "done" and r.successes == 1
            for r in self.records.values()
        )


# ----------------------------------------------------------------------
# The survey ledger (JSON lines, append-as-you-go)
# ----------------------------------------------------------------------
#: Format version written into every survey-ledger header line.
SURVEY_LEDGER_SCHEMA_VERSION: int = 1

#: Schema versions :func:`load_survey_ledger` still understands.
SUPPORTED_SURVEY_LEDGER_SCHEMAS: tuple[int, ...] = (1,)

#: Identity keys every survey-ledger header must carry.
_SURVEY_IDENTITY_KEYS = ("seed", "scenario", "setup", "n_beams", "n_dms")


def _canonical_line(doc: dict) -> str:
    """One record as canonical compact JSON (byte-deterministic)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class SurveyBeamRecord:
    """One completed beam: its stream verdict and serialised clusters.

    Every field is deterministic (no wall-clock values), so the same
    survey produces byte-identical records whether run straight through
    or interrupted and resumed.
    """

    beam: int
    verdict: dict
    accepted: list = field(default_factory=list)
    vetoed: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.beam < 0:
            raise LedgerError("beam index must be non-negative")
        if not isinstance(self.verdict, dict) or "verdict" not in self.verdict:
            raise LedgerError(
                f"beam {self.beam}: record needs a verdict payload"
            )

    def as_dict(self) -> dict:
        """JSON-ready rendering (one ledger line)."""
        return {
            "beam": int(self.beam),
            "verdict": self.verdict,
            "accepted": list(self.accepted),
            "vetoed": list(self.vetoed),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SurveyBeamRecord":
        """Rebuild a record from one parsed ledger line."""
        if not isinstance(doc, dict) or "beam" not in doc:
            raise LedgerError(f"invalid survey beam record: {doc!r}")
        return cls(
            beam=int(doc["beam"]),
            verdict=doc.get("verdict", {}),
            accepted=list(doc.get("accepted", ())),
            vetoed=list(doc.get("vetoed", ())),
        )


class SurveyLedger:
    """The resumable beam-completion journal of one survey run.

    ``identity`` pins what the ledger is a checkpoint *of* — resuming
    against a different plan (other scenario, seed, beam count, ...) is
    refused rather than silently mixing records.  ``truncated`` is set
    by :func:`load_survey_ledger` when the final line of the file was
    partially written (a crash mid-append) and had to be dropped.
    """

    def __init__(self, identity: dict):
        for key in _SURVEY_IDENTITY_KEYS:
            if key not in identity:
                raise LedgerError(
                    f"survey ledger identity lacks {key!r} "
                    f"(needs {', '.join(_SURVEY_IDENTITY_KEYS)})"
                )
        self.identity = dict(identity)
        self.records: dict[int, SurveyBeamRecord] = {}
        self.truncated = False

    # -- recording -----------------------------------------------------
    def record_beam(self, record: SurveyBeamRecord) -> None:
        """Add one completed beam; a second record for a beam is an error."""
        if record.beam in self.records:
            raise LedgerError(
                f"beam {record.beam} already recorded; a second record "
                f"violates exactly-once completion"
            )
        self.records[record.beam] = record

    # -- queries -------------------------------------------------------
    def completed_beams(self) -> set[int]:
        """Beam indices already done (the resume skip-set)."""
        return set(self.records)

    def beam_records(self) -> tuple[SurveyBeamRecord, ...]:
        """All records in beam order."""
        return tuple(self.records[b] for b in sorted(self.records))

    def matches(self, identity: dict) -> bool:
        """Whether ``identity`` names the same survey as this ledger."""
        return self.identity == dict(identity)

    # -- persistence ---------------------------------------------------
    def header_doc(self) -> dict:
        """The schema-versioned first line of the file."""
        return {
            "schema": SURVEY_LEDGER_SCHEMA_VERSION,
            "survey": self.identity,
        }

    def start(self, path: str | Path) -> Path:
        """(Re)write the file: header plus every record held so far.

        Canonical rendering throughout, so a resumed run that rewrites
        its prefix produces exactly the bytes the original run wrote.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [_canonical_line(self.header_doc())]
        lines.extend(
            _canonical_line(r.as_dict()) for r in self.beam_records()
        )
        path.write_text("\n".join(lines) + "\n")
        return path

    def append_beam(
        self, path: str | Path, record: SurveyBeamRecord
    ) -> None:
        """Record ``record`` and append its line to ``path``."""
        self.record_beam(record)
        with Path(path).open("a") as handle:
            handle.write(_canonical_line(record.as_dict()) + "\n")


def load_survey_ledger(path: str | Path) -> SurveyLedger:
    """Load a survey ledger, recovering from a truncated final line.

    The survey driver appends one line per completed beam; a crash can
    leave the last line half-written.  That partial tail is dropped (and
    ``ledger.truncated`` set) so the resume re-runs the beam that was in
    flight.  A malformed line anywhere *else* — or a bad header — is
    corruption, not a crash artefact, and raises :class:`LedgerError`.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise LedgerError(
            f"cannot read survey ledger at {path}: {exc}"
        ) from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise LedgerError(f"survey ledger at {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise LedgerError(
            f"survey ledger at {path} has an unreadable header: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise LedgerError("survey ledger header must be a JSON object")
    schema = header.get("schema")
    if schema not in SUPPORTED_SURVEY_LEDGER_SCHEMAS:
        if isinstance(schema, int) and schema > max(
            SUPPORTED_SURVEY_LEDGER_SCHEMAS
        ):
            raise SchemaVersionError(
                f"unsupported survey ledger schema {schema!r}: this file "
                f"was written by a newer version of repro (this build "
                f"reads schemas up to "
                f"{max(SUPPORTED_SURVEY_LEDGER_SCHEMAS)}); upgrade repro "
                f"or re-run the survey to regenerate the ledger"
            )
        raise LedgerError(f"unsupported survey ledger schema {schema!r}")
    identity = header.get("survey")
    if not isinstance(identity, dict):
        raise LedgerError("survey ledger header lacks a 'survey' section")
    ledger = SurveyLedger(identity)
    # The file must end with a newline after every complete record; a
    # missing trailing newline marks the final line as a partial write
    # even if it happens to parse.
    unterminated = not text.endswith("\n")
    for index, line in enumerate(lines[1:], start=1):
        final = index == len(lines) - 1
        try:
            doc = json.loads(line)
            record = SurveyBeamRecord.from_dict(doc)
        except (json.JSONDecodeError, LedgerError, ValueError) as exc:
            if final:
                ledger.truncated = True
                break
            raise LedgerError(
                f"survey ledger at {path} is corrupt at line "
                f"{index + 1}: {exc}"
            ) from exc
        if final and unterminated:
            ledger.truncated = True
            break
        ledger.record_beam(record)
    return ledger
