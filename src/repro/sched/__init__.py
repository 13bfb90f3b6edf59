"""repro.sched: fault-tolerant sharded execution for multi-beam surveys.

The survey driver's fleet stage: this package slices a survey into beams
x DM sub-ranges x time batches, dispatches the shards to simulated
workers driven by the :mod:`repro.hardware` model and
:class:`~repro.core.tuner.AutoTuner` configurations, and survives
injected crashes, transient errors and stragglers while recording every
attempt in a seeded, exactly-once :class:`RunLedger`.  The survey's own
resumable checkpoint is the :class:`SurveyLedger`.

Typical use (what :class:`~repro.survey.SurveyRun` does per survey)::

    from repro.sched import ExecutionEngine, FaultProfile

    engine = ExecutionEngine(
        [(hd7970(), 3, 3 * 1024**3)], setup, grid, n_beams=12,
        duration_s=2.0, seed=42, faults=FaultProfile.default_injection(),
    )
    report = engine.run()
    assert report.complete and report.ledger.exactly_once()

See ``docs/scheduler.md`` for the architecture and fault model.
"""

from repro.sched.engine import ExecutionEngine, RunReport
from repro.sched.faults import FaultInjector, FaultProfile
from repro.sched.ledger import (
    SUPPORTED_SURVEY_LEDGER_SCHEMAS,
    SURVEY_LEDGER_SCHEMA_VERSION,
    Attempt,
    RunLedger,
    ShardRecord,
    SurveyBeamRecord,
    SurveyLedger,
    load_survey_ledger,
)
from repro.sched.shard import (
    Shard,
    dm_chunk_for_memory,
    shard_memory_bytes,
    shard_survey,
)
from repro.sched.workers import ServiceTimeModel, Worker, WorkerStats

__all__ = [
    "SUPPORTED_SURVEY_LEDGER_SCHEMAS",
    "SURVEY_LEDGER_SCHEMA_VERSION",
    "Attempt",
    "ExecutionEngine",
    "FaultInjector",
    "FaultProfile",
    "RunLedger",
    "RunReport",
    "ServiceTimeModel",
    "Shard",
    "ShardRecord",
    "SurveyBeamRecord",
    "SurveyLedger",
    "Worker",
    "WorkerStats",
    "dm_chunk_for_memory",
    "load_survey_ledger",
    "shard_memory_bytes",
    "shard_survey",
]
