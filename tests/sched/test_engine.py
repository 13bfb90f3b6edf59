"""Tests for repro.sched.engine — the fault-tolerant execution engine.

The engine's three guarantees all live here: same seed => identical
attempts, a mid-run device crash still completes every shard exactly
once, and work stealing bounds the makespan under a straggler.
"""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.errors import SchedulerError
from repro.hardware.catalog import gtx680, hd7970
from repro.obs import use_registry
from repro.sched import ExecutionEngine, FaultProfile
from repro.sched.engine import MAX_ATTEMPTS

SETUP = ObservationSetup(
    name="sched-toy",
    channels=16,
    lowest_frequency=1420.0,
    channel_bandwidth=2.0,
    samples_per_second=400,
    samples_per_batch=400,
)
GRID = DMTrialGrid(n_dms=8, first=0.0, step=1.0)
#: Per-device memory that fits four of the eight DM trials per shard.
MEM = 32_000


def make_engine(units=(2, 1), **kwargs):
    inventory = [(hd7970(), units[0], MEM)]
    if len(units) > 1 and units[1]:
        inventory.append((gtx680(), units[1], MEM))
    kwargs.setdefault("n_beams", 4)
    kwargs.setdefault("duration_s", 2.0)
    n_beams = kwargs.pop("n_beams")
    duration_s = kwargs.pop("duration_s")
    return ExecutionEngine(
        inventory, SETUP, GRID, n_beams, duration_s, **kwargs
    )


class TestFaultFreeRun:
    def test_completes_every_shard_exactly_once(self):
        report = make_engine(seed=0).run()
        # 4 beams x 2 DM chunks x 2 batches.
        assert report.shards_total == 16
        assert report.shards_done == 16
        assert report.shards_failed == 0
        assert report.complete
        assert not report.degraded
        assert report.ledger.exactly_once()
        assert report.attempts == 16

    def test_worker_stats_account_for_all_shards(self):
        report = make_engine(seed=0).run()
        assert sum(s.shards_done for s in report.worker_stats) == 16
        assert all(not s.crashed for s in report.worker_stats)

    def test_realtime_verdict_matches_makespan(self):
        report = make_engine(seed=0).run()
        assert report.realtime_sustained == (
            report.makespan_s <= report.duration_s
        )
        assert report.throughput == pytest.approx(
            report.data_seconds / report.makespan_s
        )


class TestDeterminism:
    def test_same_seed_identical_attempts(self):
        profile = FaultProfile.default_injection()
        a = make_engine(seed=42, faults=profile).run()
        b = make_engine(seed=42, faults=profile).run()
        assert sorted(a.ledger.records) == sorted(b.ledger.records)
        for sid, record in a.ledger.records.items():
            assert record.attempts == b.ledger.records[sid].attempts, sid
            assert record.state == b.ledger.records[sid].state, sid
        assert a.makespan_s == b.makespan_s

    def test_different_seed_changes_fault_assignment(self):
        profile = FaultProfile(crashes=1, crash_fraction=0.5)
        crashed = {
            make_engine(seed=seed, faults=profile).run().crashed_workers
            for seed in range(8)
        }
        assert len(crashed) > 1  # the victim depends on the seed


class TestCrashRecovery:
    def test_kill_one_device_all_shards_complete_exactly_once(self):
        profile = FaultProfile(crashes=1, crash_fraction=0.3)
        report = make_engine(units=(2, 1), seed=5, faults=profile).run()
        assert len(report.crashed_workers) == 1
        assert report.degraded
        assert report.complete
        assert report.ledger.exactly_once()
        # The dead worker's interrupted attempt is on the record.
        assert report.attempts >= report.shards_total

    def test_orphans_repacked_onto_survivors(self):
        profile = FaultProfile(crashes=1, crash_fraction=0.2)
        report = make_engine(units=(2, 1), seed=5, faults=profile).run()
        assert report.requeues >= 1
        survivors = [s for s in report.worker_stats if not s.crashed]
        assert sum(s.shards_done for s in survivors) == report.shards_total - (
            sum(s.shards_done for s in report.worker_stats if s.crashed)
        )

    def test_whole_fleet_crash_raises(self):
        profile = FaultProfile(crashes=2, crash_fraction=0.1)
        with pytest.raises(SchedulerError, match="crashed"):
            make_engine(units=(2,), seed=1, faults=profile).run()


class TestStragglersAndStealing:
    def test_stealing_shortens_makespan(self):
        # Without stealing, a 4x straggler keeps its whole home queue and
        # stretches the makespan 4x at this shape; stealing holds it to
        # 1.5x.
        profile = FaultProfile(stragglers=1, slowdown=4.0)
        for seed in range(6):
            kwargs = dict(units=(3,), n_beams=6, seed=seed)
            baseline = make_engine(**kwargs).run()
            straggled = make_engine(faults=profile, **kwargs).run()
            assert straggled.complete, seed
            assert straggled.steals > 0, seed
            assert straggled.makespan_s < 2.0 * baseline.makespan_s, seed

    def test_slowdown_recorded_in_worker_stats(self):
        profile = FaultProfile(stragglers=1, slowdown=4.0)
        report = make_engine(units=(3,), seed=11, faults=profile).run()
        assert [s.slowdown for s in report.worker_stats].count(4.0) == 1


class TestTransientErrors:
    def test_retries_with_backoff_still_complete(self):
        profile = FaultProfile(transient_rate=0.4)
        report = make_engine(seed=2, faults=profile).run()
        assert report.retries > 0
        assert report.complete
        assert report.ledger.exactly_once()
        assert report.attempts == report.shards_total + report.retries

    def test_attempt_budget_exhaustion_marks_failed(self):
        profile = FaultProfile(transient_rate=1.0)
        report = make_engine(seed=3, faults=profile).run()
        assert report.shards_failed == report.shards_total
        assert not report.complete
        assert report.attempts == MAX_ATTEMPTS * report.shards_total


class TestConstruction:
    def test_empty_inventory_rejected(self):
        with pytest.raises(SchedulerError, match="empty"):
            ExecutionEngine([], SETUP, GRID, 1, 1.0)

    def test_duplicate_device_type_rejected(self):
        inventory = [(hd7970(), 1, MEM), (hd7970(), 1, MEM)]
        with pytest.raises(SchedulerError, match="duplicate"):
            ExecutionEngine(inventory, SETUP, GRID, 1, 1.0)


class TestObservability:
    def test_run_records_sched_metrics(self):
        with use_registry() as registry:
            report = make_engine(
                seed=6, faults=FaultProfile.default_injection()
            ).run()
            names = {series.name for series in registry.series()}
        assert "repro_sched_runs_total" in names
        assert "repro_sched_shards_total" in names
        assert "repro_sched_makespan_seconds" in names
        assert "repro_sched_realtime_margin" in names
        if report.crashed_workers:
            assert "repro_sched_crashes_total" in names

    def test_spans_emitted_per_shard(self):
        with use_registry() as registry:
            report = make_engine(seed=6).run()
            counter = registry.counter(
                "repro_trace_spans_total", span="sched.shard"
            )
            assert counter.value == report.attempts
