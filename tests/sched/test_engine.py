"""Tests for repro.sched.engine — the fault-tolerant execution engine.

The three ISSUE-level guarantees all live here: same seed => identical
ledger bytes, a mid-run device crash still completes every shard exactly
once, and work stealing shortens the makespan under a straggler.
"""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.errors import SchedulerError, ShardError
from repro.hardware.catalog import gtx680, hd7970
from repro.obs import use_registry
from repro.sched import (
    ExecutionEngine,
    FaultProfile,
    RunLedger,
    validate_document,
)
from repro.service import TuningService

SETUP = ObservationSetup(
    name="sched-toy",
    channels=16,
    lowest_frequency=1420.0,
    channel_bandwidth=2.0,
    samples_per_second=400,
    samples_per_batch=400,
)
GRID = DMTrialGrid(n_dms=8, first=0.0, step=1.0)
MEM = 1024 ** 3


@pytest.fixture(scope="module")
def service():
    """One tuning service for the whole module (sweeps cached once)."""
    svc = TuningService(max_workers=1)
    yield svc
    svc.close()


def make_engine(service, units=(2, 1), **kwargs):
    inventory = [(hd7970(), units[0], MEM)]
    if len(units) > 1 and units[1]:
        inventory.append((gtx680(), units[1], MEM))
    kwargs.setdefault("n_beams", 4)
    kwargs.setdefault("duration_s", 2.0)
    kwargs.setdefault("max_dms_per_shard", 4)
    n_beams = kwargs.pop("n_beams")
    duration_s = kwargs.pop("duration_s")
    return ExecutionEngine(
        inventory, SETUP, GRID, n_beams, duration_s,
        service=service, **kwargs,
    )


class TestFaultFreeRun:
    def test_completes_every_shard_exactly_once(self, service):
        report = make_engine(service, seed=0).run()
        # 4 beams x 2 DM chunks x 2 batches.
        assert report.shards_total == 16
        assert report.shards_done == 16
        assert report.shards_failed == 0
        assert report.complete
        assert not report.degraded
        assert report.ledger.exactly_once()
        assert report.attempts == 16

    def test_worker_stats_account_for_all_shards(self, service):
        report = make_engine(service, seed=0).run()
        assert sum(s.shards_done for s in report.worker_stats) == 16
        assert all(not s.crashed for s in report.worker_stats)

    def test_realtime_verdict_matches_makespan(self, service):
        report = make_engine(service, seed=0).run()
        assert report.realtime_sustained == (
            report.makespan_s <= report.duration_s
        )
        assert report.throughput == pytest.approx(
            report.data_seconds / report.makespan_s
        )

    def test_ledger_validates_against_schema(self, service):
        report = make_engine(service, seed=0).run()
        validate_document(report.ledger.to_document())

    def test_summary_mentions_realtime(self, service):
        text = make_engine(service, seed=0).run().summary()
        assert "real time" in text
        assert "shards" in text


class TestDeterminism:
    def test_same_seed_byte_identical_ledgers(self, service, tmp_path):
        profile = FaultProfile.default_injection()
        a = make_engine(service, seed=42, faults=profile).run()
        b = make_engine(service, seed=42, faults=profile).run()
        path_a = a.ledger.save(tmp_path / "a.json")
        path_b = b.ledger.save(tmp_path / "b.json")
        assert path_a.read_bytes() == path_b.read_bytes()
        assert a.makespan_s == b.makespan_s

    def test_different_seed_changes_fault_assignment(self, service):
        profile = FaultProfile(crashes=1, crash_fraction=0.5)
        crashed = {
            make_engine(service, seed=seed, faults=profile).run().crashed_workers
            for seed in range(8)
        }
        assert len(crashed) > 1  # the victim depends on the seed


class TestCrashRecovery:
    def test_kill_one_device_all_shards_complete_exactly_once(self, service):
        profile = FaultProfile(crashes=1, crash_fraction=0.3)
        report = make_engine(service, units=(2, 1), seed=5, faults=profile).run()
        assert len(report.crashed_workers) == 1
        assert report.degraded
        assert report.complete
        assert report.ledger.exactly_once()
        # The dead worker's interrupted attempt is on the record.
        assert report.attempts >= report.shards_total

    def test_orphans_repacked_onto_survivors(self, service):
        profile = FaultProfile(crashes=1, crash_fraction=0.2)
        report = make_engine(service, units=(2, 1), seed=5, faults=profile).run()
        assert report.requeues >= 1
        survivors = [s for s in report.worker_stats if not s.crashed]
        assert sum(s.shards_done for s in survivors) == report.shards_total - (
            sum(s.shards_done for s in report.worker_stats if s.crashed)
        )

    def test_whole_fleet_crash_raises(self, service):
        profile = FaultProfile(crashes=2, crash_fraction=0.1)
        with pytest.raises(SchedulerError, match="crashed"):
            make_engine(service, units=(2,), seed=1, faults=profile).run()


class TestStragglersAndStealing:
    def test_stealing_shortens_makespan(self, service):
        profile = FaultProfile(stragglers=1, slowdown=4.0)
        kwargs = dict(units=(3,), n_beams=6, seed=11, faults=profile)
        with_steal = make_engine(service, **kwargs).run()
        without = make_engine(service, steal=False, **kwargs).run()
        assert with_steal.steals > 0
        assert without.steals == 0
        assert with_steal.makespan_s < without.makespan_s
        assert with_steal.complete and without.complete

    def test_slowdown_recorded_in_worker_stats(self, service):
        profile = FaultProfile(stragglers=1, slowdown=4.0)
        report = make_engine(service, units=(3,), seed=11, faults=profile).run()
        assert [s.slowdown for s in report.worker_stats].count(4.0) == 1


class TestTransientErrors:
    def test_retries_with_backoff_still_complete(self, service):
        profile = FaultProfile(transient_rate=0.4)
        report = make_engine(service, seed=2, faults=profile).run()
        assert report.retries > 0
        assert report.complete
        assert report.ledger.exactly_once()
        assert report.attempts == report.shards_total + report.retries

    def test_attempt_budget_exhaustion_marks_failed(self, service):
        profile = FaultProfile(transient_rate=1.0)
        report = make_engine(
            service, seed=3, faults=profile, max_attempts=2
        ).run()
        assert report.shards_failed == report.shards_total
        assert not report.complete
        assert report.attempts == 2 * report.shards_total
        counts = report.ledger.counts()
        assert counts["failed"] == report.shards_total

    def test_strict_mode_raises_on_failed_shards(self, service):
        profile = FaultProfile(transient_rate=1.0)
        engine = make_engine(service, seed=3, faults=profile, max_attempts=2)
        with pytest.raises(ShardError, match="attempt budget"):
            engine.run(strict=True)


class TestResume:
    def test_resume_skips_completed_shards(self, service):
        full = make_engine(service, seed=4).run()
        done_ids = sorted(full.ledger.records)[: full.shards_total // 2]
        partial = RunLedger(
            seed=4, setup_name=SETUP.name, n_dms=GRID.n_dms,
            n_beams=4, duration_s=2.0,
        )
        for sid in done_ids:
            record = full.ledger.records[sid]
            copied = partial.register(record.shard)
            copied.state = record.state
            copied.attempts = list(record.attempts)

        resumed = make_engine(service, seed=4, resume_from=partial).run()
        assert resumed.shards_resumed == len(done_ids)
        assert resumed.shards_done == full.shards_total - len(done_ids)
        assert resumed.ledger.exactly_once()
        validate_document(resumed.ledger.to_document())

    def test_fully_resumed_run_does_nothing(self, service):
        full = make_engine(service, seed=4).run()
        resumed = make_engine(service, seed=4, resume_from=full.ledger).run()
        assert resumed.shards_resumed == full.shards_total
        assert resumed.shards_done == 0
        assert resumed.attempts == full.attempts


class TestConstruction:
    def test_empty_inventory_rejected(self, service):
        with pytest.raises(SchedulerError, match="empty"):
            ExecutionEngine([], SETUP, GRID, 1, 1.0, service=service)

    def test_duplicate_device_type_rejected(self, service):
        inventory = [(hd7970(), 1, MEM), (hd7970(), 1, MEM)]
        with pytest.raises(SchedulerError, match="duplicate"):
            ExecutionEngine(inventory, SETUP, GRID, 1, 1.0, service=service)

    def test_bad_backoff_rejected(self, service):
        with pytest.raises(SchedulerError, match="backoff_factor"):
            make_engine(service, backoff_factor=0.5)

    def test_from_plan_unknown_device_rejected(self, service):
        from repro.pipeline.fleet import FleetAssignment, FleetDevice, FleetPlan

        plan = FleetPlan(
            setup_name=SETUP.name, n_dms=GRID.n_dms, n_beams=1,
            assignments=(
                FleetAssignment(
                    device_name="ghost", units=1, beams_per_unit=1,
                    beams_total=1, cost=1.0,
                ),
            ),
        )
        with pytest.raises(SchedulerError, match="not in"):
            ExecutionEngine.from_plan(
                plan, [FleetDevice(hd7970(), available=1)], SETUP, GRID,
                service=service,
            )


class TestObservability:
    def test_run_records_sched_metrics(self, service):
        with use_registry() as registry:
            report = make_engine(
                service, seed=6, faults=FaultProfile.default_injection()
            ).run()
            names = {series.name for series in registry.series()}
        assert "repro_sched_runs_total" in names
        assert "repro_sched_shards_total" in names
        assert "repro_sched_makespan_seconds" in names
        assert "repro_sched_realtime_margin" in names
        if report.crashed_workers:
            assert "repro_sched_crashes_total" in names

    def test_spans_emitted_per_shard(self, service):
        with use_registry() as registry:
            report = make_engine(service, seed=6).run()
            counter = registry.counter(
                "repro_trace_spans_total", span="sched.shard"
            )
            assert counter.value == report.attempts


class TestNumericExecution:
    """The engine's own sharding produces real numbers via the facade."""

    def test_matches_unsharded_batched_launch(self, service, rng):
        import numpy as np

        from repro.astro.dispersion import delay_table
        from repro.core.config import KernelConfiguration
        from repro.opencl_sim.batch import build_batched_kernel
        from repro.run import ExecutionRequest, execute

        engine = make_engine(service, n_beams=2, duration_s=1.0)
        config = KernelConfiguration(
            work_items_time=4, work_items_dm=2, elements_time=2, elements_dm=1
        )
        table = delay_table(SETUP, GRID.values)
        t = SETUP.samples_per_batch + int(table.max())
        batch = rng.normal(size=(2, SETUP.channels, t)).astype(np.float32)
        def run(backend=None):
            return execute(
                ExecutionRequest(
                    data=batch,
                    config=config,
                    delay_table=engine.delay_table(),
                    shards=engine.shards_for_batch(0),
                    backend=backend,
                )
            ).output

        stitched = run()
        reference = build_batched_kernel(
            config, SETUP.channels, SETUP.samples_per_batch, 2
        ).execute(batch, table)
        assert np.array_equal(stitched, reference)
        # Both executors stitch to the same bits.
        assert np.array_equal(stitched, run(backend="vectorized"))

    def test_unknown_batch_rejected(self, service):
        engine = make_engine(service, n_beams=1, duration_s=1.0)
        with pytest.raises(SchedulerError, match="no shards"):
            engine.shards_for_batch(99)
