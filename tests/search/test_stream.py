"""Unit tests for repro.search.stream — the real-time search driver."""

from pathlib import Path

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.pulse import gaussian_profile
from repro.astro.signal_gen import SyntheticPulsar
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import PipelineError
from repro.hardware.catalog import hd7970
from repro.obs import use_registry
from repro.search import SearchConfig, StreamingSearch, search_stream
from tests.conftest import make_chunks

CONFIG = KernelConfiguration(16, 4, 5, 2)
INJECTED_TRIAL = 4
#: The injected pulsar, at DM 4.0: trial ``INJECTED_TRIAL`` of ``toy_grid``.
#: Its pulse (sigma 1.4 samples) is narrower than its 15-sample sweep
#: across the band, so S/N peaks sharply at the true trial.
PULSARS = (
    SyntheticPulsar(
        period_seconds=0.7,
        dm=4.0,
        amplitude=1.0,
        profile=gaussian_profile(0.005),
    ),
)


@pytest.fixture
def plan(toy_low, toy_grid):
    return DedispersionPlan.create(
        toy_low, toy_grid, hd7970(), config=CONFIG, samples=400
    )


class TestRecovery:
    @pytest.mark.parametrize("backend", ["tiled", "vectorized"])
    def test_recovers_injected_pulse(self, plan, toy_low, toy_grid, backend):
        chunks = make_chunks(toy_low, toy_grid, PULSARS)
        report = search_stream(plan, iter(chunks), backend=backend)
        assert report.backend == backend
        assert report.best is not None
        assert abs(report.best.best.dm_index - INJECTED_TRIAL) <= 1
        assert report.best.best.snr >= 6.0

    def test_backends_find_identical_candidates(self, plan, toy_low, toy_grid):
        chunks = make_chunks(toy_low, toy_grid, PULSARS)
        tiled = search_stream(plan, iter(chunks), backend="tiled")
        fast = search_stream(plan, iter(chunks), backend="vectorized")
        assert tiled.result.accepted == fast.result.accepted
        assert tiled.result.vetoed == fast.result.vetoed

    def test_deterministic_under_fixed_seed(self, plan, toy_low, toy_grid):
        first = search_stream(
            plan, iter(make_chunks(toy_low, toy_grid, PULSARS, seed=23)),
            backend="vectorized",
        )
        second = search_stream(
            plan, iter(make_chunks(toy_low, toy_grid, PULSARS, seed=23)),
            backend="vectorized",
        )
        assert first.result.accepted == second.result.accepted
        assert first.result.vetoed == second.result.vetoed
        assert first.chunks_dropped == second.chunks_dropped
        assert first.verdict == second.verdict


class TestRealtimeModel:
    def test_fast_search_sustains_realtime(self, plan, toy_low, toy_grid):
        report = search_stream(plan, iter(make_chunks(toy_low, toy_grid, PULSARS)))
        assert report.verdict == "realtime_sustained"
        assert report.chunks_processed == 2
        assert report.chunks_dropped == 0
        assert report.makespan_s > 0.0

    def test_backpressure_drops_deterministically(self, plan, toy_low, toy_grid):
        # Service floored at 2.5 cadences with a single queue slot: the
        # virtual clock admits 0, 1, 3, 5 and sheds 2 and 4.
        config = SearchConfig(
            queue_capacity=1,
            min_service_seconds=2.5 * (plan.samples / 400),
        )
        report = search_stream(
            plan, iter(make_chunks(toy_low, toy_grid, PULSARS, n_chunks=6)), config
        )
        assert report.verdict == "degraded"
        assert report.degraded
        assert report.chunks_dropped == 2
        assert [r.sequence for r in report.records if r.dropped] == [2, 4]
        for record in report.records:
            if record.dropped:
                assert record.lag_s == 0.0

    def test_long_stream_drops_match_a_reference_queue(
        self, plan, toy_low, toy_grid
    ):
        # A reference bounded queue that rescans every finish time; the
        # search must shed exactly the chunks it sheds.
        cadence = plan.samples / toy_low.samples_per_second
        service = 2.5 * cadence
        capacity = 2
        finish_times, busy_until, expected = [], 0.0, []
        for sequence in range(40):
            arrival = sequence * cadence
            pending = sum(1 for f in finish_times if f > arrival)
            if max(0, pending - 1) >= capacity:
                expected.append(sequence)
                continue
            busy_until = max(arrival, busy_until) + service
            finish_times.append(busy_until)
        config = SearchConfig(
            queue_capacity=capacity, min_service_seconds=service
        )
        report = search_stream(
            plan, iter(make_chunks(toy_low, toy_grid, PULSARS, n_chunks=40)), config
        )
        dropped = [r.sequence for r in report.records if r.dropped]
        assert dropped == expected
        assert 0 < len(dropped) < 40

    def test_slow_but_unshed_stream_is_complete(self, plan, toy_low, toy_grid):
        config = SearchConfig(
            queue_capacity=16,
            min_service_seconds=1.5 * (plan.samples / 400),
        )
        report = search_stream(
            plan, iter(make_chunks(toy_low, toy_grid, PULSARS, n_chunks=3)), config
        )
        assert report.chunks_dropped == 0
        assert not report.realtime_sustained
        assert report.verdict == "complete"

    def test_empty_stream_rejected(self, plan):
        with pytest.raises(PipelineError, match="no chunks"):
            search_stream(plan, iter(()))


class TestRfiMitigation:
    def test_requires_grid_above_zero_dm(self, plan):
        with pytest.raises(PipelineError, match="zero-DM"):
            StreamingSearch(plan, SearchConfig(rfi_mitigation=True))

    def test_runs_on_copies_not_the_stream(self, toy_low):
        grid = DMTrialGrid(n_dms=8, first=1.0, step=1.0)
        plan = DedispersionPlan.create(
            toy_low, grid, hd7970(), config=CONFIG, samples=400
        )
        chunks = make_chunks(toy_low, grid, PULSARS)
        before = [chunk.data.copy() for chunk in chunks]
        search_stream(plan, iter(chunks), SearchConfig(rfi_mitigation=True))
        for chunk, original in zip(chunks, before):
            np.testing.assert_array_equal(chunk.data, original)


class TestObservability:
    def test_records_search_metrics(self, plan, toy_low, toy_grid):
        with use_registry() as registry:
            search_stream(plan, iter(make_chunks(toy_low, toy_grid, PULSARS)))
            names = {series.name for series in registry.series()}
        assert "repro_search_chunks_total" in names
        assert "repro_search_candidates_total" in names
        assert "repro_search_detect_seconds" in names
        assert "repro_search_lag_seconds" in names
        assert "repro_search_realtime_margin" in names

    def test_drop_counter_matches_report(self, plan, toy_low, toy_grid):
        config = SearchConfig(
            queue_capacity=1,
            min_service_seconds=2.5 * (plan.samples / 400),
        )
        with use_registry() as registry:
            report = search_stream(
                plan, iter(make_chunks(toy_low, toy_grid, PULSARS, n_chunks=6)), config
            )
            counter = registry.counter(
                "repro_search_chunks_total",
                outcome="dropped",
                setup=plan.setup.name,
            )
            assert counter.value == report.chunks_dropped


class TestIsolation:
    def test_search_never_imports_the_simulator(self):
        # The facade is the only road to the executors; repro.search must
        # not reach around it.
        package = (
            Path(__file__).resolve().parents[2] / "src" / "repro" / "search"
        )
        for source in package.glob("*.py"):
            assert "opencl_sim" not in source.read_text(), (
                f"{source.name} references opencl_sim directly"
            )


class TestStreamFaultAccounting:
    def _faulted(self, toy_low, toy_grid, drop=(), dup=()):
        chunks = make_chunks(toy_low, toy_grid, PULSARS, n_chunks=4)
        out = []
        for chunk in chunks:
            if chunk.sequence in drop:
                continue
            out.append(chunk)
            if chunk.sequence in dup:
                out.append(chunk)
        return out

    def test_contiguous_stream_reports_no_faults(self, plan, toy_low, toy_grid):
        report = search_stream(
            plan, iter(self._faulted(toy_low, toy_grid))
        )
        assert report.missing_sequences == ()
        assert report.duplicate_sequences == ()

    def test_gap_is_detected(self, plan, toy_low, toy_grid):
        report = search_stream(
            plan, iter(self._faulted(toy_low, toy_grid, drop=(2,)))
        )
        assert report.missing_sequences == (2,)
        assert report.duplicate_sequences == ()

    def test_duplicate_is_detected(self, plan, toy_low, toy_grid):
        report = search_stream(
            plan, iter(self._faulted(toy_low, toy_grid, dup=(1,)))
        )
        assert report.missing_sequences == ()
        assert report.duplicate_sequences == (1,)

    def test_gap_and_duplicate_together(self, plan, toy_low, toy_grid):
        report = search_stream(
            plan,
            iter(self._faulted(toy_low, toy_grid, drop=(2,), dup=(1,))),
        )
        assert report.missing_sequences == (2,)
        assert report.duplicate_sequences == (1,)
        assert "missing" in report.summary()

    def test_backpressure_drop_is_not_a_gap(self, plan, toy_low, toy_grid):
        # A chunk shed by the bounded queue still *arrived*: it must show
        # up in dropped_sequences, not missing_sequences.
        chunks = make_chunks(toy_low, toy_grid, PULSARS, n_chunks=4)
        config = SearchConfig(
            queue_capacity=1,
            min_service_seconds=2.5 * plan.samples / toy_low.samples_per_second,
        )
        report = StreamingSearch(plan, config).run(iter(chunks))
        assert report.chunks_dropped > 0
        assert report.missing_sequences == ()
        assert set(report.dropped_sequences) <= {
            c.sequence for c in chunks
        }

    def test_verdict_payload_is_deterministic_and_complete(
        self, plan, toy_low, toy_grid
    ):
        import json

        stream = self._faulted(toy_low, toy_grid, drop=(2,), dup=(1,))
        a = search_stream(plan, iter(stream))
        b = search_stream(plan, iter(stream))
        payload = a.verdict_payload()
        assert payload == b.verdict_payload()
        json.dumps(payload)
        assert payload["missing_sequences"] == [2]
        assert payload["duplicate_sequences"] == [1]
        assert payload["chunks_processed"] == a.chunks_processed
        sequences = [row["sequence"] for row in payload["per_chunk"]]
        assert sequences.count(1) == 2
        assert 2 not in sequences
        assert not any(
            "seconds" in key for row in payload["per_chunk"] for key in row
        )

    def test_fault_counters_registered(self, plan, toy_low, toy_grid):
        with use_registry() as registry:
            search_stream(
                plan,
                iter(self._faulted(toy_low, toy_grid, drop=(2,), dup=(1,))),
            )
            assert registry.counter(
                "repro_search_chunks_total", outcome="missing",
                setup=toy_low.name,
            ).value == 1
            assert registry.counter(
                "repro_search_chunks_total", outcome="duplicate",
                setup=toy_low.name,
            ).value == 1


def _bare_report(records):
    """A SearchReport over hand-built records, bypassing run()."""
    from repro.search.sift import SiftResult
    from repro.search.stream import SearchReport

    return SearchReport(
        setup_name="toy-low",
        n_dms=8,
        chunk_seconds=1.0,
        deadline_seconds=1.0,
        records=tuple(records),
        result=SiftResult(accepted=(), vetoed=()),
        backend="vectorized",
    )


class TestVerdictSemantics:
    def test_empty_records_are_not_realtime_sustained(self):
        # all() over zero records is vacuously true; an empty report must
        # not claim real-time performance it never demonstrated.
        report = _bare_report(())
        assert report.verdict == "empty"
        assert not report.realtime_sustained
        assert report.makespan_s == 0.0
        assert report.verdict_payload()["verdict"] == "empty"

    def test_single_processed_chunk_can_sustain_realtime(self):
        from repro.search.stream import ChunkRecord

        report = _bare_report(
            (
                ChunkRecord(
                    sequence=0,
                    arrival_s=0.0,
                    dropped=False,
                    start_s=0.0,
                    finish_s=0.5,
                    service_s=0.5,
                ),
            )
        )
        assert report.verdict == "realtime_sustained"

    def test_makespan_covers_dropped_tail(self):
        # A stream whose final chunks are all shed still occupied the
        # search until those arrivals; makespan must not stop at the
        # last processed chunk's finish.
        from repro.search.stream import ChunkRecord

        report = _bare_report(
            (
                ChunkRecord(
                    sequence=0,
                    arrival_s=0.0,
                    dropped=False,
                    start_s=0.0,
                    finish_s=1.5,
                    service_s=1.5,
                ),
                ChunkRecord(sequence=1, arrival_s=1.0, dropped=True),
                ChunkRecord(sequence=2, arrival_s=2.0, dropped=True),
            )
        )
        assert report.makespan_s == 2.0
        assert report.verdict == "degraded"

    def test_makespan_under_backpressure_run(self, plan, toy_low, toy_grid):
        # End-to-end: with drops present, makespan covers every record's
        # disposition (processed finish or shed arrival).
        config = SearchConfig(
            queue_capacity=1,
            min_service_seconds=2.5 * (plan.samples / 400),
        )
        report = search_stream(
            plan, iter(make_chunks(toy_low, toy_grid, PULSARS, n_chunks=6)), config
        )
        assert report.chunks_dropped > 0
        expected = max(
            r.arrival_s if r.dropped else r.finish_s for r in report.records
        )
        assert report.makespan_s == expected


class TestFusedPath:
    def test_fused_is_the_default(self):
        assert SearchConfig().fused

    def test_fused_and_staged_find_identical_candidates(
        self, plan, toy_low, toy_grid
    ):
        chunks = make_chunks(toy_low, toy_grid, PULSARS, n_chunks=3)
        fused = search_stream(
            plan, iter(chunks), SearchConfig(fused=True),
            backend="vectorized",
        )
        staged = search_stream(
            plan, iter(chunks), SearchConfig(fused=False),
            backend="vectorized",
        )
        assert fused.result.accepted == staged.result.accepted
        assert fused.result.vetoed == staged.result.vetoed
        assert [r.n_raw for r in fused.records] == [
            r.n_raw for r in staged.records
        ]

    def test_verdict_payload_identical_across_paths(
        self, plan, toy_low, toy_grid
    ):
        # The scenario goldens compare verdict payloads exactly; the
        # fused default must not perturb them.
        chunks = make_chunks(toy_low, toy_grid, PULSARS, n_chunks=3)
        fused = search_stream(plan, iter(chunks), SearchConfig(fused=True))
        staged = search_stream(plan, iter(chunks), SearchConfig(fused=False))
        assert fused.verdict_payload() == staged.verdict_payload()

    def test_chunk_records_carry_peak_bytes(self, plan, toy_low, toy_grid):
        report = search_stream(plan, iter(make_chunks(toy_low, toy_grid, PULSARS)))
        assert all(r.peak_bytes > 0 for r in report.records)
        assert report.peak_bytes == max(r.peak_bytes for r in report.records)

    def test_staged_path_meters_and_labels_peak(self, plan, toy_low, toy_grid):
        with use_registry() as registry:
            search_stream(
                plan,
                iter(make_chunks(toy_low, toy_grid, PULSARS)),
                SearchConfig(fused=False),
            )
            hist = registry.histogram("repro_run_peak_bytes", path="staged")
            assert hist.count == 2
            assert hist.sum > 0

    def test_fused_path_emits_fused_label(self, plan, toy_low, toy_grid):
        with use_registry() as registry:
            search_stream(plan, iter(make_chunks(toy_low, toy_grid, PULSARS)))
            hist = registry.histogram("repro_run_peak_bytes", path="fused")
            assert hist.count == 2
