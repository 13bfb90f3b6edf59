"""Tests for the fused dedisperse→detect execution path."""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.signal_gen import SyntheticPulsar
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import ValidationError
from repro.hardware.catalog import hd7970
from repro.obs import use_registry
from repro.obs.tracing import Tracer
from repro.run import ExecutionRequest, MemoryAccount, execute
from repro.run import fused as fused_module
from repro.run.fused import resolve_dm_tile, run_fused_chunk
from repro.search.detect import MatchedFilterDetector
from tests.conftest import make_chunks

CONFIG = KernelConfiguration(16, 4, 5, 2)
#: The injected pulsar, at DM 4.0: trial 4 of ``toy_grid``.
PULSARS = (SyntheticPulsar(period_seconds=0.7, dm=4.0, amplitude=1.0),)


@pytest.fixture
def plan(toy_low, toy_grid):
    return DedispersionPlan.create(
        toy_low, toy_grid, hd7970(), config=CONFIG, samples=400
    )


@pytest.fixture
def detector():
    return MatchedFilterDetector.for_samples(400)


class TestRequestValidation:
    def test_detector_infers_fused_mode(self, plan, toy_low, toy_grid, detector):
        chunks = make_chunks(toy_low, toy_grid, PULSARS)
        request = ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        assert request.mode == "fused"

    def test_detector_invalid_in_kernel_mode(self, plan, detector, rng):
        data = rng.normal(size=(16, 500)).astype(np.float32)
        with pytest.raises(ValidationError, match="only valid in fused"):
            ExecutionRequest(plan=plan, data=data, detector=detector)

    def test_empty_fused_request_rejected(self, plan, detector):
        with pytest.raises(ValidationError, match="no chunks"):
            execute(
                ExecutionRequest(plan=plan, chunks=(), detector=detector)
            )


class TestDmTile:
    def test_default_is_tile_multiple(self):
        assert resolve_dm_tile(1024, 8) % 8 == 0
        assert resolve_dm_tile(8, 8) == 8


class TestFusedExecution:
    def test_candidates_bit_identical_to_staged(
        self, plan, toy_low, toy_grid, detector
    ):
        chunks = make_chunks(toy_low, toy_grid, PULSARS, n_chunks=3)
        fused = execute(
            ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        )
        staged = []
        for chunk in chunks:
            result = execute(ExecutionRequest(plan=plan, chunks=(chunk,)))
            staged.extend(
                detector.detect(
                    result.output,
                    toy_grid.values,
                    time_offset=chunk.sequence * plan.samples,
                    beam=chunk.beam_index,
                )
            )
        assert fused.candidates == tuple(staged)
        assert fused.mode == "fused"
        assert fused.output is None

    @pytest.mark.parametrize("backend", ["tiled", "vectorized"])
    def test_candidates_identical_across_backends(
        self, plan, toy_low, toy_grid, detector, backend
    ):
        chunks = make_chunks(toy_low, toy_grid, PULSARS)
        auto = execute(
            ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        )
        pinned = execute(
            ExecutionRequest(
                plan=plan, chunks=chunks, detector=detector, backend=backend
            )
        )
        assert pinned.candidates == auto.candidates
        assert pinned.backend == backend

    @pytest.mark.parametrize(
        "n_dms,launches", [(32, 12), (136, 27)], ids=["4x8", "8x16+8"]
    )
    def test_candidates_bit_identical_across_slabs(
        self, toy_low, detector, n_dms, launches
    ):
        # CONFIG tiles 8 DMs, so 32 trials are cut into 4 slabs of 8 and
        # 136 trials into 8 slabs of 16 plus a last slab of 8.
        grid = DMTrialGrid(n_dms=n_dms, first=0.0, step=0.25)
        plan = DedispersionPlan.create(
            toy_low, grid, hd7970(), config=CONFIG, samples=400
        )
        chunks = make_chunks(toy_low, grid, PULSARS, n_chunks=3)
        fused = execute(
            ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        )
        streamed = execute(ExecutionRequest(plan=plan, chunks=chunks))
        staged = [
            candidate
            for chunk, result in zip(chunks, streamed.chunk_results)
            for candidate in detector.detect(
                result.output,
                grid.values,
                time_offset=chunk.sequence * plan.samples,
                beam=chunk.beam_index,
            )
        ]
        assert staged
        assert fused.candidates == tuple(staged)
        assert fused.launches == launches

    def test_n_dms_guarded_for_fused_results(
        self, plan, toy_low, toy_grid, detector
    ):
        chunks = make_chunks(toy_low, toy_grid, PULSARS)
        result = execute(
            ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        )
        with pytest.raises(ValidationError, match="no output plane"):
            result.n_dms

    def test_launch_count_covers_every_slab(
        self, plan, toy_low, toy_grid, detector
    ):
        chunks = make_chunks(toy_low, toy_grid, PULSARS, n_chunks=2)
        result = execute(
            ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        )
        # 8 trial DMs per chunk in one 8-row slab → one launch per chunk.
        assert result.launches == 2


class TestPeakAccounting:
    def test_fused_peak_below_staged_peak(self, toy_low, detector, rng):
        # A taller grid (32 trials, 4 slabs of 8) makes the plane-scale
        # savings visible even at toy scale.
        grid = DMTrialGrid(n_dms=32, first=0.0, step=0.25)
        plan = DedispersionPlan.create(
            toy_low, grid, hd7970(), config=CONFIG, samples=400
        )
        chunks = make_chunks(toy_low, grid, PULSARS)
        fused = execute(
            ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        )
        account = MemoryAccount()
        staged = execute(ExecutionRequest(plan=plan, chunks=(chunks[0],)))
        account.charge(staged.output.nbytes)
        detector.detect(staged.output, grid.values, account=account)
        assert fused.peak_bytes < account.peak_bytes
        # 4 slabs → roughly a 4x reduction of the plane-scale arrays.
        assert account.peak_bytes >= 3 * fused.peak_bytes

    def test_peak_metric_emitted(self, plan, toy_low, toy_grid, detector):
        chunks = make_chunks(toy_low, toy_grid, PULSARS)
        with use_registry() as registry:
            execute(
                ExecutionRequest(
                    plan=plan, chunks=chunks, detector=detector
                )
            )
            hist = registry.histogram("repro_run_peak_bytes", path="fused")
            assert hist.count == len(chunks)
            assert hist.sum > 0

    def test_pipeline_chunk_metric_still_emitted(
        self, plan, toy_low, toy_grid, detector
    ):
        # The fused path performs the same pipeline stage as the staged
        # one, so the chunk counter the CI grep pins must keep moving.
        chunks = make_chunks(toy_low, toy_grid, PULSARS)
        with use_registry() as registry:
            execute(
                ExecutionRequest(
                    plan=plan, chunks=chunks, detector=detector
                )
            )
            assert registry.counter(
                "repro_pipeline_chunks_total",
                device=plan.device.name,
                setup=plan.setup.name,
            ).value == len(chunks)

    def test_account_balances_to_zero(self, plan, toy_low, toy_grid, detector):
        # Every charge must have a matching release: a leak would grow
        # the high-water mark of longer streams without bound.
        chunk = make_chunks(toy_low, toy_grid, PULSARS)[0]
        result = run_fused_chunk(plan, chunk, detector)
        assert result.peak_bytes > 0
        account = MemoryAccount()
        account.charge(100)
        account.release(100)
        assert account.current_bytes == 0


class TestChunkSpan:
    def test_span_carries_its_own_numbers(
        self, plan, toy_low, toy_grid, detector, monkeypatch
    ):
        tracer = Tracer()
        monkeypatch.setattr(fused_module, "span", tracer.span)
        chunk = make_chunks(toy_low, toy_grid, PULSARS)[0]
        result = run_fused_chunk(plan, chunk, detector)
        (chunk_span,) = tracer.finished
        assert chunk_span.name == "run.fused_chunk"
        attrs = chunk_span.attributes
        assert attrs["kernel_s"] > 0.0
        assert attrs["detect_s"] == result.detect_seconds
        assert attrs["kernel_s"] + attrs["detect_s"] <= chunk_span.duration_s
        assert attrs["modelled_s"] == plan.predict().seconds
        assert attrs["modelled_s"] == result.simulated_seconds
        assert attrs["peak_bytes"] == result.peak_bytes


class TestMemoryAccount:
    def test_peak_is_high_water_mark(self):
        account = MemoryAccount()
        account.charge(100)
        account.charge(50)
        account.release(100)
        account.charge(25)
        assert account.peak_bytes == 150
        assert account.current_bytes == 75

    def test_transient_releases_on_exit(self):
        account = MemoryAccount()
        with account.transient(1000):
            assert account.current_bytes == 1000
        assert account.current_bytes == 0
        assert account.peak_bytes == 1000

    def test_track_returns_array(self):
        account = MemoryAccount()
        array = np.zeros(10, dtype=np.float64)
        assert account.track(array) is array
        assert account.peak_bytes == 80
