"""Tests for the fused dedisperse→detect execution path."""

import numpy as np
import pytest

from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.telescope import Telescope
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import ValidationError
from repro.hardware.catalog import hd7970
from repro.obs import use_registry
from repro.run import ExecutionRequest, MemoryAccount, execute
from repro.run.fused import resolve_dm_tile, run_fused_chunk
from repro.search.detect import MatchedFilterDetector

CONFIG = KernelConfiguration(16, 4, 5, 2)


@pytest.fixture
def plan(toy_low, toy_grid):
    return DedispersionPlan.create(
        toy_low, toy_grid, hd7970(), config=CONFIG, samples=400
    )


@pytest.fixture
def detector():
    return MatchedFilterDetector.for_samples(400)


def make_chunks(toy_low, toy_grid, n_chunks=2, seed=11):
    telescope = Telescope(setup=toy_low, noise_sigma=0.5, seed=seed)
    beam = telescope.add_beam(
        pulsars=(
            SyntheticPulsar(
                period_seconds=0.7,
                dm=float(toy_grid.values[4]),
                amplitude=1.0,
            ),
        )
    )
    return list(telescope.stream(beam, n_chunks, toy_grid))


class TestRequestValidation:
    def test_detector_infers_fused_mode(self, plan, toy_low, toy_grid, detector):
        chunks = tuple(make_chunks(toy_low, toy_grid))
        request = ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        assert request.resolve_mode() == "fused"

    def test_explicit_fused_mode_requires_detector(self, plan, toy_low, toy_grid):
        chunks = tuple(make_chunks(toy_low, toy_grid))
        with pytest.raises(ValidationError, match="detector="):
            ExecutionRequest(
                plan=plan, chunks=chunks, mode="fused"
            ).resolve_mode()

    def test_detector_conflicts_with_streaming_mode(
        self, plan, toy_low, toy_grid, detector
    ):
        chunks = tuple(make_chunks(toy_low, toy_grid))
        with pytest.raises(ValidationError, match="fused"):
            ExecutionRequest(
                plan=plan, chunks=chunks, detector=detector, mode="streaming"
            ).resolve_mode()

    def test_detector_invalid_in_kernel_mode(self, plan, detector, rng):
        data = rng.normal(size=(16, 500)).astype(np.float32)
        with pytest.raises(ValidationError, match="only valid in fused"):
            ExecutionRequest(
                plan=plan, data=data, detector=detector
            ).resolve_mode()

    def test_dm_tile_invalid_outside_fused(self, plan, rng):
        data = rng.normal(size=(16, 500)).astype(np.float32)
        with pytest.raises(ValidationError, match="dm_tile"):
            ExecutionRequest(plan=plan, data=data, dm_tile=8).resolve_mode()

    def test_empty_fused_request_rejected(self, plan, detector):
        with pytest.raises(ValidationError, match="no chunks"):
            execute(
                ExecutionRequest(plan=plan, chunks=(), detector=detector)
            )


class TestDmTile:
    def test_default_is_tile_multiple(self):
        assert resolve_dm_tile(1024, 8, None) % 8 == 0
        assert resolve_dm_tile(8, 8, None) == 8

    def test_explicit_must_be_tile_multiple(self):
        assert resolve_dm_tile(64, 8, 16) == 16
        with pytest.raises(ValidationError, match="multiple"):
            resolve_dm_tile(64, 8, 12)
        with pytest.raises(ValidationError, match="multiple"):
            resolve_dm_tile(64, 8, 0)


class TestFusedExecution:
    def test_candidates_bit_identical_to_staged(
        self, plan, toy_low, toy_grid, detector
    ):
        chunks = make_chunks(toy_low, toy_grid, n_chunks=3)
        fused = execute(
            ExecutionRequest(
                plan=plan, chunks=tuple(chunks), detector=detector
            )
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

    @pytest.mark.parametrize(
        "backend", ["tiled", "vectorized", "channel_tile"]
    )
    def test_candidates_identical_across_backends(
        self, plan, toy_low, toy_grid, detector, backend
    ):
        chunks = tuple(make_chunks(toy_low, toy_grid))
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

    def test_dm_tile_slicing_changes_nothing(
        self, plan, toy_low, toy_grid, detector
    ):
        chunks = tuple(make_chunks(toy_low, toy_grid))
        whole = execute(
            ExecutionRequest(
                plan=plan,
                chunks=chunks,
                detector=detector,
                dm_tile=toy_grid.n_dms,
            )
        )
        sliced = execute(
            ExecutionRequest(
                plan=plan, chunks=chunks, detector=detector, dm_tile=8
            )
        )
        assert sliced.candidates == whole.candidates

    def test_n_dms_guarded_for_fused_results(
        self, plan, toy_low, toy_grid, detector
    ):
        chunks = tuple(make_chunks(toy_low, toy_grid))
        result = execute(
            ExecutionRequest(plan=plan, chunks=chunks, detector=detector)
        )
        with pytest.raises(ValidationError, match="no output plane"):
            result.n_dms

    def test_launch_count_covers_every_slab(
        self, plan, toy_low, toy_grid, detector
    ):
        chunks = tuple(make_chunks(toy_low, toy_grid, n_chunks=2))
        result = execute(
            ExecutionRequest(
                plan=plan, chunks=chunks, detector=detector, dm_tile=8
            )
        )
        # 8 trial DMs per chunk in one 8-row slab → one launch per chunk.
        assert result.launches == 2


class TestPeakAccounting:
    def test_fused_peak_below_staged_peak(self, toy_low, detector, rng):
        # A taller grid (32 trials, 4 slabs of 8) makes the plane-scale
        # savings visible even at toy scale.
        from repro.astro.dm_trials import DMTrialGrid

        grid = DMTrialGrid(n_dms=32, first=0.0, step=0.25)
        plan = DedispersionPlan.create(
            toy_low, grid, hd7970(), config=CONFIG, samples=400
        )
        chunks = make_chunks(toy_low, grid)
        fused = execute(
            ExecutionRequest(
                plan=plan,
                chunks=tuple(chunks),
                detector=detector,
                dm_tile=8,
            )
        )
        account = MemoryAccount()
        staged = execute(ExecutionRequest(plan=plan, chunks=(chunks[0],)))
        account.charge(staged.output.nbytes)
        detector.detect(staged.output, grid.values, account=account)
        assert fused.peak_bytes < account.peak_bytes
        # 4 slabs → roughly a 4x reduction of the plane-scale arrays.
        assert account.peak_bytes >= 3 * fused.peak_bytes

    def test_peak_metric_emitted(self, plan, toy_low, toy_grid, detector):
        chunks = tuple(make_chunks(toy_low, toy_grid))
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
        chunks = tuple(make_chunks(toy_low, toy_grid))
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
        chunk = make_chunks(toy_low, toy_grid)[0]
        result = run_fused_chunk(plan, chunk, detector)
        assert result.peak_bytes > 0
        account = MemoryAccount()
        account.charge(100)
        account.release(100)
        assert account.current_bytes == 0


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
