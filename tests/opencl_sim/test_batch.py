"""Unit tests for repro.opencl_sim.batch and multi-beam metrics."""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.core.config import KernelConfiguration
from repro.errors import ValidationError
from repro.hardware.catalog import hd7970
from repro.hardware.multibeam_metrics import simulate_multibeam
from repro.opencl_sim.batch import build_batched_kernel
from tests.conftest import make_input, run_kernel


CONFIG = KernelConfiguration(20, 2, 5, 2)


@pytest.fixture
def batch_inputs(toy_low, toy_grid, rng):
    beams = np.stack([make_input(toy_low, toy_grid, rng) for _ in range(3)])
    table = delay_table(toy_low, toy_grid.values)
    return beams, table


class TestBatchedKernel:
    def test_each_beam_matches_single_kernel(self, toy_low, toy_grid, batch_inputs):
        beams, table = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 3)
        out = batched.execute(beams, table)
        assert out.shape == (3, toy_grid.n_dms, 400)
        for b in range(3):
            expected = run_kernel(batched.kernel, beams[b], table)
            np.testing.assert_array_equal(out[b], expected)

    def test_beams_independent(self, toy_low, toy_grid, batch_inputs):
        beams, table = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 3)
        out_full = batched.execute(beams, table)
        modified = beams.copy()
        modified[1] *= 2.0
        out_modified = batched.execute(modified, table)
        np.testing.assert_array_equal(out_full[0], out_modified[0])
        np.testing.assert_array_equal(out_full[2], out_modified[2])
        assert not np.array_equal(out_full[1], out_modified[1])

    def test_out_parameter(self, toy_low, toy_grid, batch_inputs):
        beams, table = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 3)
        out = np.empty((3, toy_grid.n_dms, 400), dtype=np.float32)
        result = batched.execute(beams, table, out=out)
        assert result is out

    def test_rejects_wrong_beam_count(self, toy_low, batch_inputs):
        beams, table = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 5)
        with pytest.raises(ValidationError, match="beams"):
            batched.execute(beams, table)

    def test_rejects_2d_input(self, toy_low, batch_inputs):
        beams, table = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 3)
        with pytest.raises(ValidationError):
            batched.execute(beams[0], table)

    def test_accepts_delay_table_as_list(self, toy_low, batch_inputs):
        # Regression: shape[0] was dereferenced before np.asarray, so a
        # plain nested list crashed with AttributeError.
        beams, table = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 3)
        np.testing.assert_array_equal(
            batched.execute(beams, table.tolist()),
            batched.execute(beams, table),
        )

    def test_rejects_1d_delay_table(self, toy_low, batch_inputs):
        beams, _ = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 3)
        with pytest.raises(ValidationError, match="delay table"):
            batched.execute(beams, [0] * toy_low.channels)

    def test_rejects_negative_delay_table(self, toy_low, batch_inputs):
        beams, table = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 3)
        bad = np.asarray(table).copy()
        bad[0, 0] = -3
        with pytest.raises(ValidationError, match="non-negative"):
            batched.execute(beams, bad)

    def test_rejects_non_float32_out(self, toy_low, toy_grid, batch_inputs):
        beams, table = batch_inputs
        batched = build_batched_kernel(CONFIG, toy_low.channels, 400, 3)
        with pytest.raises(ValidationError, match="float32"):
            batched.execute(
                beams,
                table,
                out=np.zeros((3, toy_grid.n_dms, 400), dtype=np.float64),
            )


class TestMultibeamMetrics:
    CONFIG = KernelConfiguration(32, 8, 25, 4)

    def _metrics(self, n_beams):
        return simulate_multibeam(
            hd7970(), apertif(), DMTrialGrid(256), self.CONFIG, n_beams
        )

    def test_time_scales_with_beams(self):
        one = self._metrics(1)
        nine = self._metrics(9)
        assert nine.seconds == pytest.approx(
            9 * (one.seconds - 0.3e-3) + 0.3e-3, rel=0.01
        )

    def test_batching_beats_separate_launches(self):
        metrics = self._metrics(9)
        assert metrics.batching_speedup > 1.0
        assert metrics.seconds < metrics.seconds_separate_launches

    def test_batching_gain_shrinks_with_big_beams(self):
        small = simulate_multibeam(
            hd7970(), apertif(), DMTrialGrid(32), self.CONFIG, 9
        )
        big = self._metrics(9)
        assert small.batching_speedup > big.batching_speedup

    def test_realtime_beams_consistent_with_scheduler(self):
        # The Sec. V-D sizing: ~9 Apertif beams per HD7970 at 2,000 DMs.
        from repro.core.tuner import AutoTuner

        grid = DMTrialGrid(2000)
        best = AutoTuner(hd7970(), apertif()).tune(grid).best
        metrics = simulate_multibeam(
            hd7970(), apertif(), grid, best.config, 9
        )
        assert 8 <= metrics.realtime_beams <= 10

    def test_flop_accounting(self):
        metrics = self._metrics(4)
        assert metrics.flops == 4 * 256 * 20_000 * 1024

    def test_rejects_zero_beams(self):
        with pytest.raises(ValidationError):
            self._metrics(0)
