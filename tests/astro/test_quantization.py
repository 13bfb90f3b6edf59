"""Unit tests for repro.astro.quantization."""

import numpy as np
import pytest

from repro.astro.quantization import (
    ai_bound_with_input_bytes,
    quantize,
    snr_efficiency,
)
from repro.errors import ValidationError
from tests.conftest import best_trial, make_observation


class TestQuantize:
    def test_roundtrip_error_bounded_by_step(self, rng):
        data = rng.normal(size=(8, 1000)).astype(np.float32)
        q = quantize(data, nbits=8)
        recovered = q.dequantize()
        # Non-saturated samples are within half a step.
        inside = np.abs(data - data.mean()) < 5.5 * data.std()
        assert np.all(np.abs(recovered - data)[inside] <= 0.51 * q.step)

    def test_dtype_and_shape(self, rng):
        data = rng.normal(size=(4, 100))
        q = quantize(data)
        assert q.data.dtype == np.uint8
        assert q.data.shape == data.shape

    def test_uses_full_range(self, rng):
        data = rng.normal(size=100_000)
        q = quantize(data, nbits=8, sigma_range=3.0)
        assert q.data.min() <= 10
        assert q.data.max() >= 245

    def test_saturation_clips(self):
        data = np.concatenate([np.zeros(1000), [1e6]])
        q = quantize(data, nbits=8)
        assert q.data[-1] == 255

    def test_low_depth_levels(self, rng):
        data = rng.normal(size=1000)
        q = quantize(data, nbits=2)
        assert set(np.unique(q.data)).issubset({0, 1, 2, 3})

    def test_constant_input(self):
        q = quantize(np.full(100, 3.0))
        recovered = q.dequantize()
        assert np.allclose(recovered, 3.0, atol=q.step)

    def test_rejects_bad_nbits(self):
        with pytest.raises(ValidationError):
            quantize(np.zeros(4), nbits=3)

    def test_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            quantize(np.zeros(4), sigma_range=0.0)


class TestNoiseAndEfficiency:
    def test_quantization_noise_formula(self):
        # Rounding to a uniform grid errs uniformly within half a step,
        # so the rms error is step / sqrt(12).
        data = np.linspace(-3.0, 3.0, 100_001)
        q = quantize(data, nbits=8)
        error = q.dequantize() - data
        assert float(np.sqrt(np.mean(error ** 2))) == pytest.approx(
            q.step / np.sqrt(12), rel=0.02
        )

    def test_measured_noise_matches_formula(self, rng):
        data = rng.normal(size=500_000)
        q = quantize(data, nbits=8)
        error = q.dequantize() - data
        inside = np.abs(data) < 5.0
        assert float(error[inside].std()) == pytest.approx(
            q.step / np.sqrt(12), rel=0.1
        )

    def test_efficiency_monotone_in_depth(self):
        assert (
            snr_efficiency(1)
            < snr_efficiency(2)
            < snr_efficiency(4)
            < snr_efficiency(8)
        )

    def test_8bit_nearly_lossless(self):
        assert snr_efficiency(8) > 0.99

    def test_unknown_depth_rejected(self):
        with pytest.raises(ValidationError):
            snr_efficiency(16)


class TestAiBound:
    def test_recovers_paper_bound_at_4_bytes(self):
        assert ai_bound_with_input_bytes(4.0) == pytest.approx(0.25)

    def test_8bit_input_quadruples_bound(self):
        assert ai_bound_with_input_bytes(1.0) == pytest.approx(
            4 * ai_bound_with_input_bytes(4.0)
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            ai_bound_with_input_bytes(0.0)


class TestEndToEnd:
    def test_detection_survives_8bit_quantization(self, toy_low):
        # Quantise the telescope data to 8 bits, dedisperse the recovered
        # stream, and confirm the pulsar is still found with ~full S/N.
        from repro.astro.dm_trials import DMTrialGrid
        from repro.astro.signal_gen import SyntheticPulsar
        from repro.baselines.cpu_reference import dedisperse_vectorized

        grid = DMTrialGrid(16, step=1.0)
        pulsar = SyntheticPulsar(period_seconds=0.25, dm=9.0, amplitude=1.5)
        data = make_observation(toy_low, [pulsar], max_dm=grid.last, seed=6)
        exact = best_trial(
            dedisperse_vectorized(data, toy_low, grid, 400), grid.values
        )
        recovered = quantize(data, nbits=8).dequantize()
        quantized = best_trial(
            dedisperse_vectorized(recovered, toy_low, grid, 400), grid.values
        )
        assert quantized.dm == exact.dm
        assert quantized.snr == pytest.approx(exact.snr, rel=0.05)
