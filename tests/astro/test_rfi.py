"""Unit tests for repro.astro.rfi.

The injection tests pin explicit sample positions and channels, which
the seeded RFI sources draw for themselves, so they call the injection
bodies those sources wrap.
"""

import numpy as np
import pytest

from repro.astro.rfi import (
    _inject_broadband_rfi,
    _inject_narrowband_rfi,
    mask_noisy_channels,
    zero_dm_filter,
)
from repro.errors import ValidationError
from tests.conftest import best_trial, make_observation


@pytest.fixture
def noise(rng):
    return rng.normal(size=(16, 1000)).astype(np.float32)


class TestInjection:
    def test_broadband_hits_all_channels(self, noise):
        before = noise[:, 500].copy()
        _inject_broadband_rfi(noise, [500], amplitude=10.0, width=1)
        assert np.all(noise[:, 500] - before == pytest.approx(10.0))

    def test_broadband_width(self, noise):
        _inject_broadband_rfi(noise, [100], amplitude=10.0, width=5)
        assert noise[0, 100:105].mean() > 5
        assert noise[0, 106] < 5

    def test_broadband_bounds_checked(self, noise):
        with pytest.raises(ValidationError):
            _inject_broadband_rfi(noise, [5000])

    def test_narrowband_raises_one_channel(self, noise):
        _inject_narrowband_rfi(noise, [3], amplitude=5.0)
        variances = noise.var(axis=1)
        assert np.argmax(variances) == 3

    def test_narrowband_bounds_checked(self, noise):
        with pytest.raises(ValidationError):
            _inject_narrowband_rfi(noise, [99])


class TestChannelMask:
    def test_masks_contaminated_channel(self, noise):
        _inject_narrowband_rfi(noise, [7], amplitude=8.0)
        mask = mask_noisy_channels(noise)
        assert not mask.mask[7]
        assert int(np.sum(~mask.mask)) == 1
        assert np.all(noise[7] == 0.0)

    def test_clean_data_untouched(self, noise):
        mask = mask_noisy_channels(noise, sigma_threshold=8.0)
        assert mask.mask.all()

    def test_multiple_channels(self, noise):
        _inject_narrowband_rfi(noise, [2, 9], amplitude=8.0)
        mask = mask_noisy_channels(noise)
        assert not mask.mask[2] and not mask.mask[9]

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            mask_noisy_channels(np.zeros(16))


class TestZeroDMFilter:
    def test_kills_broadband_rfi(self, noise):
        _inject_broadband_rfi(noise, [300], amplitude=20.0, width=2)
        zero_dm_filter(noise)
        # The undispersed spike is annihilated to the noise level.
        assert abs(float(noise[:, 300].mean())) < 1e-4

    def test_band_mean_zero_afterwards(self, noise):
        zero_dm_filter(noise)
        assert np.allclose(noise.mean(axis=0), 0.0, atol=1e-4)

    def test_dispersed_pulse_mostly_survives(self, toy_low):
        # A dispersed pulse occupies few channels per sample, so the filter
        # keeps most of its energy — while an *undispersed* pulse of the
        # same shape is annihilated.
        from repro.astro.signal_gen import SyntheticPulsar

        def filtered_energy(dm: float) -> tuple[float, float]:
            pulsar = SyntheticPulsar(
                period_seconds=0.5, dm=dm, amplitude=2.0
            )
            data = make_observation(toy_low, [pulsar], max_dm=8.0, sigma=0.0)
            before = float((data ** 2).sum())
            zero_dm_filter(data)
            return float((data ** 2).sum()), before

        dispersed_after, dispersed_before = filtered_energy(8.0)
        flat_after, flat_before = filtered_energy(0.0)
        assert dispersed_after > 0.5 * dispersed_before
        assert flat_after < 0.05 * flat_before

    def test_detection_robust_to_rfi_with_filter(self, toy_low):
        # The survey-grade workflow: RFI in, filter, dedisperse, detect the
        # true pulsar rather than the DM-0 interference.
        from repro.astro.dm_trials import DMTrialGrid
        from repro.astro.signal_gen import SyntheticPulsar
        from repro.baselines.cpu_reference import dedisperse_vectorized

        grid = DMTrialGrid(16, step=1.0)
        pulsar = SyntheticPulsar(period_seconds=0.25, dm=9.0, amplitude=1.5)
        data = make_observation(toy_low, [pulsar], max_dm=grid.last)
        _inject_broadband_rfi(
            data, [50, 180, 310], amplitude=8.0, width=3
        )
        # Without mitigation the brightest candidate sits at DM ~0.
        raw = dedisperse_vectorized(data.copy(), toy_low, grid, 400)
        contaminated = best_trial(raw, grid.values)
        assert contaminated.dm <= 1.0

        # After the filter, search above DM 0 (the DM-0 series of filtered
        # data is identically null — see zero_dm_filter's docstring).
        zero_dm_filter(data)
        search_grid = DMTrialGrid(15, first=1.0, step=1.0)
        clean = dedisperse_vectorized(data, toy_low, search_grid, 400)
        detection = best_trial(clean, search_grid.values)
        assert abs(detection.dm - 9.0) <= 1.0
