"""Unit tests for repro.astro.snr."""

import numpy as np
import pytest

from repro.astro.snr import best_boxcar_snr, boxcar_snr
from repro.errors import ValidationError
from repro.search import MatchedFilterDetector
from tests.conftest import best_trial


def pulse_series(rng, n=2000, at=700, width=8, amplitude=4.0):
    series = rng.normal(size=n)
    series[at : at + width] += amplitude
    return series


class TestBoxcarSnr:
    def test_white_noise_has_unit_scale(self, rng):
        noise = rng.normal(size=50_000)
        for width in (1, 4, 16):
            snr = boxcar_snr(noise, width)
            assert float(np.std(snr)) == pytest.approx(1.0, rel=0.1)

    def test_pulse_detected_at_right_offset(self, rng):
        series = pulse_series(rng)
        snr = boxcar_snr(series, 8)
        assert abs(int(np.argmax(snr)) - 700) <= 4

    def test_matched_width_maximises(self, rng):
        series = pulse_series(rng, width=16)
        snr_matched = boxcar_snr(series, 16).max()
        snr_narrow = boxcar_snr(series, 1).max()
        assert snr_matched > snr_narrow

    def test_output_length(self):
        snr = boxcar_snr(np.zeros(100) + np.arange(100) % 2, 10)
        assert snr.shape == (91,)

    def test_rejects_bad_width(self, rng):
        series = rng.normal(size=100)
        with pytest.raises(ValidationError):
            boxcar_snr(series, 0)
        with pytest.raises(ValidationError):
            boxcar_snr(series, 101)

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            boxcar_snr(np.zeros((2, 10)), 2)


class TestBestBoxcar:
    def test_finds_pulse(self, rng):
        series = pulse_series(rng, width=8, amplitude=5.0)
        snr, width, offset = best_boxcar_snr(series)
        assert snr > 10
        assert 2 <= width <= 32
        assert abs(offset - 700) <= width

    def test_width_capped(self, rng):
        _, width, _ = best_boxcar_snr(rng.normal(size=256), max_width=4)
        assert width <= 4


class TestDetectDM:
    """Picking the DM trial, with the pipeline's detector."""

    def test_picks_strongest_trial(self, rng):
        dedispersed = rng.normal(size=(8, 1000))
        dedispersed[3, 400:408] += 6.0
        dms = np.arange(8) * 0.5
        detection = best_trial(dedispersed, dms)
        assert detection.dm_index == 3
        assert detection.dm == pytest.approx(1.5)
        assert detection.snr_per_trial.shape == (8,)
        assert detection.snr == detection.snr_per_trial.max()
        # Every trial's S/N is the scalar filter's, bit for bit.
        assert detection.snr_per_trial.tolist() == [
            best_boxcar_snr(row)[0] for row in dedispersed
        ]

    def test_rejects_mismatched_dms(self, rng):
        with pytest.raises(ValidationError):
            MatchedFilterDetector().detect(
                rng.normal(size=(4, 100)), np.arange(5)
            )

    def test_rejects_1d(self, rng):
        with pytest.raises(ValidationError):
            MatchedFilterDetector().detect(rng.normal(size=100), np.arange(1))
