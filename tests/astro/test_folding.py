"""Unit tests for repro.astro.folding — candidate confirmation."""

import numpy as np
import pytest

from repro.astro.folding import fold_candidate, folded_snr
from repro.errors import ValidationError
from tests.conftest import make_observation


FS = 1000
PERIOD = 0.1


def pulse_series(rng, n=4000, amp=1.0, period=PERIOD, width=4):
    series = rng.normal(size=n)
    step = int(period * FS)
    for start in range(25, n - width, step):
        series[start : start + width] += amp
    return series


def dm_plane(rng, n_dms=8, pulsar_at=4, amp=1.0):
    """A DM-trial plane where the pulse weakens away from its trial."""
    plane = np.stack(
        [
            pulse_series(
                rng, amp=amp * max(0.0, 1.0 - 0.45 * abs(i - pulsar_at))
            )
            for i in range(n_dms)
        ]
    )
    return plane


class TestFoldedSnr:
    def test_pulsar_gives_high_snr(self, rng):
        snr = folded_snr(pulse_series(rng, amp=1.0), FS, PERIOD)
        assert snr > 10

    def test_noise_gives_low_snr(self, rng):
        snr = folded_snr(rng.normal(size=4000), FS, PERIOD)
        assert snr < 6

    def test_wrong_period_loses_signal(self, rng):
        series = pulse_series(rng, amp=1.0)
        right = folded_snr(series, FS, PERIOD)
        wrong = folded_snr(series, FS, PERIOD * 1.37)
        assert right > 2 * wrong


class TestFoldCandidate:
    def test_confirms_true_pulsar(self, rng):
        plane = dm_plane(rng, pulsar_at=4)
        verdict = fold_candidate(
            plane, np.arange(8.0), FS, PERIOD, dm_index=4
        )
        assert verdict.confirmed
        assert verdict.snr_at_candidate > 6
        assert "CONFIRMED" in str(verdict)

    def test_rejects_noise_candidate(self, rng):
        plane = rng.normal(size=(8, 4000))
        verdict = fold_candidate(
            plane, np.arange(8.0), FS, PERIOD, dm_index=3
        )
        assert not verdict.confirmed
        assert "S/N" in verdict.reason

    def test_rejects_candidate_at_wrong_dm(self, rng):
        # A bright pulsar at trial 6, candidate claimed at trial 0: the
        # fold peaks elsewhere, so the claim is rejected.
        plane = dm_plane(rng, pulsar_at=6, amp=2.0)
        plane[0] += 0.3 * pulse_series(rng, amp=1.0)  # make trial 0 clear min_snr
        verdict = fold_candidate(
            plane, np.arange(8.0), FS, PERIOD, dm_index=0, min_snr=3.0
        )
        assert not verdict.confirmed
        assert "peaks at trial" in verdict.reason

    def test_per_trial_curve_peaks_at_pulsar(self, rng):
        plane = dm_plane(rng, pulsar_at=4)
        verdict = fold_candidate(
            plane, np.arange(8.0), FS, PERIOD, dm_index=4
        )
        assert int(np.argmax(verdict.snr_per_trial)) in (3, 4, 5)

    def test_rejects_bad_index(self, rng):
        with pytest.raises(ValidationError):
            fold_candidate(
                rng.normal(size=(4, 1000)), np.arange(4.0), FS, PERIOD, 9
            )

    def test_end_to_end_confirm_survey_candidate(self, toy_low):
        # Fourier search finds it; the fold confirms it.
        from repro.astro.dm_trials import DMTrialGrid
        from repro.astro.periodicity import search_periodicity
        from repro.astro.signal_gen import SyntheticPulsar
        from repro.baselines.cpu_reference import dedisperse_vectorized

        grid = DMTrialGrid(16, step=1.0)
        data = make_observation(
            toy_low,
            [SyntheticPulsar(0.1, dm=7.0, amplitude=0.8)],
            seconds=4.0,
            max_dm=grid.last,
            seed=14,
        )
        plane = dedisperse_vectorized(data, toy_low, grid, 1600)
        candidates = search_periodicity(
            plane, grid.values, toy_low.samples_per_second
        )
        assert candidates
        best = candidates[0]
        verdict = fold_candidate(
            plane,
            grid.values,
            toy_low.samples_per_second,
            best.period_seconds,
            best.dm_index,
        )
        assert verdict.confirmed
        assert abs(verdict.dm - 7.0) <= 1.0
