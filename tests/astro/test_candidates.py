"""Unit tests for repro.astro.candidates — candidates and sifting.

The raw candidates come from the pipeline's detector, with the bank of
:meth:`MatchedFilterDetector.for_samples`.
"""

import numpy as np
import pytest

from repro.astro.candidates import Candidate, sift
from repro.errors import ValidationError
from repro.search import MatchedFilterDetector
from tests.conftest import make_observation


def make_plane(rng, n_dms=16, n=2000):
    return rng.normal(size=(n_dms, n))


def detect(plane, dms, snr_threshold=6.0):
    """Each trial's best super-threshold detection."""
    detector = MatchedFilterDetector.for_samples(
        np.shape(plane)[-1], snr_threshold
    )
    return detector.detect(plane, dms)


def detect_and_sift(plane, dms, snr_threshold=6.0, **sift_args):
    """Detect, then cluster the detections into events."""
    return sift(detect(plane, dms, snr_threshold), **sift_args)


def add_bowtie(plane, dm_index, at, amp=6.0, width=4, spread=3):
    """A pulse detected at dm_index, weaker in neighbouring trials."""
    for d in range(-spread, spread + 1):
        i = dm_index + d
        if 0 <= i < plane.shape[0]:
            strength = amp * (1.0 - 0.25 * abs(d))
            plane[i, at : at + width] += strength
    return plane


class TestCandidateGeometry:
    def test_time_overlap(self):
        a = Candidate(0, 0.0, 8.0, 100, 8)
        b = Candidate(1, 0.5, 7.0, 104, 8)
        c = Candidate(2, 1.0, 6.0, 300, 8)
        assert a.overlaps_in_time(b)
        assert not a.overlaps_in_time(c)

    def test_slack_extends_overlap(self):
        a = Candidate(0, 0.0, 8.0, 100, 4)
        b = Candidate(1, 0.5, 7.0, 110, 4)
        assert not a.overlaps_in_time(b)
        assert a.overlaps_in_time(b, slack=8)


class TestFindCandidates:
    def test_finds_bright_trials(self, rng):
        plane = add_bowtie(make_plane(rng), dm_index=8, at=500)
        dms = np.arange(16) * 0.5
        found = detect(plane, dms, snr_threshold=6.0)
        indices = {c.dm_index for c in found}
        assert 8 in indices
        assert len(found) >= 3  # the bow tie spans several trials

    def test_empty_for_noise(self, rng):
        found = detect(
            make_plane(rng), np.arange(16) * 0.5, snr_threshold=12.0
        )
        assert found == []

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValidationError):
            detect(np.zeros(10), np.arange(1.0))
        with pytest.raises(ValidationError):
            detect(np.zeros((2, 10)), np.arange(3.0))


class TestSift:
    def test_one_event_one_cluster(self, rng):
        plane = add_bowtie(make_plane(rng), dm_index=8, at=500)
        dms = np.arange(16) * 0.5
        sifted = detect_and_sift(plane, dms, snr_threshold=6.0)
        assert len(sifted) == 1
        cluster = sifted[0]
        assert cluster.best.dm_index == 8
        assert cluster.n_members >= 3
        assert cluster.dm_extent > 0

    def test_two_events_two_clusters(self, rng):
        plane = make_plane(rng)
        add_bowtie(plane, dm_index=3, at=300, spread=1)
        add_bowtie(plane, dm_index=12, at=1500, spread=1)
        dms = np.arange(16) * 0.5
        sifted = detect_and_sift(plane, dms, snr_threshold=6.0)
        assert len(sifted) == 2
        best_indices = sorted(c.best.dm_index for c in sifted)
        assert best_indices == [3, 12]

    def test_same_dm_different_times_not_merged(self, rng):
        plane = make_plane(rng)
        add_bowtie(plane, dm_index=8, at=200, spread=0)
        add_bowtie(plane, dm_index=8, at=1600, spread=0)
        dms = np.arange(16) * 0.5
        # Each trial yields one candidate (the brighter peak), so inject
        # at distinct trials to surface both times.
        add_bowtie(plane, dm_index=9, at=1600, spread=0)
        sifted = detect_and_sift(plane, dms, snr_threshold=6.0, dm_radius=0.4)
        times = sorted(c.best.time_sample for c in sifted)
        assert len(sifted) >= 2
        assert times[-1] - times[0] > 1000

    def test_clusters_sorted_by_snr(self, rng):
        plane = make_plane(rng)
        add_bowtie(plane, dm_index=3, at=300, amp=5.0, spread=1)
        add_bowtie(plane, dm_index=12, at=1500, amp=9.0, spread=1)
        sifted = detect_and_sift(plane, np.arange(16) * 0.5, snr_threshold=4.5)
        snrs = [c.best.snr for c in sifted]
        assert snrs == sorted(snrs, reverse=True)

    def test_dm_radius_controls_merging(self, rng):
        plane = make_plane(rng)
        add_bowtie(plane, dm_index=6, at=500, spread=0)
        add_bowtie(plane, dm_index=9, at=500, spread=0)
        dms = np.arange(16) * 0.5  # events 1.5 DM units apart
        wide = detect_and_sift(plane, dms, snr_threshold=6.0, dm_radius=2.0)
        narrow = detect_and_sift(plane, dms, snr_threshold=6.0, dm_radius=0.5)
        assert len(narrow) >= len(wide)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValidationError):
            sift([], dm_radius=-1.0)

    def test_end_to_end_with_real_dedispersion(self, toy_low, rng):
        from repro.astro.dm_trials import DMTrialGrid
        from repro.astro.pulse import gaussian_profile
        from repro.astro.signal_gen import SyntheticPulsar
        from repro.baselines.cpu_reference import dedisperse_vectorized

        grid = DMTrialGrid(16, step=1.0)
        # A single burst in mid-batch: period longer than the data, pulse
        # centred at phase 0.25 => t = 0.5 s = sample 200.
        burst = SyntheticPulsar(
            2.0,
            dm=7.0,
            amplitude=2.0,
            profile=gaussian_profile(width=0.004, centre=0.25),
        )
        data = make_observation(toy_low, [burst], max_dm=grid.last)
        plane = dedisperse_vectorized(data, toy_low, grid, 400)
        sifted = detect_and_sift(plane, grid.values, snr_threshold=6.0)
        assert sifted
        assert abs(sifted[0].best.dm - 7.0) <= 2.0
