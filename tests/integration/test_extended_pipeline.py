"""Integration tests for the extension chain.

These exercise the extensions *together*, the way a production pipeline
would: (optionally subband) dedispersion -> candidate sifting, plus the
planning layers (DDplan + fleet) agreeing with each other.
"""

import pytest

from repro.astro.candidates import search_and_sift
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.astro.pulse import gaussian_profile
from repro.astro.signal_gen import SyntheticPulsar
from repro.baselines.cpu_reference import dedisperse_vectorized
from repro.core.subband import dedisperse_subband
from tests.conftest import make_observation


@pytest.fixture(scope="module")
def setup():
    return ObservationSetup(
        name="ext-pipeline",
        channels=32,
        lowest_frequency=138.0,
        channel_bandwidth=0.2,
        samples_per_second=1000,
        samples_per_batch=1000,
    )


@pytest.fixture(scope="module")
def grid():
    return DMTrialGrid(16, step=1.0)


class TestFileToConfirmation:
    def test_single_pulse_chain_through_subband(self, setup, grid):
        """Two-step dedispersion feeds the single-pulse sifter equally."""
        burst = SyntheticPulsar(
            2.0, dm=9.0, amplitude=2.0,
            profile=gaussian_profile(width=0.004, centre=0.25),
        )
        data = make_observation(setup, [burst], max_dm=grid.last, seed=8)
        brute = dedisperse_vectorized(data, setup, grid, 1000)
        two_step, plan = dedisperse_subband(
            data, setup, grid, n_subbands=8, coarse_factor=2, samples=1000
        )
        for plane, label in ((brute, "brute"), (two_step, "subband")):
            sifted = search_and_sift(plane, grid.values, snr_threshold=6.0)
            assert sifted, f"{label}: no candidates"
            assert abs(sifted[0].best.dm - 9.0) <= 1.0, label
        # The two-step path saves FLOPs even at this toy scale (the real
        # win — 10x+ — needs paper-scale channel counts; see
        # ablation-subband).
        assert plan.flop_reduction() > 1.2


class TestPlanningLayersAgree:
    def test_ddplan_grids_feed_sizing(self, setup):
        """Each DDplan stage produces a grid the Sec. V-D sizing can size."""
        from repro.astro.ddplan import build_ddplan
        from repro.hardware.catalog import hd7970
        from repro.pipeline.realtime import accelerators_needed
        from repro.astro.observation import apertif

        survey_setup = apertif()
        ddplan = build_ddplan(survey_setup, max_dm=100.0)
        # Size a 100-beam deployment for the busiest (most trials) stage.
        busiest = max(ddplan.stages, key=lambda s: s.n_dms)
        # The tuner needs a power-of-two-friendly count; round up.
        from repro.utils.intmath import next_power_of_two

        n = next_power_of_two(busiest.n_dms)
        grid = DMTrialGrid(n, first=busiest.dm_low, step=busiest.dm_step)
        plan = accelerators_needed(hd7970(), survey_setup, grid, 100)
        assert plan.devices_needed * plan.beams_per_device >= 100
        assert plan.devices_needed >= 1
