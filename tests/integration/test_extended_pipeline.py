"""Integration tests for the extension chain.

These exercise the extensions *together*, the way a production pipeline
would: filterbank ingest -> (optionally subband) dedispersion -> candidate
sifting -> fold confirmation, plus the planning layers (DDplan + fleet)
agreeing with each other.
"""

import pytest

from repro.astro.candidates import search_and_sift
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.filterbank import read_filterbank, write_filterbank
from repro.astro.folding import fold_candidate
from repro.astro.observation import ObservationSetup
from repro.astro.periodicity import search_periodicity
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
    def test_full_chain(self, setup, grid, tmp_path):
        """.fil on disk -> dedisperse -> Fourier search -> fold confirm."""
        pulsar = SyntheticPulsar(0.1, dm=7.0, amplitude=0.9)
        data = make_observation(
            setup, [pulsar], seconds=4.0, max_dm=grid.last, seed=3
        )
        path = tmp_path / "obs.fil"
        write_filterbank(path, data, setup)

        header, loaded = read_filterbank(path)
        rebuilt = header.to_setup()
        plane = dedisperse_vectorized(loaded, rebuilt, grid, 4000)

        candidates = search_periodicity(
            plane, grid.values, rebuilt.samples_per_second
        )
        assert candidates, "Fourier search found nothing"
        best = candidates[0]
        verdict = fold_candidate(
            plane,
            grid.values,
            rebuilt.samples_per_second,
            best.period_seconds,
            best.dm_index,
        )
        assert verdict.confirmed
        assert abs(verdict.dm - 7.0) <= 1.0

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
    def test_ddplan_grids_feed_fleet_planner(self, setup):
        """Each DDplan stage produces a grid the fleet planner can size."""
        from repro.astro.ddplan import build_ddplan
        from repro.hardware.catalog import hd7970
        from repro.pipeline.fleet import FleetDevice, plan_fleet
        from repro.astro.observation import apertif

        survey_setup = apertif()
        ddplan = build_ddplan(survey_setup, max_dm=100.0)
        # Size a 100-beam deployment for the busiest (most trials) stage.
        busiest = max(ddplan.stages, key=lambda s: s.n_dms)
        # The planner needs a power-of-two-friendly count; round up.
        from repro.utils.intmath import next_power_of_two

        n = next_power_of_two(busiest.n_dms)
        grid = DMTrialGrid(n, first=busiest.dm_low, step=busiest.dm_step)
        plan = plan_fleet(
            [FleetDevice(hd7970(), available=1000)], survey_setup, grid, 100
        )
        assert plan.beams_covered >= 100
        assert plan.total_units >= 1
