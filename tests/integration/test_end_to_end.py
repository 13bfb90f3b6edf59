"""End-to-end integration: telescope -> stream -> tuned kernel -> detection."""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.snr import detect_dm, folded_profile
from repro.astro.telescope import Telescope
from repro.core.plan import DedispersionPlan
from repro.hardware.catalog import gtx_titan, hd7970
from repro.run import ExecutionRequest, execute
from tests.conftest import run_plan


@pytest.fixture(scope="module")
def survey_setup() -> ObservationSetup:
    """A LOFAR-like laptop-scale survey band."""
    return ObservationSetup(
        name="survey",
        channels=32,
        lowest_frequency=138.0,
        channel_bandwidth=0.2,
        samples_per_second=1000,
        samples_per_batch=1000,
    )


class TestSurveyPipeline:
    def test_blind_search_recovers_pulsar(self, survey_setup):
        """A blind DM search over a streamed observation finds the pulsar
        at the right trial DM, in every chunk, in (simulated) real time."""
        grid = DMTrialGrid(n_dms=16, step=1.0)
        true_dm = 7.0
        telescope = Telescope(setup=survey_setup, noise_sigma=1.0, seed=11)
        beam = telescope.add_beam(
            pulsars=(
                SyntheticPulsar(
                    period_seconds=0.25, dm=true_dm, amplitude=1.0
                ),
            )
        )
        plan = DedispersionPlan.create(
            survey_setup, grid, hd7970(), samples=1000
        )
        results = execute(
            ExecutionRequest(plan=plan, chunks=telescope.stream(beam, 3, grid))
        ).chunk_results
        assert len(results) == 3
        for result in results:
            detection = detect_dm(result.output, grid.values)
            assert abs(detection.dm - true_dm) <= grid.step
            assert detection.snr > 4.0
            assert result.realtime

    def test_folding_raises_snr(self, survey_setup):
        """Folding the dedispersed series at the pulsar period concentrates
        the signal into a few phase bins."""
        grid = DMTrialGrid(n_dms=8, step=1.0)
        period = 0.2
        telescope = Telescope(setup=survey_setup, noise_sigma=1.0, seed=5)
        beam = telescope.add_beam(
            pulsars=(
                SyntheticPulsar(period_seconds=period, dm=4.0, amplitude=0.8),
            )
        )
        plan = DedispersionPlan.create(
            survey_setup, grid, gtx_titan(), samples=1000
        )
        chunk = next(iter(telescope.stream(beam, 1, grid)))
        output = run_plan(plan, chunk.data)
        trial = grid.index_of(4.0)
        profile = folded_profile(
            output[trial], survey_setup.samples_per_second, period, n_bins=20
        )
        spread = profile.max() - np.median(profile)
        noise = np.std(profile[profile < np.percentile(profile, 80)])
        assert spread > 4 * max(noise, 1e-9)

    def test_wrong_dm_trials_smeared(self, survey_setup):
        """Trials far from the true DM recover visibly less S/N — the
        physical reason the search space cannot be pruned (Sec. II)."""
        grid = DMTrialGrid(n_dms=16, step=1.0)
        telescope = Telescope(setup=survey_setup, noise_sigma=0.5, seed=2)
        beam = telescope.add_beam(
            pulsars=(
                SyntheticPulsar(period_seconds=0.25, dm=7.0, amplitude=1.0),
            )
        )
        plan = DedispersionPlan.create(
            survey_setup, grid, hd7970(), samples=1000
        )
        chunk = next(iter(telescope.stream(beam, 1, grid)))
        detection = detect_dm(run_plan(plan, chunk.data), grid.values)
        per_trial = detection.snr_per_trial
        best = per_trial[detection.dm_index]
        far = max(per_trial[0], per_trial[-1])
        assert best > 2 * far

    def test_two_beam_survey_independent_detections(self, survey_setup):
        """Two beams hosting different pulsars are detected independently."""
        grid = DMTrialGrid(n_dms=16, step=1.0)
        telescope = Telescope(setup=survey_setup, noise_sigma=0.8, seed=21)
        beam_a = telescope.add_beam(
            pulsars=(SyntheticPulsar(period_seconds=0.2, dm=3.0),)
        )
        beam_b = telescope.add_beam(
            pulsars=(SyntheticPulsar(period_seconds=0.3, dm=9.0),)
        )
        plan = DedispersionPlan.create(
            survey_setup, grid, hd7970(), samples=1000
        )
        for beam, expected_dm in ((beam_a, 3.0), (beam_b, 9.0)):
            chunks = telescope.stream(beam, 1, grid)
            output = execute(ExecutionRequest(plan=plan, chunks=chunks)).output
            detection = detect_dm(output, grid.values)
            assert abs(detection.dm - expected_dm) <= grid.step
