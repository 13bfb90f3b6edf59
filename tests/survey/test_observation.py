"""Unit tests for repro.survey.observation — beam-correlated realization."""

import numpy as np
import pytest

from repro.scenarios.catalog import _SIGNAL_KINDS
from repro.survey import SurveyPlan, realize_survey


def signal_kinds(beam_obs):
    return [
        c.kind
        for c in beam_obs.signal_truth.components
        if c.kind in _SIGNAL_KINDS
    ]


def rfi_components(beam_obs):
    return [
        c
        for c in beam_obs.signal_truth.components
        if c.kind.startswith("rfi_")
    ]


@pytest.fixture(scope="module")
def storm():
    return realize_survey(SurveyPlan(scenario="rfi_storm", n_beams=4))


class TestScenarioRealization:
    def test_one_observation_per_beam(self, storm):
        assert storm.n_beams == 4
        assert [b.beam for b in storm.beams] == [0, 1, 2, 3]
        chunk_counts = {len(b.chunks) for b in storm.beams}
        assert len(chunk_counts) == 1

    def test_signal_lands_only_in_the_neighbourhood(self, storm):
        neighbourhood = SurveyPlan(
            scenario="rfi_storm", n_beams=4
        ).signal_beams()
        for beam_obs in storm.beams:
            if beam_obs.beam in neighbourhood:
                assert signal_kinds(beam_obs)
            else:
                assert not signal_kinds(beam_obs)

    def test_rfi_is_identical_in_every_beam(self, storm):
        # Sidelobe pickup: same derived seed, same draws — every beam's
        # RFI components (event times, channels, amplitudes) agree.
        reference = rfi_components(storm.beams[0])
        assert reference
        for beam_obs in storm.beams[1:]:
            assert rfi_components(beam_obs) == reference

    def test_noise_is_independent_per_beam(self):
        observation = realize_survey(
            SurveyPlan(scenario="rfi_storm", n_beams=5)
        )
        off_signal = [
            b for b in observation.beams if not signal_kinds(b)
        ]
        assert len(off_signal) == 2  # beams 0 and 4 flank the neighbourhood
        a, b = off_signal
        assert not np.array_equal(a.chunks[0].data, b.chunks[0].data)

    def test_adjacent_beams_carry_attenuated_signal(self):
        observation = realize_survey(
            SurveyPlan(
                scenario="giant_pulse_train",
                n_beams=8,
                adjacent_attenuation=0.5,
            )
        )
        amplitude = {}
        for beam_obs in observation.beams:
            for c in beam_obs.signal_truth.components:
                if c.kind in _SIGNAL_KINDS and c.amplitude is not None:
                    amplitude.setdefault(beam_obs.beam, c.amplitude)
        assert amplitude[3] == pytest.approx(0.5 * amplitude[4])
        assert amplitude[5] == pytest.approx(0.5 * amplitude[4])

    def test_realization_is_deterministic(self):
        plan = SurveyPlan(scenario="rfi_storm", n_beams=2)
        a = realize_survey(plan)
        b = realize_survey(plan)
        for beam_a, beam_b in zip(a.beams, b.beams):
            assert len(beam_a.chunks) == len(beam_b.chunks)
            for ca, cb in zip(beam_a.chunks, beam_b.chunks):
                np.testing.assert_array_equal(ca.data, cb.data)

    def test_per_beam_defenses_are_off(self, storm):
        assert storm.search_config.rfi_mitigation is False
        assert storm.search_config.sift_policy.zero_dm_veto is False

    def test_candidates_carry_their_beam(self, storm):
        for beam_obs in storm.beams:
            for chunk in beam_obs.chunks:
                assert chunk.beam_index == beam_obs.beam
