"""Catalogue integrity, deterministic realization, chunk faults."""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.errors import ValidationError
from repro.scenarios.catalog import (
    Scenario,
    _apply_chunk_faults,
    scenario_by_name,
    scenario_catalog,
)
from repro.sched.faults import FaultProfile
from repro.utils.rng import RandomStreams

SETUP = ObservationSetup(
    name="catalog-test",
    channels=8,
    lowest_frequency=140.0,
    channel_bandwidth=0.2,
    samples_per_second=200,
    samples_per_batch=200,
)
GRID = DMTrialGrid(n_dms=8, first=1.0, step=1.0)


class TestCatalogue:
    def test_has_the_documented_envelope(self):
        names = {s.name for s in scenario_catalog()}
        assert names >= {
            "clean_pulse",
            "rfi_storm",
            "scintillating_pulsar",
            "nulling_pulsar",
            "giant_pulse_train",
            "dm_smeared_wideband",
            "dropped_chunks",
            "noise_floor",
            "hostile_tuning",
        }
        assert len(names) >= 8

    def test_names_are_unique(self):
        names = [s.name for s in scenario_catalog()]
        assert len(names) == len(set(names))

    def test_by_name(self):
        assert scenario_by_name("clean_pulse").name == "clean_pulse"
        with pytest.raises(ValidationError) as err:
            scenario_by_name("nope")
        assert "clean_pulse" in str(err.value)

    def test_empty_scenarios_expect_no_candidates(self):
        for scenario in scenario_catalog():
            if scenario.expect_empty:
                realized = scenario.realize(SETUP, GRID)
                assert realized.truth.expected == ()
                assert not realized.truth.truth_bearing

    def test_truth_bearing_scenarios_have_expected_on_grid(self):
        for scenario in scenario_catalog():
            if scenario.expect_empty:
                continue
            realized = scenario.realize(SETUP, GRID)
            assert realized.truth.expected, scenario.name
            for expected in realized.truth.expected:
                assert 0 <= expected.trial < GRID.n_dms


class TestRealization:
    def test_byte_deterministic(self):
        scenario = scenario_by_name("rfi_storm")
        a = scenario.realize(SETUP, GRID)
        b = scenario.realize(SETUP, GRID)
        assert len(a.chunks) == len(b.chunks)
        for ca, cb in zip(a.chunks, b.chunks):
            assert ca.sequence == cb.sequence
            assert np.array_equal(ca.data, cb.data)
        assert a.truth == b.truth

    def test_seed_override_changes_bytes(self):
        scenario = scenario_by_name("clean_pulse")
        a = scenario.realize(SETUP, GRID)
        b = scenario.realize(SETUP, GRID, seed=99)
        assert b.seed == 99
        assert not np.array_equal(a.chunks[0].data, b.chunks[0].data)

    def test_setup_name_feeds_the_seed(self):
        import dataclasses

        scenario = scenario_by_name("clean_pulse")
        other = dataclasses.replace(SETUP, name="catalog-test-b")
        a = scenario.realize(SETUP, GRID)
        b = scenario.realize(other, GRID)
        assert not np.array_equal(a.chunks[0].data, b.chunks[0].data)

    def test_chunks_carry_overlap(self):
        realized = scenario_by_name("clean_pulse").realize(SETUP, GRID)
        chunk = realized.chunks[0]
        assert chunk.data.shape[1] == chunk.samples + chunk.overlap

    def test_search_config_applies_scenario_knobs(self):
        hostile = scenario_by_name("hostile_tuning")
        config = hostile.search_config(SETUP, GRID)
        assert config.queue_capacity == 1
        assert config.min_service_seconds == pytest.approx(2.5)
        policy = config.sift_policy
        assert policy.dm_radius == pytest.approx(GRID.last - GRID.first)
        assert policy.broadband_veto_fraction == 1.0

    def test_faulted_scenario_drops_and_duplicates(self):
        realized = scenario_by_name("dropped_chunks").realize(SETUP, GRID)
        truth = realized.truth
        assert len(truth.missing_sequences) == 1
        assert len(truth.duplicate_sequences) == 1
        sequences = [c.sequence for c in realized.chunks]
        assert truth.missing_sequences[0] not in sequences
        dup = truth.duplicate_sequences[0]
        assert sequences.count(dup) == 2


class TestChunkFaults:
    def _chunks(self, n):
        from repro.astro.source import StreamChunk

        return tuple(
            StreamChunk(
                beam_index=0,
                sequence=i,
                data=np.zeros((2, 4), dtype=np.float32),
                samples=4,
                overlap=0,
            )
            for i in range(n)
        )

    def test_benign_profile_is_identity(self):
        chunks = self._chunks(4)
        out, missing, dup = _apply_chunk_faults(
            chunks, FaultProfile.none(), RandomStreams(0)
        )
        assert out == chunks and missing == () and dup == ()

    def test_sequence_zero_is_never_touched(self):
        chunks = self._chunks(5)
        for seed in range(20):
            out, missing, dup = _apply_chunk_faults(
                chunks,
                FaultProfile(crashes=2, stragglers=2),
                RandomStreams(seed),
            )
            assert 0 not in missing and 0 not in dup
            assert out[0].sequence == 0

    def test_duplicate_follows_original(self):
        chunks = self._chunks(6)
        out, _missing, dup = _apply_chunk_faults(
            chunks, FaultProfile(stragglers=1), RandomStreams(3)
        )
        assert len(dup) == 1
        sequences = [c.sequence for c in out]
        first = sequences.index(dup[0])
        assert sequences[first + 1] == dup[0]

    def test_dropped_never_duplicated(self):
        for seed in range(20):
            _out, missing, dup = _apply_chunk_faults(
                self._chunks(5),
                FaultProfile(crashes=2, stragglers=2),
                RandomStreams(seed),
            )
            assert not set(missing) & set(dup)


class TestScenarioValidation:
    def test_needs_name_and_chunks(self):
        with pytest.raises(ValidationError):
            Scenario(name="", description="d", build=lambda s, g, r: None)
        with pytest.raises(ValidationError):
            Scenario(
                name="x", description="d",
                build=lambda s, g, r: None, n_chunks=0,
            )
