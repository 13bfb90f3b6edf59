"""Unit tests for repro.sched.shard — survey decomposition."""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.errors import ShardError, ValidationError
from repro.scenarios import setup_by_key
from repro.sched.shard import (
    Shard,
    dm_chunk_for_memory,
    shard_memory_bytes,
    shard_survey,
)


class TestShard:
    def test_shard_id_is_stable_and_sortable(self):
        a = Shard(beam=0, dm_start=0, dm_count=4, batch=0, samples=100)
        b = Shard(beam=0, dm_start=4, dm_count=4, batch=0, samples=100)
        c = Shard(beam=1, dm_start=0, dm_count=4, batch=0, samples=100)
        assert a.shard_id == "b0000/d00000+4/t0000"
        assert sorted([c.shard_id, b.shard_id, a.shard_id]) == [
            a.shard_id, b.shard_id, c.shard_id,
        ]

    def test_subgrid_matches_slice(self, toy_grid):
        shard = Shard(beam=0, dm_start=2, dm_count=3, batch=0, samples=100)
        sub = shard.subgrid(toy_grid)
        assert sub.n_dms == 3
        assert list(sub.values) == list(toy_grid.values[2:5])

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ShardError):
            Shard(beam=-1, dm_start=0, dm_count=1, batch=0, samples=10)
        with pytest.raises(ValidationError):
            Shard(beam=0, dm_start=0, dm_count=0, batch=0, samples=10)


class TestShardSizing:
    def test_memory_bytes_consistent_with_setup(self, toy_low, toy_grid):
        bytes_ = shard_memory_bytes(toy_low, toy_grid, 4, 400)
        expected = toy_low.input_bytes(
            toy_grid.last, samples=400
        ) + toy_low.output_bytes(4, samples=400)
        assert bytes_ == expected

    @pytest.mark.parametrize(
        "setup,grid",
        [
            (apertif(), DMTrialGrid(256, first=100.0, step=0.25)),
            (apertif(), DMTrialGrid(1, first=500.0)),
            (lofar(), DMTrialGrid(64, first=0.01, step=0.01)),
            (setup_by_key("high").setup, setup_by_key("high").grid),
        ],
        ids=["apertif-from-dm100", "apertif-one-trial", "lofar", "high"],
    )
    def test_input_covers_delay_at_highest_trial(self, setup, grid):
        # Regression: the input was sized as if the grid started at DM 0
        # and truncated the delay, so shards were packed too tightly.
        samples = setup.samples_per_batch
        input_part = shard_memory_bytes(
            setup, grid, 1, samples
        ) - setup.output_bytes(1, samples=samples)
        max_delay = int(delay_table(setup, grid.values).max())
        assert input_part == 4 * setup.channels * (samples + max_delay)

    def test_chunk_is_largest_fitting(self, toy_low, toy_grid):
        budget = shard_memory_bytes(
            toy_low, toy_grid, 5, toy_low.samples_per_batch
        )
        chunk = dm_chunk_for_memory(toy_low, toy_grid, budget)
        assert chunk == 5

    def test_whole_grid_when_memory_ample(self, toy_low, toy_grid):
        chunk = dm_chunk_for_memory(toy_low, toy_grid, 10 ** 12)
        assert chunk == toy_grid.n_dms

    def test_raises_when_one_dm_does_not_fit(self, toy_low, toy_grid):
        with pytest.raises(ShardError, match="single-DM"):
            dm_chunk_for_memory(toy_low, toy_grid, 16)


class TestShardSurvey:
    def test_counts_beams_chunks_batches(self, toy_low, toy_grid):
        shards = shard_survey(
            toy_low, toy_grid, n_beams=3, duration_s=2.0, max_dms_per_shard=4
        )
        # 3 beams x 2 DM chunks x 2 one-second batches.
        assert len(shards) == 12
        assert {s.beam for s in shards} == {0, 1, 2}
        assert {s.dm_start for s in shards} == {0, 4}
        assert {s.batch for s in shards} == {0, 1}

    def test_beam_major_order(self, toy_low, toy_grid):
        shards = shard_survey(toy_low, toy_grid, n_beams=2, duration_s=1.0)
        beams = [s.beam for s in shards]
        assert beams == sorted(beams)

    def test_uneven_chunk_remainder(self, toy_low, toy_grid):
        shards = shard_survey(
            toy_low, toy_grid, n_beams=1, duration_s=1.0, max_dms_per_shard=3
        )
        counts = [s.dm_count for s in shards]
        assert counts == [3, 3, 2]
        assert sum(counts) == toy_grid.n_dms

    def test_memory_budget_chunks_dm_axis(self, toy_low, toy_grid):
        budget = shard_memory_bytes(
            toy_low, toy_grid, 2, toy_low.samples_per_batch
        )
        shards = shard_survey(
            toy_low, toy_grid, n_beams=1, duration_s=1.0, memory_bytes=budget
        )
        assert all(s.dm_count <= 2 for s in shards)

    def test_sub_second_duration_still_one_batch(self, toy_low, toy_grid):
        shards = shard_survey(toy_low, toy_grid, n_beams=1, duration_s=0.25)
        assert len(shards) == 1

    @pytest.mark.parametrize(
        "n_beams,duration_s,max_dms",
        [(1, 1.0, None), (3, 2.0, 4), (2, 1.0, 3), (2, 3.0, 5)],
        ids=["whole-grid", "even-chunks", "remainder", "remainder-3-batches"],
    )
    def test_each_batch_covers_every_row_once(
        self, toy_low, toy_grid, n_beams, duration_s, max_dms
    ):
        # The decomposition is lossless only if, within every time
        # batch, each (beam, DM row) belongs to exactly one shard.
        shards = shard_survey(
            toy_low,
            toy_grid,
            n_beams=n_beams,
            duration_s=duration_s,
            max_dms_per_shard=max_dms,
        )
        batches = sorted({s.batch for s in shards})
        assert batches == list(range(int(np.ceil(duration_s))))
        for batch in batches:
            hits = np.zeros((n_beams, toy_grid.n_dms), dtype=int)
            for shard in shards:
                if shard.batch != batch:
                    continue
                stop = shard.dm_start + shard.dm_count
                assert 0 <= shard.beam < n_beams
                assert stop <= toy_grid.n_dms
                hits[shard.beam, shard.dm_start:stop] += 1
            assert (hits == 1).all(), f"batch {batch}: {hits}"
