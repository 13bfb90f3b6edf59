"""Unit tests for repro.sched.shard — survey decomposition."""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.config import KernelConfiguration
from repro.errors import ShardError, ValidationError
from repro.opencl_sim.batch import build_batched_kernel
from repro.run import ExecutionRequest, execute
from repro.scenarios import setup_by_key
from repro.sched.shard import (
    Shard,
    dm_chunk_for_memory,
    shard_memory_bytes,
    shard_survey,
)


def run_sharded(config, batch, table, shards, **kwargs):
    """Run one time batch shard by shard through the facade."""
    request = ExecutionRequest(
        data=batch, config=config, delay_table=table, shards=shards, **kwargs
    )
    return execute(request).output


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


class TestShardedExecutionIsLossless:
    """The decomposition claim: shard outputs stitch to the batched output."""

    def test_bit_identical_to_batched_kernel(self, toy_low, toy_grid, rng):
        table = delay_table(toy_low, toy_grid.values)
        t = toy_low.samples_per_batch + int(table.max())
        batch = rng.normal(size=(3, toy_low.channels, t)).astype(np.float32)
        config = KernelConfiguration(
            work_items_time=4, work_items_dm=2, elements_time=2, elements_dm=1
        )
        reference = build_batched_kernel(
            config, toy_low.channels, toy_low.samples_per_batch, 3
        ).execute(batch, table)
        shards = shard_survey(
            toy_low, toy_grid, n_beams=3, duration_s=1.0, max_dms_per_shard=2
        )
        stitched = run_sharded(config, batch, table, shards)
        assert np.array_equal(reference, stitched)

    def test_rejects_incomplete_cover(self, toy_low, toy_grid, rng):
        table = delay_table(toy_low, toy_grid.values)
        t = toy_low.samples_per_batch + int(table.max())
        batch = rng.normal(size=(1, toy_low.channels, t)).astype(np.float32)
        config = KernelConfiguration(
            work_items_time=4, work_items_dm=2, elements_time=2, elements_dm=1
        )
        shards = shard_survey(
            toy_low, toy_grid, n_beams=1, duration_s=1.0, max_dms_per_shard=2
        )
        with pytest.raises(ValidationError, match="cover"):
            run_sharded(config, batch, table, shards[:-1])

    def test_rejects_overlapping_shards(self, toy_low, toy_grid, rng):
        table = delay_table(toy_low, toy_grid.values)
        t = toy_low.samples_per_batch + int(table.max())
        batch = rng.normal(size=(1, toy_low.channels, t)).astype(np.float32)
        config = KernelConfiguration(
            work_items_time=4, work_items_dm=2, elements_time=2, elements_dm=1
        )
        shards = shard_survey(
            toy_low, toy_grid, n_beams=1, duration_s=1.0, max_dms_per_shard=2
        )
        with pytest.raises(ValidationError, match="overlap"):
            run_sharded(config, batch, table, list(shards) + [shards[0]])

    def test_rejects_negative_shard_coordinates(self, toy_low, toy_grid, rng):
        # Regression: a duck-typed shard with beam=-1 or dm_start=-2 used
        # to slice from the end of the arrays and double-cover rows
        # without tripping the coverage check (Shard itself rejects
        # negatives, but sharded execution must not rely on that).
        import dataclasses

        table = delay_table(toy_low, toy_grid.values)
        t = toy_low.samples_per_batch + int(table.max())
        batch = rng.normal(size=(2, toy_low.channels, t)).astype(np.float32)
        config = KernelConfiguration(
            work_items_time=4, work_items_dm=2, elements_time=2, elements_dm=1
        )
        shards = shard_survey(
            toy_low, toy_grid, n_beams=2, duration_s=1.0, max_dms_per_shard=2
        )

        @dataclasses.dataclass(frozen=True)
        class RawShard:
            beam: int
            dm_start: int
            dm_count: int
            batch: int
            samples: int
            shard_id: str = "raw"

        def with_raw(beam, dm_start):
            raw = RawShard(
                beam=beam,
                dm_start=dm_start,
                dm_count=shards[0].dm_count,
                batch=shards[0].batch,
                samples=shards[0].samples,
            )
            return [raw] + list(shards[1:])

        with pytest.raises(ValidationError, match="negative"):
            run_sharded(config, batch, table, with_raw(-1, 0))
        with pytest.raises(ValidationError, match="negative"):
            run_sharded(config, batch, table, with_raw(0, -2))

    def test_backend_choice_stitches_identically(self, toy_low, toy_grid, rng):
        table = delay_table(toy_low, toy_grid.values)
        t = toy_low.samples_per_batch + int(table.max())
        batch = rng.normal(size=(2, toy_low.channels, t)).astype(np.float32)
        config = KernelConfiguration(
            work_items_time=4, work_items_dm=2, elements_time=2, elements_dm=1
        )
        shards = shard_survey(
            toy_low, toy_grid, n_beams=2, duration_s=1.0, max_dms_per_shard=2
        )
        tiled = run_sharded(config, batch, table, shards, backend="tiled")
        fast = run_sharded(
            config, batch, table, shards, backend="vectorized"
        )
        assert np.array_equal(tiled, fast)
