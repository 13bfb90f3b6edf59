"""Tests for the reuse-tiled channel-block executor.

Same ground rule as the vectorized executor's tests: the claim is
*exact* float32 equality with the tiled reference, so every assertion
uses ``np.array_equal``, never ``allclose``.
"""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
from repro.core.config import KernelConfiguration
from repro.errors import ValidationError
from repro.obs import use_registry
from repro.opencl_sim.backend import BACKEND_ENV_VAR, resolve_backend
from repro.opencl_sim.channel_tile import (
    accumulate_channel_tiles,
    channel_blocks,
    channel_spans,
)
from repro.opencl_sim.codegen import build_kernel
from tests.conftest import make_input, run_kernel


def config(wt=20, wd=2, et=5, ed=2) -> KernelConfiguration:
    return KernelConfiguration(
        work_items_time=wt, work_items_dm=wd, elements_time=et, elements_dm=ed
    )


class TestSpansAndBlocks:
    def test_spans_are_max_minus_min_per_channel(self, toy_low, toy_grid):
        table = delay_table(toy_low, toy_grid.values)
        spans = channel_spans(table)
        assert spans.shape == (toy_low.channels,)
        expected = table.max(axis=0) - table.min(axis=0)
        assert np.array_equal(spans, expected)

    def test_empty_table_spans_are_zero(self):
        table = np.zeros((0, 8), dtype=np.int64)
        assert np.array_equal(channel_spans(table), np.zeros(8))

    def test_blocks_partition_channel_axis_in_order(self, toy_low, toy_grid):
        table = delay_table(toy_low, toy_grid.values)
        blocks = channel_blocks(table, 400)
        assert blocks[0][0] == 0
        assert blocks[-1][1] == toy_low.channels
        for (a0, a1), (b0, b1) in zip(blocks, blocks[1:]):
            assert a1 == b0
            assert a0 < a1

    def test_tiny_budget_forces_single_channel_blocks(self, toy_low, toy_grid):
        table = delay_table(toy_low, toy_grid.values)
        blocks = channel_blocks(table, 400, budget_bytes=1)
        assert len(blocks) == toy_low.channels
        assert all(b1 - b0 == 1 for b0, b1 in blocks)

    def test_generous_budget_yields_one_block(self, toy_low, toy_grid):
        table = delay_table(toy_low, toy_grid.values)
        blocks = channel_blocks(table, 400, budget_bytes=1 << 40)
        assert blocks == [(0, toy_low.channels)]

    def test_blocks_respect_budget(self, toy_low, toy_grid):
        table = delay_table(toy_low, toy_grid.values)
        spans = channel_spans(table)
        budget = 16 * 1024
        for c0, c1 in channel_blocks(table, 400, budget_bytes=budget):
            width = 400 + int(spans[c0:c1].max())
            if c1 - c0 > 1:  # single-channel blocks may exceed any budget
                assert (c1 - c0) * width * 4 <= budget


class TestBitIdentity:
    @pytest.mark.parametrize("setup_fixture", ["toy_low", "toy_high"])
    def test_matches_tiled_exactly(self, setup_fixture, toy_grid, rng, request):
        setup = request.getfixturevalue(setup_fixture)
        samples = setup.samples_per_batch
        data = make_input(setup, toy_grid, rng)
        table = delay_table(setup, toy_grid.values)
        # tile_samples=80 divides both toy batches (400 and 480).
        kernel = build_kernel(config(wt=16), setup.channels, samples)
        tiled = run_kernel(kernel, data, table, backend="tiled")
        reuse = run_kernel(kernel, data, table, backend="channel_tile")
        assert np.array_equal(tiled, reuse)
        assert reuse.dtype == np.float32

    def test_matches_under_forced_multi_block(self, toy_low, toy_grid, rng):
        # A 64-byte budget forces one block per channel: the partition
        # must not change a single bit of the accumulation.
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        reference = run_kernel(kernel, data, table, backend="vectorized")
        out = np.zeros((toy_grid.n_dms, 400), dtype=np.float32)
        accumulate_channel_tiles(data, table, out, budget_bytes=64)
        assert np.array_equal(reference, out)

    def test_zero_delay_table(self, toy_low, rng):
        # Degenerate grid: every trial at DM 0, spans all zero.
        data = rng.normal(size=(toy_low.channels, 420)).astype(np.float32)
        table = np.zeros((4, toy_low.channels), dtype=np.int64)
        kernel = build_kernel(config(), toy_low.channels, 400)
        assert np.array_equal(
            run_kernel(kernel, data, table, backend="tiled"),
            run_kernel(kernel, data, table, backend="channel_tile"),
        )


class TestAutoSelection:
    def test_compact_span_selects_channel_tile(self):
        # Apertif regime: span is a small fraction of the batch.
        assert resolve_backend("auto", 64, reuse_span=100, samples=1000) == (
            "channel_tile"
        )

    def test_wide_span_selects_vectorized(self):
        # LOFAR regime: the span dwarfs the batch.
        assert resolve_backend("auto", 64, reuse_span=5000, samples=1000) == (
            "vectorized"
        )

    def test_boundary_is_twice_the_span(self):
        assert resolve_backend(None, 8, reuse_span=500, samples=1000) == (
            "channel_tile"
        )
        assert resolve_backend(None, 8, reuse_span=501, samples=1000) == (
            "vectorized"
        )

    def test_single_work_group_still_tiled(self):
        assert resolve_backend(None, 1, reuse_span=10, samples=1000) == "tiled"

    def test_without_span_hint_keeps_vectorized(self):
        assert resolve_backend(None, 64) == "vectorized"

    def test_env_pin_beats_heuristic(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "channel_tile")
        assert resolve_backend("auto", 64, reuse_span=5000, samples=100) == (
            "channel_tile"
        )

    def test_explicit_choice_beats_everything(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        assert resolve_backend(
            "channel_tile", 1, reuse_span=5000, samples=100
        ) == "channel_tile"

    def test_kernel_auto_selects_by_measured_span(self, toy_high, toy_grid, rng):
        # toy_high mirrors Apertif: heavy reuse, so an auto launch with
        # multiple work groups must land on the reuse-tiled executor.
        samples = toy_high.samples_per_batch
        data = make_input(toy_high, toy_grid, rng)
        table = delay_table(toy_high, toy_grid.values)
        spans = channel_spans(table)
        assert 2 * int(spans.max()) <= samples, "fixture drifted"
        kernel = build_kernel(config(wt=16), toy_high.channels, samples)
        assert kernel.ndrange(toy_grid.n_dms).n_work_groups > 1
        with use_registry() as registry:
            run_kernel(kernel, data, table)
            assert registry.counter(
                "repro_kernel_launches_total", backend="channel_tile"
            ).value == 1

    def test_unknown_backend_rejected(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        with pytest.raises(ValidationError, match="unknown kernel backend"):
            run_kernel(kernel, data, table, backend="block")
