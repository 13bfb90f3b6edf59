"""Property-based tests on the performance-model invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.space import TuningSpace
from repro.hardware.catalog import paper_accelerators
from repro.hardware.model import PerformanceModel


@st.composite
def tuned_problems(draw):
    """A random (device, setup, grid, meaningful configuration) tuple."""
    device = draw(st.sampled_from(paper_accelerators()))
    setup = draw(st.sampled_from((apertif(), lofar())))
    n_dms = draw(st.sampled_from((2, 8, 32, 128)))
    zero = draw(st.booleans())
    grid = DMTrialGrid.zero_dm(n_dms) if zero else DMTrialGrid(n_dms)
    space = TuningSpace(device, setup, grid).meaningful()
    config = draw(st.sampled_from(space))
    return device, setup, grid, config


class TestModelInvariants:
    @settings(max_examples=60, deadline=None)
    @given(problem=tuned_problems())
    def test_simulation_invariants(self, problem):
        device, setup, grid, config = problem
        metrics = PerformanceModel(device, setup, grid).simulate(config)
        # Time accounting.
        assert metrics.seconds > 0
        assert metrics.seconds >= max(
            metrics.memory_seconds, metrics.compute_seconds
        )
        # Performance below the device's physical peaks.
        assert metrics.gflops < device.peak_gflops
        assert metrics.bandwidth_gbs < device.peak_bandwidth_gbs
        # FLOP accounting is exact.
        assert metrics.flops == setup.total_flops(grid.n_dms)
        # Reuse bounded by the tile's DM depth.
        assert 0.99 <= metrics.reuse_factor <= config.tile_dms * 2.01
        # Occupancy in range.
        assert 0.0 < metrics.occupancy <= 1.0
        assert metrics.occupancy <= metrics.effective_occupancy <= 1.0
        assert 0.0 < metrics.utilization <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(problem=tuned_problems())
    def test_traffic_at_least_compulsory(self, problem):
        device, setup, grid, config = problem
        metrics = PerformanceModel(device, setup, grid).simulate(config)
        # At minimum the output must be written once.
        assert metrics.bytes_output == grid.n_dms * setup.samples_per_batch * 4
        assert metrics.bytes_total >= metrics.bytes_output

    @settings(max_examples=30, deadline=None)
    @given(problem=tuned_problems())
    def test_zero_dm_never_moves_more_bytes(self, problem):
        # Perfect reuse can only reduce traffic (Sec. V-C).  (The *tuned*
        # GFLOP/s ordering is asserted by the integration tests; for a
        # fixed configuration, residency side-effects can shift time
        # slightly either way on tiny instances.)
        device, setup, grid, config = problem
        real = PerformanceModel(device, setup, grid).simulate(config)
        zero = PerformanceModel(
            device, setup, DMTrialGrid.zero_dm(grid.n_dms)
        ).simulate(config)
        assert zero.bytes_total <= real.bytes_total * 1.001
        assert zero.reuse_factor >= real.reuse_factor * 0.999
