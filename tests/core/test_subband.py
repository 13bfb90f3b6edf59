"""Unit tests for repro.core.subband — two-step dedispersion."""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
from repro.astro.dm_trials import DMTrialGrid
from repro.core.subband import SubbandPlan, dedisperse_subband
from repro.errors import ValidationError
from tests.conftest import make_input, make_observation, run_kernel


@pytest.fixture
def plan(toy_low, toy_grid):
    return SubbandPlan(
        setup=toy_low, grid=toy_grid, n_subbands=4, coarse_factor=2
    )


class TestGeometry:
    def test_channels_per_subband(self, plan):
        assert plan.channels_per_subband == 4

    def test_coarse_grid(self, plan, toy_grid):
        assert plan.coarse_grid.n_dms == 4
        assert plan.coarse_grid.step == 2 * toy_grid.step
        assert plan.coarse_grid.first == toy_grid.first

    def test_coarse_index_mapping(self, plan):
        assert [plan.coarse_index(i) for i in range(8)] == [
            0, 0, 1, 1, 2, 2, 3, 3
        ]

    def test_coarse_index_bounds(self, plan):
        with pytest.raises(ValidationError):
            plan.coarse_index(8)

    def test_reference_frequencies_ascending(self, plan):
        refs = plan.subband_reference_frequencies
        assert refs.shape == (4,)
        assert np.all(np.diff(refs) > 0)

    def test_rejects_non_dividing_subbands(self, toy_low, toy_grid):
        with pytest.raises(ValidationError):
            SubbandPlan(
                setup=toy_low, grid=toy_grid, n_subbands=5, coarse_factor=2
            )

    def test_rejects_coarsened_degenerate_grid(self, toy_low):
        with pytest.raises(ValidationError):
            SubbandPlan(
                setup=toy_low,
                grid=DMTrialGrid.zero_dm(8),
                n_subbands=4,
                coarse_factor=2,
            )


class TestDelayTables:
    def test_intra_table_zero_at_subband_tops(self, plan):
        intra = plan.intra_subband_table
        w = plan.channels_per_subband
        for sub in range(plan.n_subbands):
            assert np.all(intra[:, (sub + 1) * w - 1] == 0)

    def test_intra_table_non_negative(self, plan):
        assert np.all(plan.intra_subband_table >= 0)

    def test_subband_table_shape(self, plan):
        assert plan.subband_table.shape == (8, 4)

    def test_effective_equals_exact_when_not_coarsened(self, toy_low, toy_grid):
        # coarse_factor=1 => every fine DM is its own coarse DM; the only
        # residual approximation is referencing channels to subband tops,
        # which cancels in the effective table up to rounding.
        plan = SubbandPlan(
            setup=toy_low, grid=toy_grid, n_subbands=4, coarse_factor=1
        )
        exact = delay_table(toy_low, toy_grid.values)
        assert np.abs(plan.effective_delay_table - exact).max() <= 1

    def test_error_bounded_and_grows_with_coarseness(self, toy_low, toy_grid):
        fine = SubbandPlan(toy_low, toy_grid, n_subbands=4, coarse_factor=1)
        coarse = SubbandPlan(toy_low, toy_grid, n_subbands=4, coarse_factor=4)
        assert fine.max_delay_error_samples() <= coarse.max_delay_error_samples()

    def test_error_bounded_by_intra_span(self, toy_low, toy_grid):
        plan = SubbandPlan(toy_low, toy_grid, n_subbands=4, coarse_factor=2)
        # The approximation error cannot exceed the delay motion of one
        # coarse step within a subband (plus rounding).
        exact = delay_table(toy_low, toy_grid.values)
        step_motion = np.abs(
            delay_table(toy_low, np.array([0.0, plan.coarse_grid.step]))
        )[1].max()
        assert plan.max_delay_error_samples() <= step_motion + 2


class TestCostAccounting:
    def test_flops_formula(self, plan):
        s = 400
        expected = 4 * s * 16 + 8 * s * 4
        assert plan.flops(s) == expected

    def test_reduction_greater_than_one_for_wide_bands(self, toy_low):
        grid = DMTrialGrid(64, step=0.25)
        plan = SubbandPlan(toy_low, grid, n_subbands=4, coarse_factor=8)
        assert plan.flop_reduction() > 2.0

    def test_apertif_scale_reduction(self):
        # The real win: 1,024 channels, 32 subbands, 16x coarsening give
        # an order-of-magnitude cut at Apertif scale.
        from repro.astro.observation import apertif

        plan = SubbandPlan(
            apertif(), DMTrialGrid(2048), n_subbands=32, coarse_factor=16
        )
        assert plan.flop_reduction() > 10.0


class TestExecution:
    def test_matches_bruteforce_with_effective_table(self, plan, toy_low, toy_grid, rng):
        # The defining identity: two-step execution == one-step execution
        # using the effective delay table.
        from repro.opencl_sim.codegen import build_kernel
        from repro.core.config import KernelConfiguration

        data = make_input(toy_low, toy_grid, rng)
        out = plan.execute(data, samples=400)
        kernel = build_kernel(
            KernelConfiguration(20, 2, 5, 2), toy_low.channels, 400
        )
        expected = run_kernel(kernel, data, plan.effective_delay_table)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-4)

    def test_close_to_exact_dedispersion(self, toy_low, toy_grid, rng):
        # With mild coarsening the two-step output approximates the exact
        # one closely on smooth data.
        from repro.baselines.cpu_reference import dedisperse_vectorized

        plan = SubbandPlan(toy_low, toy_grid, n_subbands=8, coarse_factor=1)
        data = make_input(toy_low, toy_grid, rng)
        approx = plan.execute(data, samples=400)
        exact = dedisperse_vectorized(data, toy_low, toy_grid, 400)
        # Delay rounding differences of <=1 sample move individual values,
        # so compare via correlation per row.
        for dm in range(toy_grid.n_dms):
            c = np.corrcoef(approx[dm], exact[dm])[0, 1]
            assert c > 0.98

    def test_output_shape_and_dtype(self, plan, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        out = plan.execute(data, samples=400)
        assert out.shape == (8, 400)
        assert out.dtype == np.float32

    def test_one_call_helper(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        out, plan = dedisperse_subband(
            data, toy_low, toy_grid, n_subbands=4, coarse_factor=2,
            samples=400,
        )
        assert out.shape == (8, 400)
        assert plan.coarse_grid.n_dms == 4

    def test_rejects_short_input(self, plan, toy_low, rng):
        short = rng.normal(size=(toy_low.channels, 410)).astype(np.float32)
        with pytest.raises(ValidationError, match="needs"):
            plan.execute(short, samples=400)

    def test_detection_survives_subbanding(self, toy_low):
        # End to end: a pulsar found by brute force is still found after
        # the two-step approximation.
        from repro.astro.signal_gen import SyntheticPulsar
        from repro.astro.snr import detect_dm

        grid = DMTrialGrid(16, step=1.0)
        pulsar = SyntheticPulsar(period_seconds=0.25, dm=7.0, amplitude=1.5)
        data = make_observation(toy_low, [pulsar], max_dm=grid.last, seed=4)
        out, plan = dedisperse_subband(
            data, toy_low, grid, n_subbands=4, coarse_factor=2,
        )
        detection = detect_dm(out, grid.values)
        assert abs(detection.dm - 7.0) <= 1.0
        assert detection.snr > 5.0
