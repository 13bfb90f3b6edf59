"""Unit tests for repro.opencl_sim.kernel — the functional tiled executor."""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
from repro.baselines.cpu_reference import dedisperse_vectorized
from repro.core.config import KernelConfiguration
from repro.errors import ValidationError
from repro.opencl_sim.codegen import build_kernel
from tests.conftest import make_input, run_kernel


def config(wt=20, wd=2, et=5, ed=2) -> KernelConfiguration:
    return KernelConfiguration(
        work_items_time=wt, work_items_dm=wd, elements_time=et, elements_dm=ed
    )


class TestExecution:
    def test_matches_reference(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        out = run_kernel(kernel, data, table)
        ref = dedisperse_vectorized(data, toy_low, toy_grid, 400)
        np.testing.assert_allclose(out, ref, rtol=1e-5)

    def test_unstaged_matches_staged(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        staged = build_kernel(config(), toy_low.channels, 400)
        direct = build_kernel(
            config(), toy_low.channels, 400, use_local_staging=False
        )
        np.testing.assert_array_equal(
            run_kernel(staged, data, table), run_kernel(direct, data, table)
        )

    def test_output_shape_and_dtype(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        out = run_kernel(kernel, data, table)
        assert out.shape == (toy_grid.n_dms, 400)
        assert out.dtype == np.float32

    def test_out_parameter_reused(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        out = np.full((toy_grid.n_dms, 400), 7.0, dtype=np.float32)
        result = run_kernel(kernel, data, table, out=out)
        assert result is out
        ref = run_kernel(kernel, data, table)
        np.testing.assert_array_equal(result, ref)

    def test_zero_dm_rows_identical(self, toy_low, rng):
        from repro.astro.dm_trials import DMTrialGrid

        grid = DMTrialGrid.zero_dm(4)
        data = make_input(toy_low, grid, rng)
        table = delay_table(toy_low, grid.values)
        kernel = build_kernel(config(wd=2, ed=2), toy_low.channels, 400)
        out = run_kernel(kernel, data, table)
        for row in range(1, 4):
            np.testing.assert_array_equal(out[0], out[row])

    def test_constant_input_sums_channels(self, toy_low, toy_grid):
        data = np.ones(
            (toy_low.channels, 40_000), dtype=np.float32
        )
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        out = run_kernel(kernel, data, table)
        np.testing.assert_allclose(out, float(toy_low.channels))


class TestValidation:
    def test_rejects_short_input(self, toy_low, toy_grid, rng):
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        short = rng.normal(size=(toy_low.channels, 410)).astype(np.float32)
        with pytest.raises(ValidationError, match="needs"):
            run_kernel(kernel, short, table)

    def test_rejects_wrong_channel_count(self, toy_low, toy_grid, rng):
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        with pytest.raises(ValidationError):
            run_kernel(
                kernel, rng.normal(size=(3, 5000)).astype(np.float32), table
            )

    def test_rejects_negative_delays(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values).copy()
        table[0, 0] = -1
        kernel = build_kernel(config(), toy_low.channels, 400)
        with pytest.raises(ValidationError, match="non-negative"):
            run_kernel(kernel, data, table)

    def test_rejects_bad_out_shape(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        with pytest.raises(ValidationError):
            run_kernel(
                kernel, data, table, out=np.zeros((1, 400), dtype=np.float32)
            )

    def test_rejects_non_float32_out(self, toy_low, toy_grid, rng):
        # Regression: a float64 out silently widened the float32
        # accumulation and broke bit-for-bit stitching guarantees.
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        with pytest.raises(ValidationError, match="float32"):
            run_kernel(
                kernel,
                data,
                table,
                out=np.zeros((toy_grid.n_dms, 400), dtype=np.float64),
            )

    def test_ndrange_exposed(self, toy_low, toy_grid):
        kernel = build_kernel(config(), toy_low.channels, 400)
        ndr = kernel.ndrange(toy_grid.n_dms)
        assert ndr.n_work_groups == (400 // 100) * (8 // 4)
