"""Unit tests for repro.astro.dm_trials."""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.errors import ValidationError


class TestGridValues:
    def test_default_paper_grid(self):
        grid = DMTrialGrid(n_dms=4)
        assert np.allclose(grid.values, [0.0, 0.25, 0.5, 0.75])

    def test_last(self):
        assert DMTrialGrid(n_dms=5, first=1.0, step=0.5).last == pytest.approx(3.0)

    def test_custom_first(self):
        grid = DMTrialGrid(n_dms=3, first=10.0, step=2.0)
        assert np.allclose(grid.values, [10.0, 12.0, 14.0])

    def test_values_length(self):
        assert DMTrialGrid(n_dms=100).values.shape == (100,)


class TestZeroDMGrid:
    def test_all_values_zero(self):
        grid = DMTrialGrid.zero_dm(64)
        assert grid.is_degenerate
        assert np.all(grid.values == 0.0)
        assert grid.n_dms == 64

    def test_regular_grid_not_degenerate(self):
        assert not DMTrialGrid(n_dms=4).is_degenerate


class TestSubgrid:
    def test_values_match_slice(self):
        grid = DMTrialGrid(n_dms=16, step=0.5)
        sub = grid.subgrid(4, 4)
        assert np.allclose(sub.values, grid.values[4:8])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            DMTrialGrid(n_dms=8).subgrid(6, 4)

    def test_degenerate_subgrid(self):
        sub = DMTrialGrid.zero_dm(8).subgrid(2, 3)
        assert np.all(sub.values == 0.0)


class TestIndexOf:
    def test_exact(self):
        grid = DMTrialGrid(n_dms=8, step=0.25)
        assert grid.index_of(0.75) == 3

    def test_rounds_to_nearest(self):
        grid = DMTrialGrid(n_dms=8, step=0.25)
        assert grid.index_of(0.8) == 3
        assert grid.index_of(0.9) == 4

    def test_clamps(self):
        grid = DMTrialGrid(n_dms=4, step=0.25)
        assert grid.index_of(-5.0) == 0
        assert grid.index_of(100.0) == 3

    def test_degenerate_always_zero(self):
        assert DMTrialGrid.zero_dm(4).index_of(42.0) == 0


class TestValidation:
    def test_rejects_zero_dms(self):
        with pytest.raises(ValidationError):
            DMTrialGrid(n_dms=0)

    def test_rejects_negative_first(self):
        with pytest.raises(ValidationError):
            DMTrialGrid(n_dms=4, first=-1.0)

    def test_rejects_negative_step(self):
        with pytest.raises(ValidationError):
            DMTrialGrid(n_dms=4, step=-0.25)

    @pytest.mark.parametrize("field", ["first", "step"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValidationError, match=field):
            DMTrialGrid(n_dms=4, **{field: value})
