"""Unit tests for repro.astro.ddplan — smearing-optimal DM planning."""

import numpy as np
import pytest

from repro.astro.ddplan import (
    band_delay_span_seconds,
    build_ddplan,
    dm_step_smearing_seconds,
    optimal_dm_step,
)
from repro.astro.dispersion import dispersion_smearing_seconds
from repro.astro.observation import apertif, lofar
from repro.errors import ValidationError


def total_smearing_seconds(setup, dm, dm_step, downsample=1):
    """Quadrature sum of sampling, intra-channel and DM-step smearing.

    The total :func:`optimal_dm_step` budgets against, built from the
    components the module exports.
    """
    t_samp = downsample / setup.samples_per_second
    centre = float(np.median(setup.channel_frequencies))
    t_chan = dispersion_smearing_seconds(centre, setup.channel_bandwidth, dm)
    t_step = dm_step_smearing_seconds(setup, dm_step)
    return float(np.sqrt(t_samp ** 2 + t_chan ** 2 + t_step ** 2))


class TestSmearingComponents:
    def test_band_span_linear_in_dm(self):
        setup = lofar()
        assert band_delay_span_seconds(setup, 2.0) == pytest.approx(
            2 * band_delay_span_seconds(setup, 1.0)
        )

    def test_step_smearing_half_span(self):
        setup = lofar()
        assert dm_step_smearing_seconds(setup, 1.0) == pytest.approx(
            0.5 * band_delay_span_seconds(setup, 1.0)
        )

    def test_total_at_least_sampling(self):
        setup = apertif()
        total = total_smearing_seconds(setup, dm=10.0, dm_step=0.25)
        assert total >= 1.0 / setup.samples_per_second

    def test_downsampling_increases_total(self):
        setup = apertif()
        a = total_smearing_seconds(setup, 10.0, 0.25, downsample=1)
        b = total_smearing_seconds(setup, 10.0, 0.25, downsample=8)
        assert b > a


class TestOptimalStep:
    def test_lofar_needs_much_finer_steps_at_low_dm(self):
        # Near DM 0 the smearing floor is just the sampling time, and low
        # frequencies smear ~25x more per DM-step unit, so LOFAR's optimal
        # step is orders of magnitude finer than Apertif's.
        ap = optimal_dm_step(apertif(), dm=1e-3)
        lo = optimal_dm_step(lofar(), dm=1e-3)
        assert ap > 20 * lo

    def test_step_grows_with_dm(self):
        # Intra-channel smearing raises the floor at high DM, so the step
        # may loosen.
        setup = lofar()
        assert optimal_dm_step(setup, 200.0) >= optimal_dm_step(setup, 1.0)

    def test_step_grows_with_downsampling(self):
        setup = apertif()
        assert optimal_dm_step(setup, 5.0, downsample=8) > optimal_dm_step(
            setup, 5.0, downsample=1
        )

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValidationError):
            optimal_dm_step(apertif(), 1.0, tolerance=1.0)

    def test_paper_step_conservative_for_apertif_at_high_dm(self):
        # At high DM the intra-channel floor lets Apertif loosen past the
        # paper's fixed 0.25 step — the fixed step over-resolves there.
        assert optimal_dm_step(apertif(), dm=500.0) > 0.25
        # At low DM, 0.25 is coarser than the optimum: the fixed step
        # under-resolves the most sensitive trials.
        assert optimal_dm_step(apertif(), dm=1.0) < 0.25


class TestBuildPlan:
    def test_covers_range(self):
        plan = build_ddplan(apertif(), max_dm=100.0)
        assert plan.stages[0].dm_low == 0.0
        assert plan.stages[-1].dm_high >= 100.0
        for a, b in zip(plan.stages, plan.stages[1:]):
            assert b.dm_low == pytest.approx(a.dm_high)

    def test_downsampling_non_decreasing(self):
        plan = build_ddplan(lofar(), max_dm=100.0)
        downs = [stage.downsample for stage in plan.stages]
        assert downs == sorted(downs)

    def test_steps_non_decreasing(self):
        plan = build_ddplan(lofar(), max_dm=100.0)
        steps = [stage.dm_step for stage in plan.stages]
        assert steps == sorted(steps)

    def test_total_trials_fewer_than_fixed_fine_grid(self):
        plan = build_ddplan(lofar(), max_dm=100.0)
        finest = plan.stages[0].dm_step
        assert plan.total_trials < plan.naive_trials(finest)

    def test_stage_grids_usable(self):
        plan = build_ddplan(apertif(), max_dm=50.0)
        for stage in plan.stages:
            grid = stage.grid
            assert grid.n_dms == stage.n_dms
            assert grid.first == pytest.approx(stage.dm_low)

    def test_describe_readable(self):
        text = build_ddplan(apertif(), max_dm=50.0).describe()
        assert "DDplan for Apertif" in text
        assert "total:" in text

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            build_ddplan(apertif(), max_dm=0.0)
        with pytest.raises(ValidationError):
            build_ddplan(apertif(), max_dm=10.0, tolerance=0.9)

    def test_smearing_budget_respected(self):
        # Within each stage, the step-induced smearing stays within the
        # tolerance of the unavoidable floor.
        setup = lofar()
        plan = build_ddplan(setup, max_dm=50.0, tolerance=1.5)
        for stage in plan.stages:
            mid = 0.5 * (stage.dm_low + stage.dm_high)
            total = total_smearing_seconds(
                setup, max(mid, 1e-3), stage.dm_step, stage.downsample
            )
            floor = total_smearing_seconds(
                setup, max(mid, 1e-3), 1e-9, stage.downsample
            )
            assert total <= 1.6 * floor
