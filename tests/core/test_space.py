"""Unit tests for repro.core.space — tuning-space enumeration."""

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.constraints import is_meaningful
from repro.core.space import (
    MAX_ELEMENTS_DM,
    MAX_ELEMENTS_TIME,
    MAX_WORK_ITEMS_DM,
    TuningSpace,
)
from repro.hardware.catalog import gtx680, hd7970, xeon_phi_5110p


class TestCandidates:
    def test_work_items_divide_batch(self):
        space = TuningSpace(hd7970(), apertif(), DMTrialGrid(64))
        for c in space.candidates():
            assert 20_000 % c.work_items_time == 0

    def test_tiles_divide_batch(self):
        space = TuningSpace(hd7970(), apertif(), DMTrialGrid(64))
        for c in space.candidates():
            assert 20_000 % c.tile_samples == 0

    def test_work_groups_within_device_limit(self):
        space = TuningSpace(gtx680(), apertif(), DMTrialGrid(64))
        assert all(
            c.work_items_per_group <= 1024 for c in space.candidates()
        )

    def test_dm_tiles_within_instance(self):
        space = TuningSpace(hd7970(), apertif(), DMTrialGrid(4))
        assert all(c.tile_dms <= 4 for c in space.candidates())

    def test_element_caps_respected(self):
        space = TuningSpace(hd7970(), apertif(), DMTrialGrid(64))
        for c in space.candidates():
            assert c.elements_time <= MAX_ELEMENTS_TIME
            assert c.elements_dm <= MAX_ELEMENTS_DM
            assert c.work_items_dm <= MAX_WORK_ITEMS_DM

    def test_paper_optima_present_for_gtx680(self):
        # The 32x32 work-items configuration of Sec. V-A must be in the
        # GTX 680's Apertif space.
        space = TuningSpace(gtx680(), apertif(), DMTrialGrid(4096))
        assert any(
            c.work_items_time == 32 and c.work_items_dm == 32
            for c in space.candidates()
        )

    def test_lofar_space_contains_250_row(self):
        # LOFAR optima use 250-work-item rows (250 divides 200,000).
        space = TuningSpace(gtx680(), lofar(), DMTrialGrid(1024))
        assert any(c.work_items_time == 250 for c in space.candidates())


class TestMeaningful:
    def test_all_meaningful_pass_constraints(self):
        space = TuningSpace(hd7970(), apertif(), DMTrialGrid(64))
        for c in space.meaningful():
            assert is_meaningful(c, hd7970(), apertif(), DMTrialGrid(64))

    def test_meaningful_smaller_than_candidates(self):
        space = TuningSpace(hd7970(), apertif(), DMTrialGrid(64))
        assert len(space.meaningful()) < len(list(space.candidates()))

    def test_space_nonempty_for_all_accelerators(self, any_accelerator):
        for setup in (apertif(), lofar()):
            space = TuningSpace(any_accelerator, setup, DMTrialGrid(2))
            assert space.meaningful(), (
                f"{any_accelerator.name}/{setup.name} has an empty space"
            )

    def test_phi_space_is_largest(self):
        # The Phi accepts huge work-groups, so its space dwarfs the GPUs'.
        phi = len(TuningSpace(xeon_phi_5110p(), apertif(), DMTrialGrid(64)).meaningful())
        amd = len(TuningSpace(hd7970(), apertif(), DMTrialGrid(64)).meaningful())
        assert phi > amd

    def test_custom_samples(self):
        space = TuningSpace(
            hd7970(), apertif(), DMTrialGrid(8), samples=400
        )
        assert all(400 % c.tile_samples == 0 for c in space.meaningful())
