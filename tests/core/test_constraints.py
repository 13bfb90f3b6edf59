"""Unit tests for repro.core.constraints — the meaningful-configuration rules."""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.core.config import KernelConfiguration
from repro.core.constraints import is_meaningful, validate_configuration
from repro.errors import ConfigurationError
from repro.hardware.catalog import gtx680, hd7970


SETUP = apertif()
GRID = DMTrialGrid(256)


def config(wt=32, wd=8, et=25, ed=4) -> KernelConfiguration:
    return KernelConfiguration(
        work_items_time=wt, work_items_dm=wd, elements_time=et, elements_dm=ed
    )


def violations(c, device, setup, grid) -> list[str]:
    """The violated constraints that validate_configuration reports."""
    try:
        validate_configuration(c, device, setup, grid)
    except ConfigurationError as exc:
        return str(exc).split(": ", 1)[1].split("; ")
    return []


class TestMeaningful:
    def test_paper_optimum_is_meaningful(self):
        # The GTX 680 Apertif optimum: 32x32 work-items, tile 800 samples.
        c = KernelConfiguration(32, 32, 25, 1)
        assert is_meaningful(c, gtx680(), SETUP, GRID)

    def test_valid_on_hd7970(self):
        assert is_meaningful(config(), hd7970(), SETUP, GRID)

    def test_no_problems_listed_when_valid(self):
        assert violations(config(), hd7970(), SETUP, GRID) == []

    def test_validate_passes_silently(self):
        validate_configuration(config(), hd7970(), SETUP, GRID)


class TestViolations:
    def test_work_group_too_large(self):
        c = config(wt=64, wd=8)  # 512 > HD7970's 256
        problems = violations(c, hd7970(), SETUP, GRID)
        assert any("limit" in p for p in problems)
        assert not is_meaningful(c, hd7970(), SETUP, GRID)

    def test_wavefront_multiple_required(self):
        c = config(wt=40, wd=1, et=25, ed=4)  # 40 not multiple of 64
        problems = violations(c, hd7970(), SETUP, GRID)
        assert any("multiple" in p for p in problems)

    def test_register_limit(self):
        c = config(wt=32, wd=1, et=25, ed=4)  # 108 regs > GK104's 63
        problems = violations(c, gtx680(), SETUP, GRID)
        assert any("registers" in p for p in problems)

    def test_time_tiling(self):
        c = config(wt=32, wd=2, et=3, ed=1)  # 96 does not divide 20,000
        problems = violations(c, hd7970(), SETUP, GRID)
        assert any("does not divide" in p for p in problems)

    def test_dm_tiling(self):
        grid = DMTrialGrid(6)  # tile_dms = 32 does not divide 6
        problems = violations(config(), hd7970(), SETUP, grid)
        assert any("DMs" in p for p in problems)

    def test_residency(self):
        # 256 items x 208 regs each exceeds the 64K register file.
        c = config(wt=64, wd=4, et=25, ed=8)
        problems = violations(c, hd7970(), SETUP, GRID)
        assert problems

    def test_validate_raises_with_context(self):
        c = config(wt=64, wd=8)
        with pytest.raises(ConfigurationError, match="HD7970"):
            validate_configuration(c, hd7970(), SETUP, GRID)

    def test_multiple_violations_all_reported(self):
        c = config(wt=40, wd=8, et=3, ed=4)
        problems = violations(c, hd7970(), SETUP, GRID)
        assert len(problems) >= 2


class TestCustomSamples:
    def test_samples_override(self):
        c = config(wt=32, wd=2, et=5, ed=1)  # tile 160
        assert is_meaningful(c, hd7970(), SETUP, GRID, samples=320)
        assert not is_meaningful(c, hd7970(), SETUP, GRID, samples=300)
