"""Unit tests for repro.pipeline.realtime — Sec. V-D deployment sizing."""

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.hardware.catalog import hd7970
from repro.pipeline.realtime import accelerators_needed


def apertif_plan(n_beams=450):
    """The paper's worked example: Apertif, 2,000 DMs, HD7970s."""
    return accelerators_needed(
        hd7970(), apertif(), DMTrialGrid(2000), n_beams
    )


class TestDeployment:
    def test_paper_worked_example(self):
        # Sec. V-D: "dedispersion for Apertif could be implemented today
        # with just 50 GPUs".
        plan = apertif_plan()
        assert plan.devices_needed == 50
        assert plan.beams_per_device == 9
        assert plan.seconds_per_beam < 0.15

    def test_cpu_equivalent_is_orders_larger(self):
        plan = apertif_plan()
        # Paper says ~1,800 CPUs; anything in the >1,000 region preserves
        # the argument (our CPU model is slightly slower than theirs).
        assert plan.cpu_equivalent > 20 * plan.devices_needed

    def test_summary_sentence(self):
        text = apertif_plan().summary()
        assert "HD7970" in text and "beams" in text

    def test_custom_beam_count(self):
        assert apertif_plan(n_beams=90).devices_needed == 10
