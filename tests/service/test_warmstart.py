"""Unit tests for repro.service.warmstart.

The headline property: a warm-started sweep returns the *same optimum*
as a cold exhaustive sweep on the Apertif and LOFAR reference instances,
while simulating fewer configurations.  The fallback guard is
probabilistic, not a guarantee: for a deliberately misleading seed the
test raises ``probes`` far above the default 8 so the guard is sure to
fire; at the default a distant seed can return a slower configuration
(see :mod:`repro.service.warmstart`).
"""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.tuner import AutoTuner, TuningResult
from repro.hardware.catalog import hd7970
from repro.service.warmstart import pruned_candidates, warm_start_tune

AXES = ("work_items_time", "work_items_dm", "elements_time", "elements_dm")


@pytest.fixture(scope="module", params=["apertif", "lofar"])
def setup(request):
    return {"apertif": apertif, "lofar": lofar}[request.param]()


@pytest.fixture(scope="module")
def tuner(setup):
    return AutoTuner(hd7970(), setup)


class TestWarmStartEquivalence:
    @pytest.mark.parametrize("seed_n,target_n", [(32, 64), (64, 32)])
    def test_same_optimum_as_cold_sweep(self, tuner, seed_n, target_n):
        seed = tuner.tune(DMTrialGrid(seed_n))
        cold = tuner.tune(DMTrialGrid(target_n))
        report = warm_start_tune(tuner, DMTrialGrid(target_n), seed)
        assert not report.fell_back
        assert report.result.best.config == cold.best.config
        assert report.result.best.gflops == pytest.approx(cold.best.gflops)

    def test_prunes_part_of_the_space(self, tuner):
        seed = tuner.tune(DMTrialGrid(32))
        report = warm_start_tune(tuner, DMTrialGrid(64), seed)
        assert report.evaluated < report.space_size
        assert 0.0 < report.savings < 1.0

    def test_population_includes_guard_probes(self, tuner):
        seed = tuner.tune(DMTrialGrid(32))
        report = warm_start_tune(
            tuner, DMTrialGrid(64), seed, probes=5
        )
        assert report.probe_count == 5
        assert report.evaluated >= report.pruned_size


class TestFallbackGuard:
    def test_misleading_seed_falls_back_to_full_sweep(self):
        tuner = AutoTuner(hd7970(), apertif())
        grid = DMTrialGrid(32)
        full = tuner.tune(grid)
        best = full.best.config
        # The worst configuration that shares no parameter value with the
        # optimum: its radius-0 neighbourhood cannot contain the optimum.
        misleading = min(
            (
                s
                for s in full.samples
                if all(
                    getattr(s.config, a) != getattr(best, a) for a in AXES
                )
            ),
            key=lambda s: s.gflops,
        )
        seed = TuningResult(
            device=full.device,
            setup=full.setup,
            grid=grid,
            samples=(misleading,),
        )
        report = warm_start_tune(
            tuner, grid, seed, radius=0, top_k=1, probes=10_000
        )
        assert report.fell_back
        assert report.result.best.config == best
        assert report.result.best.gflops == pytest.approx(full.best.gflops)


class TestPrunedCandidates:
    def test_seed_neighbourhood_contains_seed(self, tuner):
        space = tuner.space(DMTrialGrid(64))
        configs = space.meaningful()
        seed = configs[len(configs) // 2]
        pruned = pruned_candidates(configs, seed, radius=1)
        assert seed in pruned
        assert len(pruned) <= len(configs)

    def test_radius_grows_the_neighbourhood(self, tuner):
        configs = tuner.space(DMTrialGrid(64)).meaningful()
        seed = configs[0]
        narrow = pruned_candidates(configs, seed, radius=0)
        wide = pruned_candidates(configs, seed, radius=3)
        assert len(narrow) <= len(wide)

    def test_foreign_seed_values_snap_to_nearest_notch(self, tuner):
        # A seed tuned at a larger instance can carry a work_items_dm
        # value the smaller target space does not offer at all.
        big = tuner.tune(DMTrialGrid(256))
        small_configs = tuner.space(DMTrialGrid(8)).meaningful()
        pruned = pruned_candidates(small_configs, big.best.config, radius=2)
        assert pruned  # snapping kept the neighbourhood non-empty
