"""Unit tests for repro.core.tuner."""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.core.tuner import AutoTuner, TuningResult
from repro.errors import TuningError
from repro.hardware.catalog import hd7970


@pytest.fixture(scope="module")
def sweep():
    return AutoTuner(hd7970(), apertif()).tune(DMTrialGrid(64))


class TestTune:
    def test_optimum_dominates_population(self, sweep):
        best = sweep.best.gflops
        assert np.all(sweep.population_gflops <= best)

    def test_every_sample_has_consistent_metrics(self, sweep):
        for sample in sweep.samples[:50]:
            assert sample.gflops == pytest.approx(sample.metrics.gflops)
            assert sample.metrics.n_dms == 64

    def test_population_size_matches(self, sweep):
        assert len(sweep.population_gflops) == sweep.n_configurations

    def test_find_existing_config(self, sweep):
        target = sweep.samples[3].config
        found = sweep.find(target)
        assert found is not None and found.config == target

    def test_find_missing_config(self, sweep):
        from repro.core.config import KernelConfiguration

        assert sweep.find(KernelConfiguration(7, 7, 7, 7)) is None

    def test_rank_of_best_small(self, sweep):
        # Fig. 10: "there is exactly one configuration that leads to the
        # best performance" — allow a couple of ties for robustness.
        ties = np.sum(sweep.population_gflops >= sweep.best.gflops)
        assert ties <= 3

    def test_empty_result_rejected(self):
        with pytest.raises(TuningError):
            TuningResult(
                device=hd7970(),
                setup=apertif(),
                grid=DMTrialGrid(2),
                samples=(),
            )


class TestEmptySpace:
    def test_empty_space_raises(self):
        # One DM and one sample admit only a one-work-item group, which
        # is no multiple of the HD7970's 64-wide wavefront.
        tuner = AutoTuner(hd7970(), apertif())
        with pytest.raises(TuningError, match="search space is empty"):
            tuner.tune(DMTrialGrid(1), samples=1)


class TestSpaceAccessor:
    def test_space_matches_tune_population(self, sweep):
        tuner = AutoTuner(hd7970(), apertif())
        configs = tuner.space(DMTrialGrid(64)).meaningful()
        assert len(configs) == sweep.n_configurations
        assert {s.config for s in sweep.samples} == set(configs)


class TestTuneInstances:
    def test_series_of_instances(self):
        tuner = AutoTuner(hd7970(), apertif())
        results = tuner.tune_instances([2, 4, 8])
        assert sorted(results) == [2, 4, 8]
        assert all(r.best.gflops > 0 for r in results.values())

    def test_performance_grows_with_instance(self):
        tuner = AutoTuner(hd7970(), apertif())
        results = tuner.tune_instances([2, 256])
        assert results[256].best.gflops > results[2].best.gflops
