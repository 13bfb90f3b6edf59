"""Unit tests for repro.tune.strategy — the search-strategy interface."""

import json
from pathlib import Path

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import lofar, setup_by_name
from repro.core.tuner import AutoTuner
from repro.errors import TuningError
from repro.hardware.catalog import device_by_name, hd7970
from repro.tune import (
    STRATEGIES,
    ExhaustiveSearch,
    ModelGuidedSearch,
    SearchStrategy,
    SuccessiveHalving,
    build_strategy,
    prior_scores,
)

DEVICE = hd7970()
GRID = DMTrialGrid(n_dms=64)

#: The committed strategy benchmark; its rows are the expected results.
BENCH_TUNE = Path(__file__).resolve().parents[2] / "BENCH_tune.json"


@pytest.fixture(scope="module")
def tuner():
    return AutoTuner(DEVICE, lofar())


@pytest.fixture(scope="module")
def exhaustive(tuner):
    return ExhaustiveSearch().search(tuner, GRID)


class TestExhaustiveSearch:
    def test_matches_the_plain_sweep(self, tuner, exhaustive):
        swept = tuner.tune(GRID)
        assert exhaustive.best.config == swept.best.config
        assert exhaustive.best.gflops == swept.best.gflops
        assert exhaustive.space_size == swept.n_configurations

    def test_cost_is_the_whole_space(self, exhaustive):
        assert exhaustive.evaluations == exhaustive.space_size
        assert exhaustive.measurements == exhaustive.space_size
        assert exhaustive.fraction_evaluated == 1.0

    def test_describe_mentions_strategy_and_cost(self, exhaustive):
        text = exhaustive.describe()
        assert "exhaustive" in text
        assert "GFLOP/s" in text


class TestModelGuidedSearch:
    def test_finds_the_optimum_cheaply(self, tuner, exhaustive):
        outcome = ModelGuidedSearch().search(tuner, GRID)
        assert outcome.best.gflops >= exhaustive.best.gflops - 1e-9
        assert outcome.fraction_evaluated < 0.15
        assert outcome.measurements < exhaustive.measurements

    def test_deterministic_across_runs(self, tuner):
        a = ModelGuidedSearch().search(tuner, GRID)
        b = ModelGuidedSearch().search(tuner, GRID)
        assert a.best.config == b.best.config
        assert a.evaluations == b.evaluations
        assert a.measurements == b.measurements

    def test_result_population_is_full_fidelity_only(self, tuner):
        outcome = ModelGuidedSearch().search(tuner, GRID)
        assert outcome.result.n_configurations == len(
            outcome.result.samples
        ) <= outcome.measurements


class TestSuccessiveHalving:
    def test_finds_the_optimum(self, tuner, exhaustive):
        outcome = SuccessiveHalving().search(tuner, GRID)
        assert outcome.best.gflops >= exhaustive.best.gflops - 1e-9
        assert outcome.evaluations < exhaustive.evaluations

    def test_subinstance_rungs_cost_fractionally(self, tuner):
        outcome = SuccessiveHalving().search(tuner, GRID)
        # More simulations ran than full-evaluation equivalents were
        # spent: the rungs were charged at n/n_dms each.
        assert outcome.evaluations < outcome.measurements


@pytest.fixture(scope="module")
def bench_rows():
    rows = json.loads(BENCH_TUNE.read_text())["instances"]
    return {(r["setup"], r["n_dms"], r["device"]): r for r in rows}


class TestBenchTuneRows:
    """The default strategies reproduce the committed ``BENCH_tune.json``."""

    @pytest.mark.parametrize("strategy", ["model-guided", "halving"])
    @pytest.mark.parametrize(
        "instance",
        [("apertif", 64, "HD7970"), ("lofar", 256, "GTX 680")],
        ids=["apertif-64-HD7970", "lofar-256-GTX680"],
    )
    def test_reproduces_the_recorded_row(self, bench_rows, instance, strategy):
        setup, n_dms, device = instance
        expected = bench_rows[instance]["strategies"][strategy]
        tuner = AutoTuner(device_by_name(device), setup_by_name(setup))
        outcome = build_strategy(strategy).search(
            tuner, DMTrialGrid(n_dms=n_dms)
        )
        assert list(outcome.best.config.as_tuple()) == expected["best_config"]
        assert round(outcome.evaluations, 3) == expected["evaluations"]
        assert outcome.measurements == expected["measurements"]


class TestPrior:
    def test_prior_scores_cover_all_configs(self, tuner):
        configs = tuner.space(GRID).meaningful()
        scores = prior_scores(DEVICE, lofar(), GRID, configs)
        assert set(scores) == set(configs)
        assert all(value > 0 for value in scores.values())

    def test_prior_differs_from_full_model(self, tuner, exhaustive):
        # The degraded model is a prior, not the oracle: it must not
        # reproduce the full model's numbers exactly.
        configs = [s.config for s in exhaustive.result.samples]
        scores = prior_scores(DEVICE, lofar(), GRID, configs)
        full = {s.config: s.gflops for s in exhaustive.result.samples}
        assert any(
            abs(scores[c] - full[c]) > 1e-6 * max(full[c], 1.0)
            for c in configs
        )


class TestBuildStrategy:
    def test_known_names_resolve(self):
        for name, cls in STRATEGIES.items():
            strategy = build_strategy(name)
            assert isinstance(strategy, cls)
            assert strategy.name == name

    def test_instance_passthrough(self):
        original = SuccessiveHalving()
        assert build_strategy(original) is original

    def test_unknown_name_rejected(self):
        with pytest.raises(TuningError, match="unknown search strategy"):
            build_strategy("gradient-descent")


class TestInstrumentation:
    def test_search_records_tune_metrics(self, tuner):
        from repro.obs import use_registry

        with use_registry() as registry:
            ModelGuidedSearch().search(tuner, GRID)
        names = {instrument.name for instrument in registry.series()}
        assert "repro_tune_searches_total" in names
        assert "repro_tune_measurements_total" in names
        assert "repro_tune_fraction_evaluated_ratio" in names
        assert "repro_tune_best_gflops" in names

    def test_strategy_is_abstract(self):
        with pytest.raises(TypeError):
            SearchStrategy()
