"""Unit tests for repro.core.plan."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import ConfigurationError
from repro.hardware.catalog import hd7970
from repro.hardware.model import PerformanceModel
from tests.conftest import make_input, run_plan


@pytest.fixture
def plan(toy_low, toy_grid):
    # 16x4 work-items = 64 (one HD7970 wavefront); 80-sample tiles divide
    # the 400-sample batch; 8-DM tiles cover the toy grid exactly.
    return DedispersionPlan.create(
        toy_low,
        toy_grid,
        hd7970(),
        config=KernelConfiguration(16, 4, 5, 2),
        samples=400,
    )


class TestCreation:
    def test_explicit_config_validated(self, toy_low, toy_grid):
        bad = KernelConfiguration(64, 8, 1, 1)  # 512 > HD7970's 256
        with pytest.raises(ConfigurationError):
            DedispersionPlan.create(
                toy_low, toy_grid, hd7970(), config=bad, samples=400
            )

    def test_auto_tunes_when_config_omitted(self, toy_low, toy_grid):
        plan = DedispersionPlan.create(
            toy_low, toy_grid, hd7970(), samples=400
        )
        assert plan.config.tile_samples <= 400

    def test_delays_shape(self, plan, toy_low, toy_grid):
        assert plan.delays.shape == (toy_grid.n_dms, toy_low.channels)

    def test_required_input_includes_max_delay(self, plan):
        assert plan.required_input_samples == 400 + int(plan.delays.max())


class TestExecution:
    def test_matches_reference(self, plan, toy_low, toy_grid, rng):
        from repro.baselines.cpu_reference import dedisperse_vectorized

        data = make_input(toy_low, toy_grid, rng)
        out = run_plan(plan, data)
        ref = dedisperse_vectorized(data, toy_low, toy_grid, 400)
        np.testing.assert_allclose(out, ref, rtol=1e-5)

    def test_repeatable(self, plan, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        np.testing.assert_array_equal(
            run_plan(plan, data), run_plan(plan, data)
        )


class TestPrediction:
    def test_predict_metrics(self, plan):
        metrics = plan.predict()
        assert metrics.gflops > 0
        assert metrics.device_name == "HD7970"

    def test_realtime_for_toy_problem(self, plan):
        # 8 DMs of a toy setup is trivially real-time on an HD7970.
        assert plan.is_realtime()

    def test_predict_equals_a_fresh_model(self, plan):
        fresh = PerformanceModel(plan.device, plan.setup, plan.grid).simulate(
            plan.config, samples=plan.samples, validate=False
        )
        assert plan.predict() == fresh

    def test_predict_is_computed_once(self, plan):
        assert plan.predict() is plan.predict()

    def test_replaced_plan_predicts_for_its_own_config(self, plan):
        other = KernelConfiguration(16, 4, 5, 1)
        replaced = dataclasses.replace(plan, config=other)
        plan.predict()  # warm the original first
        expected = PerformanceModel(
            plan.device, plan.setup, plan.grid
        ).simulate(other, samples=plan.samples, validate=False)
        assert replaced.predict() == expected
        assert replaced.predict().config == other
        assert plan.predict().config == plan.config

    def test_describe_mentions_everything(self, plan):
        text = plan.describe()
        assert "toy-low" in text
        assert "HD7970" in text
        assert "GFLOP/s" in text
