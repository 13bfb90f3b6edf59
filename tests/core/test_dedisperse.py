"""Unit tests for repro.core.dedisperse — the one-call API."""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.signal_gen import SyntheticPulsar
from repro.core.dedisperse import dedisperse, dedisperse_reference
from repro.errors import ValidationError
from repro.hardware.catalog import gtx680
from tests.conftest import best_trial, make_input, make_observation, run_plan


class TestDedisperse:
    def test_matches_reference(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        out, plan = dedisperse(data, toy_low, toy_grid, samples=400)
        ref = dedisperse_reference(data, toy_low, toy_grid, 400)
        np.testing.assert_allclose(out, ref, rtol=1e-5)
        assert plan.samples == 400

    def test_infers_samples_from_input(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng, samples=400)
        out, plan = dedisperse(data, toy_low, toy_grid)
        assert out.shape == (toy_grid.n_dms, 400)

    def test_device_selectable(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        _, plan = dedisperse(
            data, toy_low, toy_grid, device=gtx680(), samples=400
        )
        assert plan.device.name == "GTX 680"

    def test_rejects_wrong_shape(self, toy_low, toy_grid):
        with pytest.raises(ValidationError):
            dedisperse(
                np.zeros((3, 1000), dtype=np.float32), toy_low, toy_grid
            )

    def test_rejects_too_short_input(self, toy_low, rng):
        grid = DMTrialGrid(n_dms=8, step=5.0)  # huge delays
        data = rng.normal(size=(toy_low.channels, 100)).astype(np.float32)
        with pytest.raises(ValidationError, match="too short"):
            dedisperse(data, toy_low, grid)

    def test_plan_reusable_for_next_batch(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        out1, plan = dedisperse(data, toy_low, toy_grid, samples=400)
        data2 = make_input(toy_low, toy_grid, rng)
        out2 = run_plan(plan, data2)
        assert out2.shape == out1.shape
        assert not np.array_equal(out1, out2)


class TestEndToEndRecovery:
    def test_recovers_injected_dm(self, toy_low):
        grid = DMTrialGrid(n_dms=8, step=1.0)
        true_dm = 4.0
        pulsar = SyntheticPulsar(
            period_seconds=0.25, dm=true_dm, amplitude=1.5
        )
        data = make_observation(toy_low, [pulsar], max_dm=grid.last, seed=3)
        out, _ = dedisperse(data, toy_low, grid, samples=400)
        detection = best_trial(out, grid.values)
        assert abs(detection.dm - true_dm) <= grid.step
        assert detection.snr > 5.0
