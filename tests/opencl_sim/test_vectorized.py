"""Tests for the vectorized fast-path executor and backend selection.

The central claim is *exact* float32 equality with the tiled reference —
every assertion here uses ``np.array_equal`` / ``assert_array_equal``,
never ``allclose``.
"""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
from repro.core.config import KernelConfiguration
from repro.core.space import TuningSpace
from repro.errors import ValidationError
from repro.obs import use_registry
from repro.opencl_sim.backend import (
    BACKEND_ENV_VAR,
    backend_from_env,
    normalize_backend,
    resolve_backend,
)
from repro.opencl_sim.codegen import build_kernel
from repro.opencl_sim.vectorized import BLOCK_BYTES
from repro.run import ExecutionRequest, execute
from tests.conftest import make_input, run_kernel


def config(wt=20, wd=2, et=5, ed=2) -> KernelConfiguration:
    return KernelConfiguration(
        work_items_time=wt, work_items_dm=wd, elements_time=et, elements_dm=ed
    )


class TestBackendResolution:
    def test_explicit_choice_wins(self):
        assert resolve_backend("tiled", 1000) == "tiled"
        assert resolve_backend("vectorized", 1) == "vectorized"

    def test_none_means_auto_heuristic(self):
        assert resolve_backend(None, 1) == "tiled"
        assert resolve_backend(None, 2) == "vectorized"
        assert resolve_backend("auto", 64) == "vectorized"

    def test_env_pins_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "tiled")
        assert resolve_backend("auto", 1000) == "tiled"
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        assert resolve_backend(None, 1) == "vectorized"

    def test_env_auto_defers_to_heuristic(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert backend_from_env() is None
        assert resolve_backend(None, 2) == "vectorized"

    def test_explicit_choice_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        assert resolve_backend("tiled", 1000) == "tiled"

    def test_empty_env_ignored(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert backend_from_env() is None

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "gpu")
        with pytest.raises(ValidationError, match="REPRO_KERNEL_BACKEND"):
            resolve_backend("auto", 4)

    def test_bad_argument_rejected(self):
        with pytest.raises(ValidationError, match="unknown kernel backend"):
            normalize_backend("fast")

    def test_build_kernel_validates_backend(self, toy_low):
        with pytest.raises(ValidationError, match="unknown kernel backend"):
            build_kernel(config(), toy_low.channels, 400, backend="simd")


class TestBitIdentity:
    def test_matches_tiled_exactly(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        tiled = run_kernel(kernel, data, table, backend="tiled")
        fast = run_kernel(kernel, data, table, backend="vectorized")
        assert np.array_equal(tiled, fast)
        assert fast.dtype == np.float32

    def test_matches_without_local_staging(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(
            config(), toy_low.channels, 400, use_local_staging=False
        )
        assert np.array_equal(
            run_kernel(kernel, data, table, backend="tiled"),
            run_kernel(kernel, data, table, backend="vectorized"),
        )

    @pytest.mark.parametrize("setup_fixture", ["toy_low", "toy_high"])
    def test_sampled_tuning_space(self, setup_fixture, toy_grid, rng, request):
        """Exact equality across the meaningful tuning space, both setups."""
        setup = request.getfixturevalue(setup_fixture)
        from repro.hardware.catalog import hd7970

        space = TuningSpace(
            device=hd7970(),
            setup=setup,
            grid=toy_grid,
            samples=setup.samples_per_batch,
        )
        configs = space.meaningful()
        assert configs, "tuning space unexpectedly empty"
        # Deterministic sample spread over the whole space.
        step = max(1, len(configs) // 12)
        sampled = configs[::step]
        data = make_input(setup, toy_grid, rng)
        table = delay_table(setup, toy_grid.values)
        for cfg in sampled:
            kernel = build_kernel(cfg, setup.channels, setup.samples_per_batch)
            tiled = run_kernel(kernel, data, table, backend="tiled")
            fast = run_kernel(kernel, data, table, backend="vectorized")
            assert np.array_equal(tiled, fast), f"diverged at {cfg}"

    def test_crosses_dm_block_seams(self, toy_low, rng):
        # At the module's own BLOCK_BYTES: 40 000-sample rows give blocks
        # of three rows, so eight DMs run as 3 + 3 + 2.
        samples, n_dms = 40_000, 8
        rows = BLOCK_BYTES // (4 * samples)
        assert n_dms > 2 * rows and n_dms % rows, "launch must cross seams"
        table = rng.integers(0, 64, size=(n_dms, toy_low.channels))
        data = rng.normal(size=(toy_low.channels, samples + 64)).astype(
            np.float32
        )
        kernel = build_kernel(
            config(wt=100, wd=2, et=50, ed=2), toy_low.channels, samples
        )
        assert np.array_equal(
            run_kernel(kernel, data, table, backend="tiled"),
            run_kernel(kernel, data, table, backend="vectorized"),
        )

    def test_single_work_group_case(self, toy_low, rng):
        # The one geometry the auto heuristic keeps on the tiled path.
        cfg = config(wt=100, wd=4, et=4, ed=2)
        from repro.astro.dm_trials import DMTrialGrid

        grid = DMTrialGrid(n_dms=8, first=0.0, step=1.0)
        data = make_input(toy_low, grid, rng)
        table = delay_table(toy_low, grid.values)
        kernel = build_kernel(cfg, toy_low.channels, 400)
        assert kernel.ndrange(8).n_work_groups == 1
        assert np.array_equal(
            run_kernel(kernel, data, table, backend="tiled"),
            run_kernel(kernel, data, table, backend="vectorized"),
        )


class TestBackendPlumbing:
    def test_kernel_default_backend_field(self, toy_low):
        kernel = build_kernel(
            config(), toy_low.channels, 400, backend="vectorized"
        )
        assert kernel.backend == "vectorized"
        assert "auto" == build_kernel(config(), toy_low.channels, 400).backend

    def test_plan_execute_backend_equality(self, toy_low, toy_grid, rng):
        from repro.core.plan import DedispersionPlan
        from repro.hardware.catalog import hd7970

        plan = DedispersionPlan.create(
            toy_low,
            toy_grid,
            hd7970(),
            config=KernelConfiguration(16, 4, 5, 2),
            samples=toy_low.samples_per_second,
        )
        data = make_input(toy_low, toy_grid, rng)

        def run(backend):
            request = ExecutionRequest(data=data, plan=plan, backend=backend)
            return execute(request).output

        assert np.array_equal(run("tiled"), run("vectorized"))

    def test_env_var_reaches_kernel(self, toy_low, toy_grid, rng, monkeypatch):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        monkeypatch.setenv(BACKEND_ENV_VAR, "tiled")
        with use_registry() as registry:
            run_kernel(kernel, data, table)
            assert registry.counter(
                "repro_kernel_launches_total", backend="tiled"
            ).value == 1


class TestKernelMetrics:
    def test_launches_counted_per_backend(self, toy_low, toy_grid, rng):
        data = make_input(toy_low, toy_grid, rng)
        table = delay_table(toy_low, toy_grid.values)
        kernel = build_kernel(config(), toy_low.channels, 400)
        with use_registry() as registry:
            run_kernel(kernel, data, table, backend="tiled")
            run_kernel(kernel, data, table, backend="vectorized")
            run_kernel(kernel, data, table, backend="vectorized")
            assert registry.counter(
                "repro_kernel_launches_total", backend="tiled"
            ).value == 1
            assert registry.counter(
                "repro_kernel_launches_total", backend="vectorized"
            ).value == 2
            hist = registry.histogram(
                "repro_kernel_execute_seconds", backend="vectorized"
            )
            assert hist.count == 2
            assert hist.sum >= 0.0
