"""Unit tests for the repro.run execution facade."""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
from repro.astro.telescope import Telescope
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import ValidationError
from repro.hardware.catalog import hd7970
from repro.obs import use_registry
from repro.opencl_sim.codegen import build_kernel
from repro.run import (
    EXECUTION_MODES,
    ExecutionRequest,
    ExecutionResult,
    execute,
)
from tests.conftest import make_input

CONFIG = KernelConfiguration(16, 4, 5, 2)


@pytest.fixture
def table(toy_low, toy_grid):
    return delay_table(toy_low, toy_grid.values)


@pytest.fixture
def kernel(toy_low):
    return build_kernel(CONFIG, toy_low.channels, 400)


@pytest.fixture
def data(toy_low, toy_grid, rng):
    return make_input(toy_low, toy_grid, rng)


@pytest.fixture
def plan(toy_low, toy_grid):
    return DedispersionPlan.create(
        toy_low, toy_grid, hd7970(), config=CONFIG, samples=400
    )


class TestRequestValidation:
    def test_unknown_mode_rejected(self, kernel, table, data):
        with pytest.raises(ValidationError, match="unknown execution mode"):
            ExecutionRequest(
                data=data, kernel=kernel, delay_table=table, mode="warp"
            )

    def test_needs_exactly_one_source(self, data, table):
        with pytest.raises(ValidationError, match="exactly one"):
            ExecutionRequest(data=data, delay_table=table)

    def test_rejects_two_sources(self, kernel, plan, data, table):
        with pytest.raises(ValidationError, match="exactly one"):
            ExecutionRequest(
                data=data, kernel=kernel, plan=plan, delay_table=table
            )

    def test_plan_conflicts_with_delay_table(self, plan, data, table):
        with pytest.raises(ValidationError, match="conflicts with plan"):
            ExecutionRequest(data=data, plan=plan, delay_table=table)

    def test_kernel_requires_delay_table(self, kernel, data):
        with pytest.raises(ValidationError, match="delay_table"):
            ExecutionRequest(data=data, kernel=kernel)

    def test_config_requires_delay_table(self, data):
        with pytest.raises(ValidationError, match="delay_table"):
            ExecutionRequest(data=data, config=CONFIG)

    @pytest.mark.parametrize("source", ["plan", "kernel"])
    def test_samples_rejected_unless_config(
        self, source, plan, kernel, data, table
    ):
        # Both sources fix their own batch (400 columns); samples= used
        # to be ignored silently instead of resizing the output.
        sources = {
            "plan": {"plan": plan},
            "kernel": {"kernel": kernel, "delay_table": table},
        }
        with pytest.raises(ValidationError, match="samples="):
            ExecutionRequest(data=data, samples=200, **sources[source])

    def test_execute_rejects_non_request(self):
        with pytest.raises(ValidationError, match="ExecutionRequest"):
            execute({"data": None})


class TestModeResolution:
    def test_modes_tuple_is_closed(self):
        assert EXECUTION_MODES == ("auto", "kernel", "streaming", "fused")

    def test_2d_infers_kernel(self, kernel, table, data):
        request = ExecutionRequest(data=data, kernel=kernel, delay_table=table)
        assert request.resolve_mode() == "kernel"

    def test_chunks_infer_streaming(self, plan):
        request = ExecutionRequest(plan=plan, chunks=())
        assert request.resolve_mode() == "streaming"

    def test_explicit_mode_must_match_contents(self, kernel, table, data):
        request = ExecutionRequest(
            data=np.stack([data, data]),
            kernel=kernel,
            delay_table=table,
            mode="kernel",
        )
        with pytest.raises(ValidationError, match="2-D"):
            request.resolve_mode()

    def test_streaming_rejects_data(self, plan, data):
        request = ExecutionRequest(plan=plan, chunks=(), data=data)
        with pytest.raises(ValidationError, match="chunks"):
            request.resolve_mode()

    def test_streaming_rejects_out(self, plan, toy_grid):
        out = np.zeros((toy_grid.n_dms, 400), dtype=np.float32)
        request = ExecutionRequest(plan=plan, chunks=(), out=out)
        with pytest.raises(ValidationError, match="out="):
            request.resolve_mode()

    def test_streaming_requires_plan(self, kernel, table):
        request = ExecutionRequest(kernel=kernel, delay_table=table, chunks=())
        with pytest.raises(ValidationError, match="plan"):
            request.resolve_mode()

    @pytest.mark.parametrize("shape", [(8,), (2, 16, 500)], ids=["1-D", "3-D"])
    def test_1d_data_rejected(self, kernel, table, shape):
        # Every launch covers one beam: a beams axis is an error too.
        request = ExecutionRequest(
            data=np.zeros(shape, dtype=np.float32),
            kernel=kernel,
            delay_table=table,
        )
        with pytest.raises(ValidationError, match="2-D"):
            request.resolve_mode()

    def test_missing_data_rejected(self, kernel, table):
        request = ExecutionRequest(kernel=kernel, delay_table=table)
        with pytest.raises(ValidationError, match="data"):
            request.resolve_mode()


class TestKernelMode:
    def test_matches_direct_kernel(self, kernel, table, data, toy_grid):
        result = execute(
            ExecutionRequest(data=data, kernel=kernel, delay_table=table)
        )
        assert isinstance(result, ExecutionResult)
        assert result.mode == "kernel"
        assert result.launches == 1
        assert result.seconds >= 0.0
        assert result.backend in ("auto", "tiled", "vectorized")
        assert result.n_dms == toy_grid.n_dms
        np.testing.assert_array_equal(
            result.output, kernel._execute(data, table)
        )

    def test_out_buffer_is_used(self, kernel, table, data, toy_grid):
        out = np.zeros((toy_grid.n_dms, 400), dtype=np.float32)
        result = execute(
            ExecutionRequest(
                data=data, kernel=kernel, delay_table=table, out=out
            )
        )
        assert result.output is out

    def test_plan_source_matches_kernel_source(self, plan, table, data):
        via_plan = execute(ExecutionRequest(data=data, plan=plan))
        via_kernel = execute(
            ExecutionRequest(data=data, kernel=plan.kernel, delay_table=table)
        )
        np.testing.assert_array_equal(via_plan.output, via_kernel.output)

    def test_config_source_builds_kernel(self, kernel, table, data):
        result = execute(
            ExecutionRequest(
                data=data, config=CONFIG, delay_table=table, samples=400
            )
        )
        np.testing.assert_array_equal(
            result.output, kernel._execute(data, table)
        )

    def test_samples_inferred_from_input(self, table, data, toy_grid):
        # make_input sizes t to samples_per_batch + max delay, so the
        # widest batch the input allows is exactly samples_per_batch.
        result = execute(
            ExecutionRequest(data=data, config=CONFIG, delay_table=table)
        )
        assert result.output.shape == (toy_grid.n_dms, 400)

    def test_input_shorter_than_max_delay_rejected(self, toy_low, table):
        short = np.zeros((toy_low.channels, 1), dtype=np.float32)
        with pytest.raises(ValidationError, match="too short"):
            execute(
                ExecutionRequest(data=short, config=CONFIG, delay_table=table)
            )

    def test_backends_bit_identical(self, kernel, table, data):
        tiled = execute(
            ExecutionRequest(
                data=data, kernel=kernel, delay_table=table, backend="tiled"
            )
        )
        fast = execute(
            ExecutionRequest(
                data=data,
                kernel=kernel,
                delay_table=table,
                backend="vectorized",
            )
        )
        assert tiled.backend == "tiled"
        assert fast.backend == "vectorized"
        np.testing.assert_array_equal(tiled.output, fast.output)

    def test_records_run_metrics(self, kernel, table, data):
        with use_registry() as registry:
            execute(
                ExecutionRequest(data=data, kernel=kernel, delay_table=table)
            )
            names = {series.name for series in registry.series()}
        assert "repro_run_requests_total" in names
        assert "repro_run_execute_seconds" in names


class TestStreamingMode:
    def test_concatenates_chunk_outputs(self, plan, toy_low, toy_grid):
        telescope = Telescope(setup=toy_low, noise_sigma=0.5, seed=3)
        beam = telescope.add_beam()
        chunks = list(telescope.stream(beam, 2, toy_grid))
        result = execute(ExecutionRequest(plan=plan, chunks=tuple(chunks)))
        assert result.mode == "streaming"
        assert result.launches == 2
        assert len(result.chunk_results) == 2
        expected = np.concatenate(
            [r.output for r in result.chunk_results], axis=1
        )
        np.testing.assert_array_equal(result.output, expected)
        assert result.output.shape == (toy_grid.n_dms, 2 * plan.samples)

    def test_empty_stream_rejected(self, plan):
        with pytest.raises(ValidationError, match="no chunks"):
            execute(ExecutionRequest(plan=plan, chunks=()))


class TestScenarioInput:
    def test_scenario_conflicts_with_chunks(self, plan):
        from repro.scenarios import scenario_by_name

        scenario = scenario_by_name("noise_floor")
        with pytest.raises(ValidationError, match="scenario="):
            ExecutionRequest(plan=plan, chunks=(), scenario=scenario)

    def test_scenario_conflicts_with_data(self, plan, data):
        from repro.scenarios import scenario_by_name

        scenario = scenario_by_name("noise_floor")
        with pytest.raises(ValidationError, match="scenario="):
            ExecutionRequest(plan=plan, data=data, scenario=scenario)

    def test_scenario_infers_streaming(self, plan):
        from repro.scenarios import scenario_by_name

        request = ExecutionRequest(
            plan=plan, scenario=scenario_by_name("noise_floor")
        )
        assert request.resolve_mode() == "streaming"

    def test_scenario_rejected_outside_streaming(self, plan):
        from repro.scenarios import scenario_by_name

        request = ExecutionRequest(
            plan=plan,
            scenario=scenario_by_name("noise_floor"),
            mode="kernel",
        )
        with pytest.raises(ValidationError, match="streaming"):
            request.resolve_mode()

    def test_scenario_mode_error_names_modes_and_remedy(self, plan):
        # The message must name the supported modes, the mode the
        # request resolved to, and how to fix it — not just refuse.
        from repro.scenarios import scenario_by_name

        request = ExecutionRequest(
            plan=plan,
            scenario=scenario_by_name("noise_floor"),
            mode="kernel",
        )
        with pytest.raises(ValidationError) as excinfo:
            request.resolve_mode()
        message = str(excinfo.value)
        assert "scenario= is only valid in streaming or fused mode" in message
        assert "kernel, streaming, fused" in message
        assert "resolves to 'kernel'" in message
        assert "mode='streaming'" in message

    def test_chunks_mode_error_names_modes(self, plan):
        request = ExecutionRequest(plan=plan, chunks=(), mode="kernel")
        with pytest.raises(ValidationError) as excinfo:
            request.resolve_mode()
        message = str(excinfo.value)
        assert "chunks= is only valid in streaming or fused mode" in message
        assert "kernel, streaming, fused" in message

    def test_executes_realized_stream(self, plan, toy_grid):
        from repro.scenarios import scenario_by_name

        scenario = scenario_by_name("noise_floor")
        result = execute(ExecutionRequest(plan=plan, scenario=scenario))
        assert result.mode == "streaming"
        realized = result.scenario
        assert realized is not None
        assert realized.name == "noise_floor"
        assert result.launches == len(realized.chunks)
        assert result.output.shape == (
            toy_grid.n_dms, result.launches * plan.samples
        )

    def test_accepts_pre_realized_scenario(self, plan, toy_low, toy_grid):
        from repro.scenarios import scenario_by_name

        realized = scenario_by_name("noise_floor").realize(toy_low, toy_grid)
        result = execute(ExecutionRequest(plan=plan, scenario=realized))
        assert result.scenario is realized

    def test_realized_setup_must_match_plan(self, plan, toy_grid):
        import dataclasses

        from repro.scenarios import scenario_by_name

        other = dataclasses.replace(
            plan.setup, name="somewhere-else"
        )
        realized = scenario_by_name("noise_floor").realize(other, toy_grid)
        with pytest.raises(ValidationError, match="setup"):
            execute(ExecutionRequest(plan=plan, scenario=realized))

    def test_rejects_arbitrary_scenario_object(self, plan):
        with pytest.raises(ValidationError):
            execute(ExecutionRequest(plan=plan, scenario="clean_pulse"))

    def test_deterministic_output(self, plan):
        from repro.scenarios import scenario_by_name

        scenario = scenario_by_name("clean_pulse")
        a = execute(ExecutionRequest(plan=plan, scenario=scenario))
        b = execute(ExecutionRequest(plan=plan, scenario=scenario))
        np.testing.assert_array_equal(a.output, b.output)
