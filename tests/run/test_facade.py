"""Unit tests for the repro.run execution facade."""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table
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
from repro.search.detect import MatchedFilterDetector
from tests.conftest import make_chunks, make_input

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

    @pytest.mark.parametrize(
        "fields",
        [
            ("plan", "data", "chunks"),
            ("plan", "data", "detector"),
            ("kernel", "delay_table", "chunks"),
            ("plan", "cube"),
            ("plan",),
        ],
        ids=[
            "data_with_chunks",
            "detector_without_chunks",
            "chunks_without_plan",
            "3d_data",
            "no_input",
        ],
    )
    def test_invalid_request_fails_at_construction(
        self, fields, plan, kernel, table, data
    ):
        parts = {
            "plan": ("plan", plan),
            "kernel": ("kernel", kernel),
            "delay_table": ("delay_table", table),
            "data": ("data", data),
            "cube": ("data", np.stack([data, data])),
            "chunks": ("chunks", ()),
            "detector": ("detector", MatchedFilterDetector.for_samples(400)),
        }
        with pytest.raises(ValidationError):
            ExecutionRequest(**dict(parts[name] for name in fields))

    def test_execute_rejects_non_request(self):
        with pytest.raises(ValidationError, match="ExecutionRequest"):
            execute({"data": None})


class TestModeResolution:
    def test_modes_tuple_is_closed(self):
        assert EXECUTION_MODES == ("kernel", "streaming", "fused")

    def test_2d_infers_kernel(self, kernel, table, data):
        request = ExecutionRequest(data=data, kernel=kernel, delay_table=table)
        assert request.mode == "kernel"

    def test_chunks_infer_streaming(self, plan):
        request = ExecutionRequest(plan=plan, chunks=())
        assert request.mode == "streaming"

    def test_mode_is_not_settable(self, plan):
        with pytest.raises(TypeError, match="mode"):
            ExecutionRequest(plan=plan, chunks=(), mode="kernel")

    def test_inference_does_not_consume_chunks(self, plan, toy_low, toy_grid):
        chunks = iter(make_chunks(toy_low, toy_grid, seed=3))
        request = ExecutionRequest(plan=plan, chunks=chunks)
        assert request.mode == "streaming"
        assert execute(request).launches == 2

    def test_streaming_rejects_data(self, plan, data):
        with pytest.raises(ValidationError, match="chunks"):
            ExecutionRequest(plan=plan, chunks=(), data=data)

    def test_streaming_requires_plan(self, kernel, table):
        with pytest.raises(ValidationError, match="plan"):
            ExecutionRequest(kernel=kernel, delay_table=table, chunks=())

    @pytest.mark.parametrize("shape", [(8,), (2, 16, 500)], ids=["1-D", "3-D"])
    def test_1d_data_rejected(self, kernel, table, shape):
        # Every launch covers one beam: a beams axis is an error too.
        with pytest.raises(ValidationError, match="2-D"):
            ExecutionRequest(
                data=np.zeros(shape, dtype=np.float32),
                kernel=kernel,
                delay_table=table,
            )

    def test_missing_data_rejected(self, kernel, table):
        with pytest.raises(ValidationError, match="data"):
            ExecutionRequest(kernel=kernel, delay_table=table)


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

    def test_plan_source_matches_kernel_source(self, plan, table, data):
        via_plan = execute(ExecutionRequest(data=data, plan=plan))
        via_kernel = execute(
            ExecutionRequest(data=data, kernel=plan.kernel, delay_table=table)
        )
        np.testing.assert_array_equal(via_plan.output, via_kernel.output)

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
        chunks = make_chunks(toy_low, toy_grid, seed=3)
        result = execute(ExecutionRequest(plan=plan, chunks=chunks))
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
