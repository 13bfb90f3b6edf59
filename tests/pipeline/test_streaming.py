"""Streaming dedispersion: a tuned plan driven over a chunked stream.

The chunks go through the facade's streaming mode,
``repro.run.execute(ExecutionRequest(plan=..., chunks=...))``; the chunk
contract both chunked modes enforce is tested in
``tests/run/test_chunk_contract.py``.
"""

import numpy as np
import pytest

from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.telescope import Telescope
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.hardware.catalog import hd7970
from repro.run import ChunkResult, ExecutionRequest, execute
from tests.conftest import run_plan


def stream(plan, chunks) -> tuple:
    """Per-chunk results of one streaming request."""
    return execute(ExecutionRequest(plan=plan, chunks=chunks)).chunk_results


@pytest.fixture
def plan(toy_low, toy_grid):
    return DedispersionPlan.create(
        toy_low,
        toy_grid,
        hd7970(),
        config=KernelConfiguration(16, 4, 5, 2),
        samples=toy_low.samples_per_second,
    )


@pytest.fixture
def telescope(toy_low):
    return Telescope(setup=toy_low, noise_sigma=0.5, seed=9)


class TestProcess:
    def test_chunk_result_fields(self, plan, telescope, toy_grid):
        beam = telescope.add_beam()
        (result,) = stream(plan, telescope.stream(beam, 1, toy_grid))
        assert isinstance(result, ChunkResult)
        assert result.beam_index == beam.index
        assert result.sequence == 0
        assert result.output.shape == (toy_grid.n_dms, plan.samples)
        assert result.simulated_seconds > 0

    def test_streaming_equals_batch(self, plan, telescope, toy_grid, toy_low):
        # Concatenated chunk outputs must be bit-identical to dedispersing
        # the whole observation at once.
        beam = telescope.add_beam(
            pulsars=(SyntheticPulsar(period_seconds=0.3, dm=2.0),)
        )
        n_chunks = 3
        chunks = list(telescope.stream(beam, n_chunks, toy_grid))
        streamed = execute(ExecutionRequest(plan=plan, chunks=chunks)).output

        # Rebuild the full observation from chunk payloads + final overlap.
        payload = np.concatenate(
            [c.data[:, : c.samples] for c in chunks], axis=1
        )
        tail = chunks[-1].data[:, chunks[-1].samples :]
        full = np.concatenate([payload, tail], axis=1)

        batch_outputs = []
        for i in range(n_chunks):
            start = i * plan.samples
            stop = start + plan.samples + chunks[0].overlap
            batch_outputs.append(run_plan(plan, full[:, start:stop]))
        batch = np.concatenate(batch_outputs, axis=1)
        np.testing.assert_array_equal(streamed, batch)

    def test_process_stream_orders_results(self, plan, telescope, toy_grid):
        beam = telescope.add_beam()
        results = stream(plan, telescope.stream(beam, 4, toy_grid))
        assert [r.sequence for r in results] == [0, 1, 2, 3]
