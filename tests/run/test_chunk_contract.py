"""The chunk contract both chunked modes of the facade enforce.

A chunk's payload must equal the plan batch, and its overlap must cover
the plan's maximum delay.  ``streaming`` and ``fused`` mode share one
check, so each violation must fail the same way in both.
"""

import numpy as np
import pytest

from repro.astro.source import StreamChunk
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.errors import PipelineError
from repro.hardware.catalog import hd7970
from repro.run import ExecutionRequest, execute
from repro.search.detect import MatchedFilterDetector


@pytest.fixture
def plan(toy_low, toy_grid):
    return DedispersionPlan.create(
        toy_low,
        toy_grid,
        hd7970(),
        config=KernelConfiguration(16, 4, 5, 2),
        samples=toy_low.samples_per_second,
    )


def wrong_payload(plan) -> StreamChunk:
    """A chunk half the plan batch long, with ample overlap."""
    samples = plan.samples // 2
    overlap = int(plan.delays.max())
    return StreamChunk(
        beam_index=0,
        sequence=0,
        data=np.zeros(
            (plan.setup.channels, samples + overlap), dtype=np.float32
        ),
        samples=samples,
        overlap=overlap,
    )


def short_overlap(plan) -> StreamChunk:
    """A chunk of the plan batch whose overlap is one sample."""
    return StreamChunk(
        beam_index=0,
        sequence=0,
        data=np.zeros(
            (plan.setup.channels, plan.samples + 1), dtype=np.float32
        ),
        samples=plan.samples,
        overlap=1,
    )


@pytest.mark.parametrize("mode", ["streaming", "fused"])
@pytest.mark.parametrize(
    "make_chunk,message",
    [(wrong_payload, "does not match"), (short_overlap, "overlap")],
    ids=["wrong_payload", "short_overlap"],
)
def test_chunk_contract_violation_raises(plan, mode, make_chunk, message):
    detector = (
        MatchedFilterDetector.for_samples(plan.samples)
        if mode == "fused"
        else None
    )
    request = ExecutionRequest(
        plan=plan, chunks=(make_chunk(plan),), detector=detector
    )
    assert request.mode == mode
    with pytest.raises(PipelineError, match=message):
        execute(request)
