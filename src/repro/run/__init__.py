"""Unified execution facade for the dedispersion stack.

One request type (:class:`ExecutionRequest`, validated and its mode
inferred when it is built), one result type (:class:`ExecutionResult`),
one call (:func:`execute`).  See :mod:`repro.run.facade` for the
dispatch table and the chunk contract
(:func:`~repro.run.facade.check_chunk`) both streaming modes enforce.

The fused dedisperse→detect fast path lives in :mod:`repro.run.fused`
(reached by a chunked request that carries a ``detector=``); its
deterministic peak-memory meter is :class:`repro.run.peak.MemoryAccount`.
"""

from repro.run.facade import (
    EXECUTION_MODES,
    ChunkResult,
    ExecutionRequest,
    ExecutionResult,
    execute,
)
from repro.run.fused import FusedChunkResult, run_fused_chunk
from repro.run.peak import MemoryAccount

__all__ = [
    "EXECUTION_MODES",
    "ChunkResult",
    "ExecutionRequest",
    "ExecutionResult",
    "FusedChunkResult",
    "MemoryAccount",
    "execute",
    "run_fused_chunk",
]
