"""The unified execution facade: one request type, one ``execute`` call.

:class:`ExecutionRequest` describes every way to launch dedispersion
work as a single value object, and :func:`execute` dispatches on its
*mode*, which the request infers from its contents when it is built:

=============  ===========================================================
mode           meaning
=============  ===========================================================
``kernel``     one beam, one batch: 2-D ``(channels, t)`` ``data=``
               through a configured kernel (or a tuned plan's kernel)
``streaming``  a tuned plan driven over ``chunks=``, an iterable of
               :class:`~repro.astro.source.StreamChunk` objects
``fused``      streaming with a ``detector=``: each chunk is dedispersed
               and searched slab-by-slab through a
               :class:`~repro.search.detect.MatchedFilterDetector`
               without materialising the chunk's DM×time plane — see
               :mod:`repro.run.fused`
=============  ===========================================================

Every launch covers one beam; a multi-beam survey runs each beam
through its own chunked request.

Both chunked modes enforce one chunk contract, :func:`check_chunk`: a
chunk's payload equals the plan batch and its overlap covers the plan's
maximum delay.  With that overlap, concatenating the streaming outputs
is bit-identical to dedispersing the whole observation at once.

Every request lands in the metrics registry
(``repro_run_requests_total{mode=...}`` plus a
``repro_run_execute_seconds`` wall-time observation) under a
``run.execute`` tracer span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.errors import PipelineError, ValidationError
from repro.obs import get_registry, span

#: The modes a request can infer (:attr:`ExecutionRequest.mode`).
EXECUTION_MODES = ("kernel", "streaming", "fused")


@dataclass(frozen=True)
class ExecutionRequest:
    """Everything needed to launch dedispersion work, validated once.

    Exactly one *executor source* must be supplied:

    * ``plan`` — a tuned :class:`~repro.core.plan.DedispersionPlan`; its
      kernel and precomputed delay table are used (``delay_table`` must
      then be omitted);
    * ``kernel`` — a configured
      :class:`~repro.opencl_sim.kernel.DedispersionKernel` plus an
      explicit ``delay_table``.

    Exactly one *input source* feeds a request: ``data``, the 2-D
    ``(channels, t)`` input of kernel mode, or ``chunks``, an iterable
    of stream chunks that a ``plan`` dedisperses in streaming mode.
    ``backend`` selects the kernel executor
    (``"tiled"``/``"vectorized"``/``"auto"``, ``None`` meaning auto) for
    every launch of the request.

    ``detector`` — a
    :class:`~repro.search.detect.MatchedFilterDetector` — turns a
    chunked request into **fused** mode: each chunk is dedispersed and
    searched one DM-tile slab at a time and only candidates are kept
    (the result's ``output`` is ``None``; the per-chunk detail,
    including metered ``peak_bytes``, is in ``chunk_results``).

    Every check runs here, at construction, and the inferred ``mode``
    (one of :data:`EXECUTION_MODES`) is kept as a read-only field.
    Inference never iterates ``chunks``.
    """

    data: np.ndarray | None = None
    delay_table: np.ndarray | None = None
    kernel: Any = None
    plan: Any = None
    chunks: Iterable | None = None
    backend: str | None = None
    detector: Any = None
    mode: str = field(init=False)

    def __post_init__(self) -> None:
        sources = [
            name
            for name, value in (("plan", self.plan), ("kernel", self.kernel))
            if value is not None
        ]
        if len(sources) != 1:
            raise ValidationError(
                "an ExecutionRequest needs exactly one of plan= or "
                f"kernel=; got {sources or 'none'}"
            )
        if self.plan is not None and self.delay_table is not None:
            raise ValidationError(
                "delay_table= conflicts with plan= (the plan carries its "
                "own precomputed delay table)"
            )
        if self.kernel is not None and self.delay_table is None:
            raise ValidationError("kernel= requires an explicit delay_table=")
        object.__setattr__(self, "mode", self._infer_mode())

    def _infer_mode(self) -> str:
        """Chunks + detector → fused, chunks → streaming, data → kernel."""
        if self.chunks is not None:
            mode = "fused" if self.detector is not None else "streaming"
            if self.plan is None:
                raise ValidationError(
                    f"{mode} mode requires plan= (a tuned "
                    "DedispersionPlan supplies the kernel and overlap)"
                )
            if self.data is not None:
                raise ValidationError(
                    f"{mode} mode takes its input from chunks=, not data="
                )
            return mode
        if self.data is None:
            raise ValidationError(
                "an ExecutionRequest needs data= (or chunks= for "
                "streaming mode)"
            )
        ndim = np.asarray(self.data).ndim
        if ndim != 2:
            raise ValidationError(
                f"request data must be 2-D (channels, t); got {ndim} "
                f"dimension(s)"
            )
        if self.detector is not None:
            raise ValidationError(
                "detector= is only valid in fused mode (a chunked "
                "request with a detector), but this request resolves "
                "to 'kernel' mode"
            )
        return "kernel"


@dataclass(frozen=True)
class ExecutionResult:
    """What one facade request produced.

    ``output`` is the dedispersed matrix — ``(n_dms, samples)`` for
    kernel mode and the time-concatenated ``(n_dms, total_samples)``
    matrix for streaming mode (chunk overlap makes the concatenation
    bit-identical to dedispersing the whole stream at once; the
    per-chunk detail is in ``chunk_results``).  Fused mode never
    materialises the plane — ``output`` is ``None`` and the per-chunk
    :class:`~repro.run.fused.FusedChunkResult` entries of
    ``chunk_results`` carry the candidates and metered ``peak_bytes``
    instead.
    """

    output: np.ndarray | None
    mode: str
    backend: str
    seconds: float
    launches: int
    chunk_results: tuple = ()

    @property
    def n_dms(self) -> int:
        """Trial-DM count of the output."""
        if self.output is None:
            raise ValidationError(
                "a fused-mode result has no output plane; read the "
                "candidates off chunk_results instead"
            )
        return self.output.shape[-2]

    @property
    def candidates(self) -> tuple:
        """Every candidate of a fused request, across all chunks."""
        return tuple(
            candidate
            for chunk in self.chunk_results
            for candidate in getattr(chunk, "candidates", ())
        )

    @property
    def peak_bytes(self) -> int:
        """Largest metered per-chunk working set of a fused request."""
        return max(
            (getattr(chunk, "peak_bytes", 0) for chunk in self.chunk_results),
            default=0,
        )


@dataclass(frozen=True)
class ChunkResult:
    """Dedispersed output of one stream chunk (streaming mode)."""

    beam_index: int
    sequence: int
    output: np.ndarray  # (n_dms, samples)
    simulated_seconds: float
    realtime: bool


def check_chunk(plan, chunk) -> None:
    """Enforce the chunk contract of both chunked modes.

    The payload must equal the plan batch and the overlap must cover the
    plan's maximum delay.  Checked per chunk, so a misconfigured
    front-end fails loudly instead of producing silently wrong tails.
    """
    if chunk.samples != plan.samples:
        raise PipelineError(
            f"chunk payload of {chunk.samples} samples does not match "
            f"the plan batch of {plan.samples}"
        )
    max_delay = int(plan.delays.max(initial=0))
    if chunk.overlap < max_delay:
        raise PipelineError(
            f"chunk overlap {chunk.overlap} < required maximum delay "
            f"{max_delay}"
        )


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def execute(request: ExecutionRequest) -> ExecutionResult:
    """Run one :class:`ExecutionRequest`; returns the result.

    The single blessed entrypoint of the execution stack: every mode,
    every backend, one call.  See the module docstring for the dispatch
    table.
    """
    if not isinstance(request, ExecutionRequest):
        raise ValidationError(
            f"execute() takes an ExecutionRequest, got "
            f"{type(request).__name__}"
        )
    from repro.opencl_sim.backend import normalize_backend

    mode = request.mode
    backend = normalize_backend(request.backend)
    runner = _RUNNERS[mode]
    with span("run.execute", mode=mode, backend=backend):
        start = time.perf_counter()
        output, launches, chunk_results = runner(request)
        elapsed = time.perf_counter() - start
    registry = get_registry()
    registry.counter("repro_run_requests_total", mode=mode).inc()
    registry.histogram("repro_run_execute_seconds", mode=mode).observe(
        elapsed
    )
    return ExecutionResult(
        output=output,
        mode=mode,
        backend=backend,
        seconds=elapsed,
        launches=launches,
        chunk_results=chunk_results,
    )


def _run_kernel(request: ExecutionRequest):
    if request.plan is not None:
        kernel, delays = request.plan.kernel, request.plan.delays
    else:
        kernel, delays = request.kernel, request.delay_table
    output = kernel._execute(request.data, delays, backend=request.backend)
    return output, 1, ()


def _dedisperse_chunk(plan, chunk, backend: str | None) -> ChunkResult:
    """Dedisperse one stream chunk as one ``pipeline.dedisperse`` span.

    The modelled real-time margin (chunk seconds / predicted kernel
    seconds) lands in the ``repro_pipeline_realtime_margin`` gauge.
    """
    check_chunk(plan, chunk)
    labels = {"device": plan.device.name, "setup": plan.setup.name}
    with span(
        "pipeline.dedisperse",
        beam=chunk.beam_index,
        sequence=chunk.sequence,
        **labels,
    ):
        output = plan.kernel._execute(chunk.data, plan.delays, backend=backend)
    seconds = plan.predict().seconds
    chunk_seconds = plan.samples / plan.setup.samples_per_second
    registry = get_registry()
    registry.counter("repro_pipeline_chunks_total", **labels).inc()
    if seconds > 0.0:
        registry.gauge(
            "repro_pipeline_realtime_margin", stage="dedisperse", **labels
        ).set(chunk_seconds / seconds)
    return ChunkResult(
        beam_index=chunk.beam_index,
        sequence=chunk.sequence,
        output=output,
        simulated_seconds=seconds,
        realtime=seconds <= chunk_seconds,
    )


def _run_streaming(request: ExecutionRequest):
    results = tuple(
        _dedisperse_chunk(request.plan, chunk, request.backend)
        for chunk in request.chunks
    )
    if not results:
        raise ValidationError("streaming request carried no chunks")
    output = np.concatenate([r.output for r in results], axis=1)
    return output, len(results), results


def _run_fused(request: ExecutionRequest):
    from repro.run.fused import run_fused_chunk

    results = tuple(
        run_fused_chunk(
            request.plan, chunk, request.detector, backend=request.backend
        )
        for chunk in request.chunks
    )
    if not results:
        raise ValidationError("fused request carried no chunks")
    return None, sum(r.launches for r in results), results


_RUNNERS = {
    "kernel": _run_kernel,
    "streaming": _run_streaming,
    "fused": _run_fused,
}
