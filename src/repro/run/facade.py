"""The unified execution facade: one request type, one ``execute`` call.

:class:`ExecutionRequest` describes every way to launch dedispersion
work as a single value object, and :func:`execute` dispatches on its
resolved *mode*:

=============  ===========================================================
mode           meaning
=============  ===========================================================
``kernel``     one beam, one batch: ``(channels, t)`` input through a
               configured kernel (or a tuned plan's kernel)
``batched``    a ``(beams, channels, t)`` batch, all beams sharing one
               delay table, one launch per beam
``sharded``    the same batch split into :class:`~repro.sched.shard.Shard`
               work units, stitched bit-identically
``streaming``  a tuned plan driven over an iterable of
               :class:`~repro.astro.telescope.StreamChunk` objects
``fused``      streaming, but each chunk is dedispersed and searched
               slab-by-slab through a
               :class:`~repro.search.detect.MatchedFilterDetector`
               (``detector=``) without materialising the chunk's
               DM×time plane — see :mod:`repro.run.fused`
=============  ===========================================================

``mode="auto"`` (the default) infers the mode from what the request
carries: chunks imply ``streaming``, shards imply ``sharded``, 3-D input
implies ``batched``, 2-D input implies ``kernel``.

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

#: The accepted values of :attr:`ExecutionRequest.mode`.
EXECUTION_MODES = (
    "auto",
    "kernel",
    "batched",
    "sharded",
    "streaming",
    "fused",
)


@dataclass(frozen=True)
class ExecutionRequest:
    """Everything needed to launch dedispersion work, normalised.

    Exactly one *executor source* must be supplied:

    * ``plan`` — a tuned :class:`~repro.core.plan.DedispersionPlan`; its
      kernel and precomputed delay table are used (``delay_table`` must
      then be omitted);
    * ``kernel`` — a configured
      :class:`~repro.opencl_sim.kernel.DedispersionKernel` plus an
      explicit ``delay_table``;
    * ``config`` — a bare
      :class:`~repro.core.config.KernelConfiguration` plus
      ``delay_table``; the kernel is generated on the fly (``samples``
      defaults to the shard length in sharded mode, otherwise to the
      widest batch the input and delay table allow).

    ``data`` carries the channelised input: ``(channels, t)`` for kernel
    mode, ``(beams, channels, t)`` for batched/sharded mode, and
    ``None`` for streaming mode (the chunks carry their own payloads).
    Exactly one *input source* feeds a request: ``data``, ``chunks``, or
    ``scenario`` — a :class:`~repro.scenarios.catalog.Scenario` (realized
    against the plan's setup and grid) or an already-realized
    :class:`~repro.scenarios.catalog.RealizedScenario`, whose chunks are
    streamed exactly as if they had been passed via ``chunks=``.
    ``out``, when given, must be a float32 array of the output shape —
    the same contract every executor in the stack enforces.  ``backend``
    selects the kernel executor
    (``"tiled"``/``"vectorized"``/``"channel_tile"``/``"auto"``,
    ``None`` meaning auto) for every launch of the request.

    ``detector`` — a
    :class:`~repro.search.detect.MatchedFilterDetector` — turns a
    chunked request into **fused** mode: each chunk is dedispersed and
    searched one DM-tile slab at a time and only candidates are kept
    (the result's ``output`` is ``None``; the per-chunk detail,
    including metered ``peak_bytes``, is in ``chunk_results``).
    ``dm_tile`` optionally pins the slab height (a multiple of the
    configuration's ``tile_dms``; default ≈ one sixteenth of the grid).
    """

    data: np.ndarray | None = None
    delay_table: np.ndarray | None = None
    config: Any = None
    kernel: Any = None
    plan: Any = None
    shards: tuple = ()
    chunks: Iterable | None = None
    scenario: Any = None
    samples: int | None = None
    mode: str = "auto"
    backend: str | None = None
    detector: Any = None
    dm_tile: int | None = None
    out: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in EXECUTION_MODES:
            raise ValidationError(
                f"unknown execution mode {self.mode!r}; expected one of "
                f"{', '.join(EXECUTION_MODES)}"
            )
        sources = [
            name
            for name, value in (
                ("plan", self.plan),
                ("kernel", self.kernel),
                ("config", self.config),
            )
            if value is not None
        ]
        if len(sources) != 1:
            raise ValidationError(
                "an ExecutionRequest needs exactly one of plan=, kernel= "
                f"or config=; got {sources or 'none'}"
            )
        if self.plan is not None and self.delay_table is not None:
            raise ValidationError(
                "delay_table= conflicts with plan= (the plan carries its "
                "own precomputed delay table)"
            )
        if self.kernel is not None and self.delay_table is None:
            raise ValidationError("kernel= requires an explicit delay_table=")
        if self.config is not None and self.delay_table is None:
            raise ValidationError("config= requires an explicit delay_table=")
        if self.scenario is not None:
            inputs = [
                name
                for name, value in (
                    ("data", self.data),
                    ("chunks", self.chunks),
                )
                if value is not None
            ]
            if inputs:
                raise ValidationError(
                    f"an ExecutionRequest needs exactly one input source; "
                    f"scenario= conflicts with {'/'.join(inputs)}="
                )
            if self.shards:
                raise ValidationError(
                    "scenario= conflicts with shards= (scenarios stream "
                    "chunks)"
                )
        if self.shards:
            object.__setattr__(self, "shards", tuple(self.shards))

    # ------------------------------------------------------------------
    def resolve_mode(self) -> str:
        """The concrete mode this request runs in.

        An explicit mode is validated against the request's contents;
        ``"auto"`` infers: chunks + detector → fused, chunks →
        streaming, shards → sharded, 3-D input → batched, 2-D input →
        kernel.
        """
        inferred = self._infer_mode()
        if self.mode == "auto":
            return inferred
        self._check_mode(self.mode)
        return self.mode

    def _infer_mode(self) -> str:
        if self.chunks is not None or self.scenario is not None:
            mode = "fused" if self.detector is not None else "streaming"
            self._check_mode(mode)
            return mode
        if self.shards:
            self._check_mode("sharded")
            return "sharded"
        if self.data is None:
            raise ValidationError(
                "an ExecutionRequest needs data= (or chunks= / scenario= "
                "for streaming mode)"
            )
        ndim = np.asarray(self.data).ndim
        if ndim == 3:
            self._check_mode("batched")
            return "batched"
        if ndim == 2:
            self._check_mode("kernel")
            return "kernel"
        raise ValidationError(
            f"request data must be 2-D (channels, t) or 3-D "
            f"(beams, channels, t); got {ndim} dimension(s)"
        )

    def _check_mode(self, mode: str) -> None:
        """Raise when the request's contents contradict ``mode``."""
        if mode not in ("fused",):
            if self.detector is not None and mode != "streaming":
                raise ValidationError(
                    "detector= is only valid in fused mode (a chunked "
                    f"request with a detector), but this request "
                    f"resolves to {mode!r} mode"
                )
            if self.dm_tile is not None:
                raise ValidationError(
                    "dm_tile= is only valid in fused mode (it sizes the "
                    "fused path's DM slabs)"
                )
        if mode in ("streaming", "fused"):
            if self.chunks is None and self.scenario is None:
                raise ValidationError(
                    f"{mode} mode requires chunks= or scenario="
                )
            if self.plan is None:
                raise ValidationError(
                    f"{mode} mode requires plan= (a tuned "
                    "DedispersionPlan supplies the kernel and overlap)"
                )
            if self.data is not None:
                raise ValidationError(
                    f"{mode} mode takes its input from chunks= or "
                    "scenario=, not data="
                )
            if self.out is not None:
                raise ValidationError(
                    f"{mode} mode allocates per-chunk outputs; out= is "
                    "not supported"
                )
            if mode == "fused" and self.detector is None:
                raise ValidationError(
                    "fused mode requires detector= (a "
                    "MatchedFilterDetector to fold each slab through)"
                )
            if mode == "streaming" and self.detector is not None:
                raise ValidationError(
                    "detector= turns a chunked request into fused mode; "
                    "drop mode='streaming' (or use mode='fused')"
                )
            return
        if self.chunks is not None:
            raise ValidationError(
                f"chunks= is only valid in streaming or fused mode "
                f"(of {', '.join(m for m in EXECUTION_MODES if m != 'auto')}), "
                f"but this request resolves to {mode!r} mode"
            )
        if self.scenario is not None:
            raise ValidationError(
                f"scenario= is only valid in streaming or fused mode "
                f"(of {', '.join(m for m in EXECUTION_MODES if m != 'auto')}), "
                f"but this request resolves to {mode!r} mode; pass "
                f"plan= and drop mode={mode!r} (or use mode='streaming') "
                f"to stream the scenario's chunks"
            )
        if mode == "sharded":
            if not self.shards:
                raise ValidationError("sharded mode requires shards=")
            if self.config is None:
                raise ValidationError(
                    "sharded mode requires config= (tuned configurations "
                    "need not tile remainder DM chunks, so the caller "
                    "chooses one that tiles every shard)"
                )
            return
        if self.shards:
            raise ValidationError("shards= is only valid in sharded mode")
        if self.data is None:
            raise ValidationError(f"{mode} mode requires data=")
        ndim = np.asarray(self.data).ndim
        wanted = 2 if mode == "kernel" else 3
        if ndim != wanted:
            raise ValidationError(
                f"{mode} mode requires {wanted}-D input, got {ndim}-D"
            )


@dataclass(frozen=True)
class ExecutionResult:
    """What one facade request produced.

    ``output`` is the dedispersed matrix — ``(n_dms, samples)`` for
    kernel mode, ``(beams, n_dms, samples)`` for batched/sharded mode,
    and the time-concatenated ``(n_dms, total_samples)`` matrix for
    streaming mode (chunk overlap makes the concatenation bit-identical
    to dedispersing the whole stream at once; the per-chunk detail is in
    ``chunk_results``).  Fused mode never materialises the plane —
    ``output`` is ``None`` and the per-chunk
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
    #: The :class:`~repro.scenarios.catalog.RealizedScenario` a
    #: ``scenario=`` request streamed, carrying the ground truth the
    #: caller scores against; ``None`` for every other input source.
    scenario: Any = field(default=None, repr=False)

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

    mode = request.resolve_mode()
    backend = normalize_backend(request.backend)
    runner = _RUNNERS[mode]
    with span("run.execute", mode=mode, backend=backend):
        start = time.perf_counter()
        output, launches, chunk_results, extras = runner(request)
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
        **extras,
    )


def _kernel_for(request: ExecutionRequest, channels: int, samples: int):
    """The configured kernel a non-plan request executes with."""
    if request.kernel is not None:
        return request.kernel
    from repro.opencl_sim.codegen import build_kernel

    return build_kernel(request.config, channels, samples)


def _kernel_samples(request: ExecutionRequest, time_axis: int) -> int:
    """Output batch length for a kernel/batched request.

    An explicit ``samples=`` wins; a supplied kernel fixes its own batch;
    otherwise the widest batch the input and delay table allow.
    """
    if request.samples is not None:
        return int(request.samples)
    if request.kernel is not None:
        return request.kernel.samples
    available = time_axis - int(np.asarray(request.delay_table).max(initial=0))
    if available <= 0:
        raise ValidationError(
            "input too short for the delay table (no output samples "
            "remain after the maximum delay)"
        )
    return available


def _run_kernel(request: ExecutionRequest):
    if request.plan is not None:
        kernel = request.plan.kernel
        delays = request.plan.delays
    else:
        delays = request.delay_table
        data = np.asarray(request.data)
        kernel = _kernel_for(
            request, data.shape[0], _kernel_samples(request, data.shape[1])
        )
    output = kernel._execute(
        request.data, delays, out=request.out, backend=request.backend
    )
    return output, 1, (), {}


def _run_batched(request: ExecutionRequest):
    from repro.opencl_sim.batch import BatchedDedispersionKernel

    data = np.asarray(request.data)
    if request.plan is not None:
        kernel = request.plan.kernel
        delays = request.plan.delays
    else:
        delays = request.delay_table
        kernel = _kernel_for(
            request, data.shape[1], _kernel_samples(request, data.shape[2])
        )
    batched = BatchedDedispersionKernel(kernel=kernel, n_beams=data.shape[0])
    output = batched.execute(
        data, delays, out=request.out, backend=request.backend
    )
    return output, data.shape[0], (), {}


def _run_sharded(request: ExecutionRequest):
    from repro.opencl_sim.batch import _execute_sharded

    output = _execute_sharded(
        request.config,
        request.data,
        request.delay_table,
        request.shards,
        out=request.out,
        backend=request.backend,
    )
    return output, len(request.shards), (), {}


def _resolve_scenario(request: ExecutionRequest):
    """Realize a ``scenario=`` input against the request's plan.

    Accepts a :class:`~repro.scenarios.catalog.Scenario` (realized here
    against the plan's setup and grid) or an already-realized
    :class:`~repro.scenarios.catalog.RealizedScenario` (whose setup must
    match the plan's).  Imported lazily — the facade sits below
    :mod:`repro.scenarios` in the layering and must not import it at
    module scope.
    """
    from repro.scenarios.catalog import RealizedScenario, Scenario

    scenario = request.scenario
    if isinstance(scenario, Scenario):
        return scenario.realize(request.plan.setup, request.plan.grid)
    if isinstance(scenario, RealizedScenario):
        if scenario.setup.name != request.plan.setup.name:
            raise ValidationError(
                f"scenario was realized for setup "
                f"{scenario.setup.name!r}, but the plan targets "
                f"{request.plan.setup.name!r}"
            )
        return scenario
    raise ValidationError(
        f"scenario= takes a Scenario or RealizedScenario, got "
        f"{type(scenario).__name__}"
    )


def _stream_input(request: ExecutionRequest):
    """The chunks a chunked request streams, plus its result extras."""
    if request.scenario is None:
        return request.chunks, {}
    realized = _resolve_scenario(request)
    return realized.chunks, {"scenario": realized}


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
    chunks, extras = _stream_input(request)
    results = tuple(
        _dedisperse_chunk(request.plan, chunk, request.backend)
        for chunk in chunks
    )
    if not results:
        raise ValidationError("streaming request carried no chunks")
    output = np.concatenate([r.output for r in results], axis=1)
    return output, len(results), results, extras


def _run_fused(request: ExecutionRequest):
    from repro.run.fused import run_fused_chunk

    chunks, extras = _stream_input(request)
    results = tuple(
        run_fused_chunk(
            request.plan,
            chunk,
            request.detector,
            backend=request.backend,
            dm_tile=request.dm_tile,
        )
        for chunk in chunks
    )
    if not results:
        raise ValidationError("fused request carried no chunks")
    launches = sum(r.launches for r in results)
    return None, launches, results, extras


_RUNNERS = {
    "kernel": _run_kernel,
    "batched": _run_batched,
    "sharded": _run_sharded,
    "streaming": _run_streaming,
    "fused": _run_fused,
}
