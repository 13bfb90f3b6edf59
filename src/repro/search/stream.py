"""The real-time streaming search driver.

This is the survey instrument's hot loop: telescope chunks arrive on a
fixed cadence, each one is dedispersed through the :mod:`repro.run`
facade, matched-filtered by :class:`~repro.search.detect.MatchedFilterDetector`,
and the pooled detections are sifted once at the end of the stream (so a
pulse straddling a chunk boundary dedupes correctly).

By default each chunk runs the facade's **fused** mode
(:mod:`repro.run.fused`): dedispersion and detection interleave over
DM-tile slabs, so the chunk's full DM×time plane never exists in memory
and every chunk record carries the metered ``peak_bytes`` of its working
set.  ``SearchConfig(fused=False)`` restores the staged
dedisperse-everything-then-detect path; both produce bit-identical
candidate lists (the detector's statistics are row-local), which
``benchmarks/bench_fused.py`` and the scenario regression goldens pin.

Real time is modelled the way :mod:`repro.sched` models it — on a
virtual clock, so runs are deterministic and laptop-speed-independent
where it matters:

* chunk ``i`` *arrives* at ``i * chunk_seconds`` (the telescope does not
  wait for us);
* its *service time* is the plan's modelled dedispersion seconds on the
  target device plus the **measured** wall-clock detection/sift seconds
  (detection runs on the host in both the model and this simulator, so
  its real cost is the honest number);
* it meets its *deadline* when it finishes within one cadence
  (``chunk_seconds``) of arriving;
* a bounded queue of capacity ``queue_capacity`` sits in front of the
  single worker.  A chunk arriving while the queue is full is **dropped**
  — that is the backpressure contract: the stream cannot be paused, so
  an over-slow search sheds load instead of falling infinitely behind —
  and every drop is accounted in the report and the
  ``repro_search_chunks_total{outcome="dropped"}`` counter.

The report's verdict reuses the scheduler's graceful-degradation
vocabulary: ``realtime_sustained`` (every chunk met its deadline),
``complete`` (everything processed, some deadlines missed) or
``degraded`` (chunks were dropped).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from repro.astro.rfi import mask_noisy_channels, zero_dm_filter
from repro.astro.source import StreamChunk
from repro.core.plan import DedispersionPlan
from repro.errors import PipelineError
from repro.obs import get_registry, span
from repro.run.peak import MemoryAccount
from repro.search.detect import MatchedFilterDetector
from repro.search.sift import SiftPolicy, SiftResult, sift_candidates
from repro.utils.validation import require_non_negative, require_positive_int


@dataclass(frozen=True)
class SearchConfig:
    """Tunables of one streaming search.

    ``snr_threshold`` parameterises the detector (its boxcar bank is
    :data:`~repro.search.detect.DEFAULT_WIDTHS`); ``sift_policy`` the
    clustering and RFI vetoes; ``rfi_mitigation`` runs channel masking
    and the zero-DM filter on a copy of each chunk before dedispersion
    (requires a grid starting above DM 0: the zero-DM filter nulls the
    DM-0 series).

    ``queue_capacity`` bounds the arrival queue (chunks waiting while
    the worker is busy); a chunk's deadline is one cadence after its
    arrival.
    ``min_service_seconds`` floors the modelled per-chunk service time —
    zero in production; tests and capacity studies raise it to emulate a
    slower device and drive the queue into backpressure
    deterministically.

    ``fused`` selects the fused dedisperse→detect fast path (the
    default): each chunk is searched slab-by-slab without materialising
    its DM×time plane.  ``fused=False`` runs the staged path instead —
    candidates are bit-identical either way; only the peak working set
    (and the ``repro_run_peak_bytes{path=...}`` label) differs.
    """

    snr_threshold: float = 6.0
    sift_policy: SiftPolicy = field(default_factory=SiftPolicy)
    rfi_mitigation: bool = False
    queue_capacity: int = 4
    min_service_seconds: float = 0.0
    fused: bool = True

    def __post_init__(self) -> None:
        require_positive_int(self.queue_capacity, "queue_capacity")
        require_non_negative(self.min_service_seconds, "min_service_seconds")


@dataclass(frozen=True)
class ChunkRecord:
    """Virtual-clock accounting for one arriving chunk."""

    sequence: int
    arrival_s: float
    dropped: bool
    start_s: float = 0.0
    finish_s: float = 0.0
    service_s: float = 0.0
    n_raw: int = 0
    #: Metered high-water working-set bytes of the chunk's
    #: dedisperse→detect pass (0 for dropped chunks).
    peak_bytes: int = 0

    @property
    def lag_s(self) -> float:
        """Turnaround beyond arrival (0 for dropped chunks)."""
        return 0.0 if self.dropped else self.finish_s - self.arrival_s

    def met_deadline(self, deadline_s: float) -> bool:
        """Whether the chunk finished within ``deadline_s`` of arriving."""
        return not self.dropped and self.lag_s <= deadline_s


@dataclass(frozen=True)
class SearchReport:
    """Everything one streaming search run produced."""

    setup_name: str
    n_dms: int
    chunk_seconds: float
    deadline_seconds: float
    records: tuple[ChunkRecord, ...]
    result: SiftResult
    backend: str
    #: Sequence numbers that never arrived (holes in the delivered
    #: sequence range — an upstream link lost them before the queue).
    missing_sequences: tuple[int, ...] = ()
    #: Sequence numbers delivered more than once (retransmits).
    duplicate_sequences: tuple[int, ...] = ()

    @property
    def chunks_processed(self) -> int:
        return sum(1 for r in self.records if not r.dropped)

    @property
    def chunks_dropped(self) -> int:
        return sum(1 for r in self.records if r.dropped)

    @property
    def dropped_sequences(self) -> tuple[int, ...]:
        """Sequences shed by queue backpressure, arrival order."""
        return tuple(r.sequence for r in self.records if r.dropped)

    @property
    def candidates(self) -> tuple:
        """Accepted clusters, strongest first."""
        return self.result.accepted

    @property
    def best(self):
        """The strongest accepted cluster, or ``None``."""
        return self.result.accepted[0] if self.result.accepted else None

    @property
    def peak_bytes(self) -> int:
        """Largest metered per-chunk working set of the run."""
        return max((r.peak_bytes for r in self.records), default=0)

    @property
    def makespan_s(self) -> float:
        """Virtual time the search was done with the stream.

        Covers *every* chunk's disposition: a processed chunk is done
        when its service finishes, a dropped chunk when backpressure
        sheds it at arrival.  (A stream whose final chunks are all shed
        therefore ends at their arrival time, not at the last processed
        chunk's finish — the earlier spelling ignored drops and
        underreported exactly that case.)
        """
        return max(
            (r.arrival_s if r.dropped else r.finish_s for r in self.records),
            default=0.0,
        )

    @property
    def degraded(self) -> bool:
        """Whether backpressure dropped any chunk."""
        return self.chunks_dropped > 0

    @property
    def realtime_sustained(self) -> bool:
        """At least one chunk processed, no drops, every deadline met.

        Explicitly ``False`` for an empty record set — ``all()`` of
        nothing is vacuously true, and an early spelling let a report
        with no chunks at all claim real-time performance.
        """
        return (
            bool(self.records)
            and not self.degraded
            and all(
                r.met_deadline(self.deadline_seconds) for r in self.records
            )
        )

    @property
    def verdict(self) -> str:
        """``realtime_sustained`` | ``complete`` | ``degraded`` | ``empty``.

        ``empty`` is the no-chunks verdict: a report built over zero
        records proves nothing about real-time behaviour, so it gets its
        own verdict instead of vacuously claiming
        ``realtime_sustained``.  (:meth:`StreamingSearch.run` raises on
        an empty stream; the verdict matters for reports assembled or
        replayed elsewhere.)
        """
        if not self.records:
            return "empty"
        if self.degraded:
            return "degraded"
        if self.realtime_sustained:
            return "realtime_sustained"
        return "complete"

    def verdict_payload(self) -> dict:
        """Per-chunk drop accounting, machine-readable.

        The aggregated counts were always in the report; this payload
        breaks them down so consumers (the scenario regression harness,
        notably) can assert on *which* chunks were shed by backpressure,
        which sequences never arrived, and which were delivered twice.
        Everything here is deterministic — no wall-clock fields.
        """
        return {
            "verdict": self.verdict,
            "chunks_processed": self.chunks_processed,
            "chunks_dropped": self.chunks_dropped,
            "dropped_sequences": [int(s) for s in self.dropped_sequences],
            "missing_sequences": [int(s) for s in self.missing_sequences],
            "duplicate_sequences": [
                int(s) for s in self.duplicate_sequences
            ],
            "per_chunk": [
                {
                    "sequence": int(r.sequence),
                    "dropped": r.dropped,
                    "n_raw": int(r.n_raw),
                }
                for r in self.records
            ],
        }

    def summary(self) -> str:
        """Multi-line, human-readable report."""
        lines = [
            f"search: {self.setup_name}, {self.n_dms} trial DMs, "
            f"{len(self.records)} chunks ({self.backend} backend) — "
            f"{self.verdict}",
            f"  processed {self.chunks_processed}, dropped "
            f"{self.chunks_dropped}, makespan {self.makespan_s:.3f}s "
            f"(cadence {self.chunk_seconds:.3f}s/chunk)",
            f"  candidates: {len(self.result.accepted)} accepted, "
            f"{len(self.result.vetoed)} vetoed "
            f"({self.result.n_raw} raw detections)",
        ]
        if self.missing_sequences or self.duplicate_sequences:
            lines.append(
                f"  stream faults: missing sequences "
                f"{list(self.missing_sequences)}, duplicated "
                f"{list(self.duplicate_sequences)}"
            )
        for cluster in self.result.accepted[:5]:
            best = cluster.best
            lines.append(
                f"    DM {best.dm:.2f} (trial {best.dm_index}) "
                f"S/N {best.snr:.1f} width {best.width} "
                f"t={best.time_sample} ({cluster.n_members} members)"
            )
        for vetoed in self.result.vetoed[:3]:
            best = vetoed.cluster.best
            lines.append(
                f"    vetoed[{vetoed.reason}] DM {best.dm:.2f} "
                f"S/N {best.snr:.1f}"
            )
        return "\n".join(lines)


class StreamingSearch:
    """Chains facade-executed dedispersion into detection and sifting.

    ``plan`` is the tuned :class:`~repro.core.plan.DedispersionPlan` of
    the survey; ``backend`` pins the kernel executor for every chunk
    (default: the plan's auto-selection).  Dedispersion is reached only
    through :func:`repro.run.execute` — this module never touches the
    executors directly.
    """

    def __init__(
        self,
        plan: DedispersionPlan,
        config: SearchConfig | None = None,
        backend: str | None = None,
    ):
        self.plan = plan
        self.config = config or SearchConfig()
        self.backend = backend
        self.detector = MatchedFilterDetector(
            snr_threshold=self.config.snr_threshold
        )
        self.chunk_seconds = plan.samples / plan.setup.samples_per_second
        grid = plan.grid
        if (
            self.config.rfi_mitigation
            and grid.first == 0.0
            and not grid.is_degenerate
        ):
            # The zero-DM filter nulls the DM-0 series, so searching it
            # would amplify float residue.
            raise PipelineError(
                "RFI mitigation uses the zero-DM filter: start the trial "
                "grid above DM 0 (e.g. first=grid.step)"
            )

    # ------------------------------------------------------------------
    def run(self, chunks) -> SearchReport:
        """Drive the stream to exhaustion; returns the :class:`SearchReport`."""
        from repro.run import ExecutionRequest, execute

        registry = get_registry()
        labels = {"setup": self.plan.setup.name}
        records: list[ChunkRecord] = []
        raw: list = []
        busy_until = 0.0
        finish_times: list[float] = []
        resolved_backend = "auto"
        seen_sequences: dict[int, int] = {}

        with span("search.run", **labels) as run_span:
            for index, chunk in enumerate(chunks):
                arrival = index * self.chunk_seconds
                seen_sequences[chunk.sequence] = (
                    seen_sequences.get(chunk.sequence, 0) + 1
                )
                # Bounded queue: chunks admitted but unfinished at this
                # arrival are queued or in service; one of them occupies
                # the worker, the rest the queue.  Finish times never
                # decrease (each start is max(arrival, busy_until) and
                # service is non-negative), so the unfinished ones are a
                # suffix of the list.
                pending = len(finish_times) - bisect_right(
                    finish_times, arrival
                )
                if max(0, pending - 1) >= self.config.queue_capacity:
                    records.append(
                        ChunkRecord(
                            sequence=chunk.sequence,
                            arrival_s=arrival,
                            dropped=True,
                        )
                    )
                    registry.counter(
                        "repro_search_chunks_total",
                        outcome="dropped",
                        **labels,
                    ).inc()
                    continue

                with span(
                    "search.chunk", sequence=chunk.sequence, **labels
                ):
                    prepared = self._prepare(chunk)
                    if self.config.fused:
                        result = execute(
                            ExecutionRequest(
                                plan=self.plan,
                                chunks=(prepared,),
                                backend=self.backend,
                                detector=self.detector,
                            )
                        )
                        resolved_backend = result.backend
                        fused_chunk = result.chunk_results[0]
                        dedisp_seconds = fused_chunk.simulated_seconds
                        detect_seconds = fused_chunk.detect_seconds
                        found = list(fused_chunk.candidates)
                        peak_bytes = fused_chunk.peak_bytes
                    else:
                        result = execute(
                            ExecutionRequest(
                                plan=self.plan,
                                chunks=(prepared,),
                                backend=self.backend,
                            )
                        )
                        resolved_backend = result.backend
                        dedisp_seconds = result.chunk_results[
                            0
                        ].simulated_seconds
                        account = MemoryAccount()
                        account.charge(result.output.nbytes)
                        detect_start = time.perf_counter()
                        with span(
                            "search.detect",
                            sequence=chunk.sequence,
                            **labels,
                        ):
                            found = self.detector.detect(
                                result.output,
                                self.plan.grid.values,
                                time_offset=chunk.sequence
                                * self.plan.samples,
                                beam=chunk.beam_index,
                                account=account,
                            )
                        detect_seconds = time.perf_counter() - detect_start
                        peak_bytes = account.peak_bytes
                        registry.histogram(
                            "repro_run_peak_bytes", path="staged"
                        ).observe(float(peak_bytes))
                    raw.extend(found)

                service = max(
                    dedisp_seconds + detect_seconds,
                    self.config.min_service_seconds,
                )
                start = max(arrival, busy_until)
                busy_until = start + service
                finish_times.append(busy_until)
                record = ChunkRecord(
                    sequence=chunk.sequence,
                    arrival_s=arrival,
                    dropped=False,
                    start_s=start,
                    finish_s=busy_until,
                    service_s=service,
                    n_raw=len(found),
                    peak_bytes=peak_bytes,
                )
                records.append(record)
                registry.counter(
                    "repro_search_chunks_total", outcome="processed", **labels
                ).inc()
                registry.histogram(
                    "repro_search_detect_seconds", **labels
                ).observe(detect_seconds)
                registry.histogram(
                    "repro_search_lag_seconds", **labels
                ).observe(record.lag_s)
                if service > 0.0:
                    registry.gauge(
                        "repro_search_realtime_margin", **labels
                    ).set(self.chunk_seconds / service)

            if not records:
                raise PipelineError("search stream carried no chunks")

            # Input-stream fault accounting: a hole in the delivered
            # sequence range means an upstream link lost that chunk
            # before it ever reached the queue (distinct from the
            # backpressure drops recorded above); a sequence delivered
            # more than once is a retransmit.
            missing = tuple(
                s
                for s in range(min(seen_sequences), max(seen_sequences) + 1)
                if s not in seen_sequences
            )
            duplicates = tuple(
                s for s in sorted(seen_sequences)
                if seen_sequences[s] > 1
            )
            if missing:
                registry.counter(
                    "repro_search_chunks_total", outcome="missing", **labels
                ).inc(len(missing))
            if duplicates:
                registry.counter(
                    "repro_search_chunks_total",
                    outcome="duplicate",
                    **labels,
                ).inc(len(duplicates))

            with span("search.sift", **labels):
                sifted = sift_candidates(
                    raw, self.plan.grid.values, self.config.sift_policy
                )
            registry.counter(
                "repro_search_candidates_total", stage="raw", **labels
            ).inc(len(raw))
            registry.counter(
                "repro_search_candidates_total", stage="accepted", **labels
            ).inc(len(sifted.accepted))
            registry.counter(
                "repro_search_candidates_total", stage="vetoed", **labels
            ).inc(len(sifted.vetoed))
            report = SearchReport(
                setup_name=self.plan.setup.name,
                n_dms=self.plan.grid.n_dms,
                chunk_seconds=self.chunk_seconds,
                deadline_seconds=self.chunk_seconds,
                records=tuple(records),
                result=sifted,
                backend=resolved_backend,
                missing_sequences=missing,
                duplicate_sequences=duplicates,
            )
            run_span.attributes["verdict"] = report.verdict
            run_span.attributes["dropped"] = report.chunks_dropped
            run_span.attributes["missing"] = len(missing)
            run_span.attributes["duplicates"] = len(duplicates)
        return report

    # ------------------------------------------------------------------
    def _prepare(self, chunk: StreamChunk) -> StreamChunk:
        """RFI-mitigate a copy of the chunk (stream chunks share storage)."""
        if not self.config.rfi_mitigation:
            return chunk
        data = np.array(chunk.data, dtype=np.float32, copy=True)
        with span("search.rfi", sequence=chunk.sequence):
            mask_noisy_channels(data)
            zero_dm_filter(data)
        return replace(chunk, data=data)


def search_stream(
    plan: DedispersionPlan,
    chunks,
    config: SearchConfig | None = None,
    backend: str | None = None,
) -> SearchReport:
    """Convenience: build a :class:`StreamingSearch` and run it."""
    return StreamingSearch(plan, config=config, backend=backend).run(chunks)
