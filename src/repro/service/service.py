"""The concurrent tuning service.

:class:`TuningService` is a long-lived, thread-safe front to
:class:`~repro.core.tuner.AutoTuner` for deployments where many clients
request tuned configurations for overlapping problem instances.  The
request path, in order:

1. **Memory tier** — an LRU of complete sweeps; hits cost microseconds.
2. **Disk tier** — persisted JSON sweeps (optional); a hit re-simulates,
   verifies, and promotes the sweep into memory.  A restarted service
   on the same directory answers from here without re-sweeping.
3. **In-flight deduplication** — N concurrent requests for the same
   instance share one sweep; followers just wait on the leader's
   future.
4. **Pool admission** — sweeps run on a bounded worker pool behind a
   bounded queue.  A request that cannot even queue degrades immediately.
5. **Warm start** — a sweep seeded by the nearest cached neighbour (same
   device/setup/model, different DM count) prunes most of the space, with
   a probe guard that falls back to the exhaustive sweep when refuted.
6. **Degradation** — when the tuning budget is exhausted (timeout or
   full pool) the caller gets a deterministic budgeted heuristic answer
   (:func:`repro.tune.budgeted_tune`), flagged ``degraded`` and never
   cached; the authoritative sweep, if one is running, still completes
   in the background and lands in the cache.

The request surface is :meth:`TuningService.resolve`, taking a
:class:`~repro.service.TuneRequest`.  Every step is metered through
:class:`~repro.service.stats.ServiceStats`, which since the
:mod:`repro.obs` consolidation is a view over ``repro_service_*`` series
of the process-wide metrics registry — so the same counters surface in
``repro obs export``.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.tuner import AutoTuner
from repro.errors import PipelineError
from repro.hardware.device import DeviceSpec
from repro.obs import MetricsRegistry, span
from repro.service.cache import DiskSweepStore, SweepLRUCache
from repro.service.keys import InstanceKey
from repro.service.request import TuneRequest, TuneResponse
from repro.service.stats import ServiceStats, StatsSnapshot
from repro.service.warmstart import warm_start_tune
from repro.tune import budgeted_tune

__all__ = ["TuningService"]

#: Factory signature the service uses to build tuners (injectable so
#: tests can count or stall sweeps without monkey-patching).
TunerFactory = Callable[[DeviceSpec, ObservationSetup], AutoTuner]

#: Memory-tier LRU capacity, in complete sweeps.
CACHE_CAPACITY = 128

#: Model evaluations granted to the degradation path,
#: :func:`repro.tune.budgeted_tune`.
DEGRADED_BUDGET = 48


def _wait_seconds(timeout_s) -> float | None:
    """``timeout_s`` as a ``Future.result`` timeout (``None``: no limit).

    ``None`` and ``math.inf`` wait indefinitely; anything else must be
    a finite number of seconds >= 0.  NaN compares false against every
    deadline, so it would degrade every request silently.
    """
    if timeout_s is None:
        return None
    if (
        isinstance(timeout_s, bool)
        or not isinstance(timeout_s, (int, float))
        or math.isnan(timeout_s)
        or timeout_s < 0
    ):
        raise PipelineError(
            "timeout_s must be >= 0 seconds, math.inf, or None "
            f"(got {timeout_s!r})"
        )
    return None if math.isinf(timeout_s) else float(timeout_s)


class TuningService:
    """Thread-safe tuning frontend with caching, dedup, and degradation.

    A cold sweep runs the request's own ``strategy``
    (:class:`~repro.tune.SearchStrategy`) when it names one, else the
    paper's exhaustive sweep; warm-started sweeps ignore it, since they
    already prune the space.

    Parameters
    ----------
    store_dir:
        Directory for the persistent tier; ``None`` disables it.
    max_workers:
        Worker threads executing sweeps.
    queue_limit:
        Sweeps allowed to wait beyond the running ones; a request that
        finds pool *and* queue full degrades immediately.
    timeout_s:
        Seconds a request waits for a sweep before degrading; ``None``
        or ``math.inf`` waits indefinitely.  Anything but a number
        >= 0 raises :class:`~repro.errors.PipelineError`.
    warm_start:
        Seed sweeps from the nearest cached neighbouring instance
        (:func:`repro.service.warmstart.warm_start_tune`).
    tuner_factory:
        Callable ``(device, setup) -> AutoTuner``; injectable for
        testing.
    registry:
        The :class:`~repro.obs.MetricsRegistry` service metrics are
        recorded into (default: the process-wide registry), under an
        auto-assigned ``instance`` label (``svc0``, ``svc1``, ...).
    """

    def __init__(
        self,
        store_dir=None,
        max_workers: int = 2,
        queue_limit: int = 8,
        timeout_s: float | None = None,
        warm_start: bool = True,
        tuner_factory: TunerFactory | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if max_workers < 1:
            raise PipelineError("max_workers must be >= 1")
        if queue_limit < 0:
            raise PipelineError("queue_limit must be >= 0")
        self._wait_s = _wait_seconds(timeout_s)
        self.warm_start = warm_start
        self._tuner_factory = tuner_factory or AutoTuner
        self.cache = SweepLRUCache(CACHE_CAPACITY)
        self.store = DiskSweepStore(store_dir) if store_dir else None
        self.stats = ServiceStats(registry=registry)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-tune"
        )
        self._admission = threading.BoundedSemaphore(max_workers + queue_limit)
        self._inflight: dict[InstanceKey, Future] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def resolve(self, request: TuneRequest) -> TuneResponse:
        """The tuned sweep for ``request``, produced as cheaply as possible.

        The one request entrypoint: walks memory → disk → deduplicated
        (possibly warm-started or strategy-driven) sweep → heuristic
        degradation once ``timeout_s`` has passed or the pool is full.
        """
        if self._closed:
            raise PipelineError("TuningService is closed")
        device = request.resolved_device()
        setup = request.resolved_setup()
        grid = request.resolved_grid()
        key = InstanceKey.for_instance(device, setup, grid)
        self.stats.incr("requests")
        started = time.perf_counter()

        cached = self.cache.get(key)
        if cached is not None:
            self.stats.incr("hits_memory")
            return self._respond(key, cached, "memory", started)

        if self.store is not None:
            present = key in self.store
            loaded = self.store.load(key) if present else None
            if loaded is not None:
                self.cache.put(key, loaded)
                self.stats.incr("hits_disk")
                return self._respond(key, loaded, "disk", started)
            if present:
                self.stats.incr("invalidations")

        verdict, future = self._join_or_lead(key, device, setup, grid, request)
        if verdict == "cached":
            # The sweep we raced with completed between the cache check
            # and the in-flight check; its result is already cached.
            self.stats.incr("hits_memory")
            return self._respond(key, self.cache.get(key), "memory", started)
        self.stats.incr("misses")
        if verdict == "rejected":  # admission control: pool and queue full
            self.stats.incr("degraded_admission")
            return self._degrade(request, key, "admission", started)
        try:
            result, source = future.result(timeout=self._wait_s)
        except FutureTimeoutError:
            self.stats.incr("degraded_timeout")
            return self._degrade(request, key, "timeout", started)
        return self._respond(key, result, source, started)

    def warm_up(
        self,
        device: DeviceSpec,
        setup: ObservationSetup,
        instances,
    ) -> list[TuneResponse]:
        """Pre-tune a series of instances (smallest first, so each sweep
        can warm-start from the previous one)."""
        return [
            self.resolve(TuneRequest(setup=setup, n_dms=n, device=device))
            for n in sorted(instances, key=lambda g: (
                g.n_dms if isinstance(g, DMTrialGrid) else g
            ))
        ]

    def snapshot(self) -> StatsSnapshot:
        """Current service counters."""
        return self.stats.snapshot()

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and (optionally) drain the pool."""
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "TuningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _respond(
        self,
        key: InstanceKey,
        result,
        source: str,
        started: float,
        degraded: bool = False,
    ) -> TuneResponse:
        elapsed = time.perf_counter() - started
        self.stats.record_latency(elapsed)
        return TuneResponse(
            key=key,
            result=result,
            source=source,
            elapsed_s=elapsed,
            degraded=degraded,
        )

    def _join_or_lead(
        self,
        key: InstanceKey,
        device: DeviceSpec,
        setup: ObservationSetup,
        grid: DMTrialGrid,
        request: TuneRequest,
    ) -> tuple[str, Future | None]:
        """Join the in-flight sweep for ``key`` or start one.

        Returns ``(verdict, future)`` where verdict is ``"join"`` (an
        in-flight sweep exists), ``"lead"`` (a new sweep was submitted),
        ``"cached"`` (a racing sweep finished between the caller's cache
        check and here — the cache now holds the result), or
        ``"rejected"`` (admission control refused: pool and queue full).

        The cache re-check under the in-flight lock is what makes
        "exactly one sweep per instance" airtight: a completing job
        caches its result *before* removing its in-flight entry, so any
        request that finds no in-flight entry here either finds the
        cached result or is genuinely first.
        """
        with self._inflight_lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.stats.incr("dedups")
                return "join", existing
            if self.cache.get(key) is not None:
                return "cached", None
            if not self._admission.acquire(blocking=False):
                return "rejected", None
            try:
                future = self._pool.submit(
                    self._tune_job, key, device, setup, grid, request.strategy
                )
            except BaseException:
                self._admission.release()
                raise
            self._inflight[key] = future
            return "lead", future

    def _tune_job(
        self,
        key: InstanceKey,
        device: DeviceSpec,
        setup: ObservationSetup,
        grid: DMTrialGrid,
        strategy,
    ):
        """Worker-side sweep: warm-started when a neighbour is cached."""
        try:
            with span(
                "service.sweep", device=device.name, n_dms=grid.n_dms
            ) as job_span:
                tuner = self._tuner_factory(device, setup)
                seed = (
                    self.cache.nearest_neighbor(key)
                    if self.warm_start else None
                )
                if seed is not None:
                    report = warm_start_tune(tuner, grid, seed[1])
                    self.stats.incr("warm_starts")
                    if report.fell_back:
                        self.stats.incr("warm_fallbacks")
                    result = report.result
                    source = "warm-fallback" if report.fell_back else "warm"
                elif strategy is not None:
                    outcome = strategy.search(tuner, grid)
                    result = outcome.result
                    source = f"strategy-{strategy.name}"
                    self.stats.incr("strategy_searches")
                else:
                    result = tuner.tune(grid)
                    source = "sweep"
                job_span.attributes["source"] = source
                self.stats.incr("sweeps")
                self.cache.put(key, result)
                if self.store is not None:
                    self.store.save(key, result)
                return result, source
        finally:
            # Order matters: the result is cached before the in-flight
            # entry disappears, so late arrivals either join the future
            # or hit the cache — never re-sweep.
            with self._inflight_lock:
                self._inflight.pop(key, None)
            self._admission.release()

    def _degrade(
        self,
        request: TuneRequest,
        key: InstanceKey,
        reason: str,
        started: float,
    ) -> TuneResponse:
        """Heuristic answer when the tuning budget is exhausted.

        Runs :func:`~repro.tune.budgeted_tune` on the *caller's* thread
        (it must not need pool capacity — a full pool is one reason we
        are here) and is never cached: if an authoritative sweep is still
        in flight it will populate the cache when it completes.  The
        model evaluations actually spent are surfaced in
        ``ServiceStats.degraded_evaluations``.
        """
        outcome = budgeted_tune(
            request.resolved_device(),
            request.resolved_setup(),
            request.resolved_grid(),
            budget=DEGRADED_BUDGET,
        )
        self.stats.incr("degraded_evaluations", by=outcome.measurements)
        return self._respond(
            key, outcome.result, f"degraded-{reason}", started, degraded=True
        )
