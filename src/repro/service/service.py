"""The concurrent tuning service.

:class:`TuningService` is a long-lived, thread-safe front to
:class:`~repro.core.tuner.AutoTuner` for deployments where many clients
request tuned configurations for overlapping problem instances.  The
request path, in order:

1. **Memory tier** — an LRU of complete sweeps; hits cost microseconds.
2. **Disk tier** — persisted JSON sweeps (optional); a hit re-simulates,
   verifies, and promotes the sweep into memory.  In a
   :class:`~repro.service.TuningFleet` the directory is shared, so this
   tier is also the cross-replica warm-sharing channel.
3. **In-flight deduplication** — N concurrent requests for the same
   instance share one sweep; followers just wait on the leader's future.
4. **Admission control** — sweeps run on a bounded worker pool behind a
   bounded queue.  A request that cannot even queue degrades immediately.
5. **Warm start** — a sweep seeded by the nearest cached neighbour (same
   device/setup/model, different DM count) prunes most of the space, with
   a probe guard that falls back to the exhaustive sweep when refuted.
6. **Degradation** — when the tuning budget is exhausted (timeout or
   admission rejection) the caller gets a deterministic budgeted
   heuristic answer (:func:`repro.core.heuristics.budgeted_tune`),
   flagged ``degraded`` and never cached; the authoritative sweep, if one
   is running, still completes in the background and lands in the cache.

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
from repro.core.heuristics import budgeted_tune
from repro.core.tuner import AutoTuner
from repro.errors import PipelineError
from repro.hardware.device import DeviceSpec
from repro.obs import MetricsRegistry, span
from repro.service.cache import DiskSweepStore, SweepLRUCache
from repro.service.keys import InstanceKey
from repro.service.request import ServiceResponse, TuneRequest, TuneResponse
from repro.service.stats import ServiceStats, StatsSnapshot
from repro.service.warmstart import warm_start_tune

__all__ = ["ServiceResponse", "TuningService"]

#: Factory signature the service uses to build tuners (injectable so
#: tests can count or stall sweeps without monkey-patching).
TunerFactory = Callable[[DeviceSpec, ObservationSetup, dict], AutoTuner]

class TuningService:
    """Thread-safe tuning frontend with caching, dedup, and degradation.

    Parameters
    ----------
    capacity:
        Memory-tier LRU capacity (complete sweeps).
    store_dir:
        Directory for the persistent tier; ``None`` disables it.  Fleet
        replicas share one directory — that is the warm-sharing channel.
    max_workers:
        Worker threads executing sweeps.
    queue_limit:
        Sweeps allowed to wait beyond the running ones; a request that
        finds pool *and* queue full degrades immediately.
    timeout_s:
        Default per-request budget to wait for a sweep before degrading;
        ``None`` waits indefinitely.  A request's ``budget`` field
        overrides it per call.
    degraded_budget:
        Model evaluations granted to the heuristic fallback, before the
        request's priority scaling.
    warm_start:
        Seed sweeps from the nearest cached neighbouring instance.
    warm_radius / warm_top_k / warm_probes:
        Pruning and guard knobs forwarded to
        :func:`repro.service.warmstart.warm_start_tune`.
    strategy:
        A :class:`~repro.tune.SearchStrategy` (or its registry name,
        e.g. ``"model-guided"``) used for cold sweeps instead of the
        exhaustive tuner; ``None`` keeps the paper's full sweep.
        Warm-started sweeps are unaffected (they already prune the
        space), and a request's own ``strategy`` field overrides this
        default.
    degraded_strategy:
        Strategy used by the degradation path instead of
        :func:`repro.core.heuristics.budgeted_tune`; ``None`` keeps the
        budgeted heuristic.
    space_kwargs:
        Extra :class:`~repro.core.space.TuningSpace` arguments forwarded
        to every tuner.
    tuner_factory:
        Callable ``(device, setup, space_kwargs) -> AutoTuner``;
        injectable for testing.
    registry:
        The :class:`~repro.obs.MetricsRegistry` service metrics are
        recorded into (default: the process-wide registry).
    name:
        The ``instance`` label on this service's metric series; the
        fleet names its replicas ``replica0..N-1`` through this.
        Auto-assigned (``svc0``, ``svc1``, ...) when omitted.
    """

    def __init__(
        self,
        capacity: int = 128,
        store_dir=None,
        max_workers: int = 2,
        queue_limit: int = 8,
        timeout_s: float | None = None,
        degraded_budget: int = 48,
        warm_start: bool = True,
        warm_radius: int = 2,
        warm_top_k: int = 8,
        warm_probes: int = 8,
        strategy=None,
        degraded_strategy=None,
        space_kwargs: dict | None = None,
        tuner_factory: TunerFactory | None = None,
        registry: MetricsRegistry | None = None,
        name: str | None = None,
    ):
        if max_workers < 1:
            raise PipelineError("max_workers must be >= 1")
        if queue_limit < 0:
            raise PipelineError("queue_limit must be >= 0")
        self.timeout_s = timeout_s
        self.degraded_budget = degraded_budget
        self.strategy = self._resolve_strategy(strategy)
        self.degraded_strategy = self._resolve_strategy(degraded_strategy)
        self.warm_start = warm_start
        self.warm_radius = warm_radius
        self.warm_top_k = warm_top_k
        self.warm_probes = warm_probes
        self.space_kwargs = dict(space_kwargs or {})
        self._tuner_factory = tuner_factory or (
            lambda device, setup, kwargs: AutoTuner(device, setup, kwargs)
        )
        self.name = name
        self.cache = SweepLRUCache(capacity)
        self.store = DiskSweepStore(store_dir) if store_dir else None
        self.stats = ServiceStats(registry=registry, instance=name)
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

        The one blessed request entrypoint: walks memory → disk →
        deduplicated (possibly warm-started or strategy-driven) sweep →
        heuristic degradation, honouring the request's ``budget`` and
        ``priority`` and stamping the response with this service's name
        and the request's tenant.
        """
        if self._closed:
            raise PipelineError("TuningService is closed")
        device = request.resolved_device()
        setup = request.resolved_setup()
        grid = request.resolved_grid()
        budget = self._budget_seconds(request.budget)
        key = InstanceKey.for_instance(device, setup, grid)
        self.stats.incr("requests")
        started = time.perf_counter()

        cached = self.cache.get(key)
        if cached is not None:
            self.stats.incr("hits_memory")
            return self._respond(request, key, cached, "memory", started)

        if self.store is not None:
            present = key in self.store
            loaded = self.store.load(key) if present else None
            if loaded is not None:
                self.cache.put(key, loaded)
                self.stats.incr("hits_disk")
                return self._respond(request, key, loaded, "disk", started)
            if present:
                self.stats.incr("invalidations")

        verdict, future = self._join_or_lead(key, device, setup, grid, request)
        if verdict == "cached":
            # The sweep we raced with completed between the cache check
            # and the in-flight check; its result is already cached.
            self.stats.incr("hits_memory")
            return self._respond(
                request, key, self.cache.get(key), "memory", started
            )
        self.stats.incr("misses")
        if verdict == "rejected":  # admission control: pool and queue full
            self.stats.incr("degraded_admission")
            return self._degrade(request, key, "admission", started)
        try:
            result, source = future.result(timeout=budget)
        except FutureTimeoutError:
            self.stats.incr("degraded_timeout")
            return self._degrade(request, key, "timeout", started)
        return self._respond(request, key, result, source, started)

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

    def predict_seconds(
        self,
        device: DeviceSpec,
        setup: ObservationSetup,
        grid: DMTrialGrid | int,
        samples: int | None = None,
    ) -> float:
        """Modelled seconds to dedisperse one batch with the tuned config.

        Resolves the tuned configuration through the normal request path
        (so it benefits from every cache tier), then runs it through the
        performance model for ``samples`` output samples (default: the
        setup's batch).  The :mod:`repro.sched` workers' service-time
        estimates are the per-shard analogue of this call.
        """
        from repro.hardware.model import PerformanceModel  # local: avoid cycle

        if isinstance(grid, int):
            grid = DMTrialGrid(n_dms=grid)
        response = self.resolve(
            TuneRequest(setup=setup, n_dms=grid, device=device)
        )
        model = PerformanceModel(device, setup, grid)
        return model.simulate(
            response.best.config, samples=samples, validate=False
        ).seconds

    def degrade(
        self, request: TuneRequest, reason: str = "admission"
    ) -> TuneResponse:
        """A heuristic answer without touching the sweep path.

        The fleet's per-tenant admission layer calls this when a tenant
        is out of tokens: the request is answered on the caller's thread
        by the budgeted heuristic (or the configured degraded strategy),
        counted against this replica's ``degraded_admission`` stats, and
        never cached — exactly the service's own over-capacity path, so
        a throttled tenant and an overloaded pool look identical
        downstream.
        """
        if self._closed:
            raise PipelineError("TuningService is closed")
        if reason not in ("admission", "timeout"):
            raise PipelineError(
                f"unknown degradation reason {reason!r} "
                "(expected 'admission' or 'timeout')"
            )
        started = time.perf_counter()
        self.stats.incr("requests")
        self.stats.incr(f"degraded_{reason}")
        key = request.key()
        return self._degrade(request, key, reason, started)

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
    @staticmethod
    def _resolve_strategy(spec):
        """``None`` | strategy name | strategy instance -> instance/None."""
        if spec is None:
            return None
        from repro.tune import build_strategy  # local: keep import light

        return build_strategy(spec)

    def _budget_seconds(self, budget: float | None) -> float | None:
        """Request budget -> ``Future.result`` timeout semantics."""
        if budget is None:
            return self.timeout_s
        if math.isinf(budget):
            return None
        return budget

    def _respond(
        self,
        request: TuneRequest,
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
            tenant=request.tenant,
            replica=self.name,
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
            strategy = (
                self._resolve_strategy(request.strategy) or self.strategy
            )
            try:
                future = self._pool.submit(
                    self._tune_job, key, device, setup, grid, strategy
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
                tuner = self._tuner_factory(device, setup, self.space_kwargs)
                seed = (
                    self.cache.nearest_neighbor(key)
                    if self.warm_start else None
                )
                if seed is not None:
                    report = warm_start_tune(
                        tuner,
                        grid,
                        seed[1],
                        radius=self.warm_radius,
                        top_k=self.warm_top_k,
                        probes=self.warm_probes,
                    )
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

        Runs on the *caller's* thread (it must not need pool capacity —
        the pool being full is exactly why we are here) and is never
        cached: if an authoritative sweep is still in flight it will
        populate the cache when it completes.  With a
        ``degraded_strategy`` configured the fallback is that strategy's
        search instead of the budgeted heuristic; either way the model
        evaluations actually spent are surfaced in
        ``ServiceStats.degraded_evaluations``, and the request's
        priority scales the evaluation budget granted.
        """
        device = request.resolved_device()
        setup = request.resolved_setup()
        grid = request.resolved_grid()
        if self.degraded_strategy is not None:
            tuner = self._tuner_factory(device, setup, self.space_kwargs)
            search = self.degraded_strategy.search(tuner, grid)
            result, evaluated = search.result, search.measurements
        else:
            outcome = budgeted_tune(
                device, setup, grid,
                budget=request.degraded_budget(self.degraded_budget),
            )
            result, evaluated = outcome.result, outcome.evaluations
        self.stats.incr("degraded_evaluations", by=evaluated)
        return self._respond(
            request,
            key,
            result,
            f"degraded-{reason}",
            started,
            degraded=True,
        )
