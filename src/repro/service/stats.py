"""Observability surface of the tuning service.

Every externally visible event of :class:`repro.service.TuningService` —
cache hits per tier, misses, deduplicated waits, sweeps actually
executed, strategy searches, degradations — increments a counter here,
and every completed request records its latency.  The snapshot is
immutable, so callers can diff two snapshots to meter an interval.

:class:`ServiceStats` is a *view* over registry-backed metrics rather
than a private counter dict: each instance owns one
``instance``-labelled slice of the process-wide
:class:`~repro.obs.MetricsRegistry` (``repro_service_*`` series), so the
same numbers that back :meth:`ServiceStats.snapshot` are visible to
every exporter (``repro obs export``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry, get_registry

#: Counter name -> (registry metric family, fixed labels).
_COUNTER_METRICS: dict[str, tuple[str, dict[str, str]]] = {
    "hits_memory": ("repro_service_cache_hits_total", {"tier": "memory"}),
    "hits_disk": ("repro_service_cache_hits_total", {"tier": "disk"}),
    "misses": ("repro_service_cache_misses_total", {}),
    "dedups": ("repro_service_dedup_waits_total", {}),
    "sweeps": ("repro_service_sweeps_total", {}),
    "degraded_timeout": ("repro_service_degraded_total", {"reason": "timeout"}),
    "degraded_admission": (
        "repro_service_degraded_total",
        {"reason": "admission"},
    ),
    "degraded_evaluations": (
        "repro_service_degraded_evaluations_total",
        {},
    ),
    "strategy_searches": ("repro_service_strategy_searches_total", {}),
    "invalidations": ("repro_service_invalidations_total", {}),
    "requests": ("repro_service_requests_total", {}),
}

#: Registry histogram holding per-request wall-clock latencies.
LATENCY_METRIC = "repro_service_request_latency_seconds"

#: Bound on the latency reservoir: percentiles cover the most recent
#: ``LATENCY_WINDOW`` requests and memory never grows past it, however
#: long the service runs (the histogram's ``count``/``sum`` totals stay
#: lifetime-accurate).
LATENCY_WINDOW = 2048

#: Distinguishes concurrently created ServiceStats slices in one process.
_instance_ids = itertools.count()


@dataclass(frozen=True)
class StatsSnapshot:
    """A consistent point-in-time copy of the service counters."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    dedups: int = 0
    sweeps: int = 0
    degraded_timeout: int = 0
    degraded_admission: int = 0
    degraded_evaluations: int = 0
    strategy_searches: int = 0
    invalidations: int = 0
    requests: int = 0
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0

    @property
    def hits(self) -> int:
        """Requests answered from either cache tier."""
        return self.hits_memory + self.hits_disk

    @property
    def degradations(self) -> int:
        """Requests answered heuristically instead of from a sweep."""
        return self.degraded_timeout + self.degraded_admission

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered from cache (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def render(self) -> str:
        """Multi-line human-readable counter table."""
        rows = [
            ("requests", self.requests),
            ("cache hits (memory)", self.hits_memory),
            ("cache hits (disk)", self.hits_disk),
            ("misses", self.misses),
            ("deduplicated waits", self.dedups),
            ("sweeps executed", self.sweeps),
            ("degraded (timeout)", self.degraded_timeout),
            ("degraded (admission)", self.degraded_admission),
            ("degraded model evaluations", self.degraded_evaluations),
            ("strategy searches", self.strategy_searches),
            ("stale entries invalidated", self.invalidations),
        ]
        width = max(len(label) for label, _ in rows)
        lines = [f"{label:<{width}} : {value}" for label, value in rows]
        lines.append(
            f"{'hit rate':<{width}} : {100.0 * self.hit_rate:.1f}%"
        )
        lines.append(
            f"{'latency p50/p95':<{width}} : "
            f"{1e3 * self.p50_latency_s:.2f} / "
            f"{1e3 * self.p95_latency_s:.2f} ms"
        )
        return "\n".join(lines)


class ServiceStats:
    """Registry-backed service counters plus a bounded latency reservoir.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.MetricsRegistry` to record into; defaults
        to the process-wide registry, which is what makes the service
        visible to ``repro obs export``.

    Each instance records under its own auto-assigned ``instance`` label
    (``svc0``, ``svc1``, ...), isolating its series from other services
    in the same process.
    """

    #: Counter names — must match the integer fields of StatsSnapshot.
    COUNTERS: tuple[str, ...] = tuple(_COUNTER_METRICS)

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else get_registry()
        self.instance = f"svc{next(_instance_ids)}"
        self._counters = {
            name: self.registry.counter(
                metric, instance=self.instance, **labels
            )
            for name, (metric, labels) in _COUNTER_METRICS.items()
        }
        self._latency = self.registry.histogram(
            LATENCY_METRIC, window=LATENCY_WINDOW, instance=self.instance
        )

    def incr(self, name: str, by: int = 1) -> None:
        """Increment one named counter."""
        if name not in self._counters:
            raise KeyError(f"unknown counter {name!r}")
        self._counters[name].inc(by)

    def record_latency(self, seconds: float) -> None:
        """Record one completed request's wall-clock latency."""
        self._latency.observe(float(seconds))

    def snapshot(self) -> StatsSnapshot:
        """An immutable, mutually consistent copy of all counters."""
        counters = {
            name: int(counter.value)
            for name, counter in self._counters.items()
        }
        quantiles = self._latency.quantiles((0.50, 0.95))
        return StatsSnapshot(
            **counters,
            p50_latency_s=quantiles[0.50],
            p95_latency_s=quantiles[0.95],
        )
