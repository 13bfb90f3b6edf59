"""Per-tenant token-bucket admission for the tuning service.

A multi-tenant service is only as good as its isolation: one tenant
replaying an unbounded request loop must not push every other tenant
into the degradation path.  :class:`~repro.service.TuningService`
therefore charges each request one token from *its own tenant's* bucket
before any cache tier; a tenant whose bucket is empty is answered
immediately by the service's existing degradation path (budgeted
heuristic, never cached) while everyone else's buckets — and
latencies — are untouched.

The bucket is the classic leaky/token design: ``capacity`` tokens of
burst, refilled continuously at ``refill_per_s``.  The clock is
injectable so tests can drive admission decisions deterministically.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

from repro.errors import PipelineError


def _check_rates(capacity: float, refill_per_s: float) -> None:
    """Reject out-of-range bucket settings when the bucket is built.

    NaN compares false against everything, so a NaN capacity or refill
    rate would never throttle, and an infinite one never runs dry:
    either would switch admission off silently.
    """
    if not (math.isfinite(capacity) and capacity > 0):
        raise PipelineError(
            f"token bucket capacity must be finite and > 0, got {capacity!r}"
        )
    if not (math.isfinite(refill_per_s) and refill_per_s >= 0):
        raise PipelineError(
            f"token refill rate must be finite and >= 0, got {refill_per_s!r}"
        )


class TokenBucket:
    """One tenant's admission budget: bursts up to ``capacity``, refills
    continuously at ``refill_per_s`` tokens per second."""

    def __init__(
        self,
        capacity: float,
        refill_per_s: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        _check_rates(capacity, refill_per_s)
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._tokens = self.capacity
        self._last = self._clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(
            self.capacity, self._tokens + elapsed * self.refill_per_s
        )

    def try_acquire(self, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens if available; False means throttled."""
        if cost < 0:
            raise PipelineError("token cost must be >= 0")
        with self._lock:
            self._refill_locked()
            if self._tokens < cost:
                return False
            self._tokens -= cost
            return True

    def available(self) -> float:
        """Tokens currently in the bucket (after refill)."""
        with self._lock:
            self._refill_locked()
            return self._tokens


class TenantAdmission:
    """Lazily created per-tenant :class:`TokenBucket` map.

    Every tenant gets the same ``capacity``/``refill_per_s`` — fairness
    here means equal budgets, not weighted shares.  The service consults
    :meth:`try_acquire` once per request; a ``False`` verdict sends the
    request down its degradation path, so a hostile tenant degrades
    only itself.
    """

    def __init__(
        self,
        capacity: float = 64.0,
        refill_per_s: float = 16.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        _check_rates(capacity, refill_per_s)
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def bucket(self, tenant: str) -> TokenBucket:
        """The (lazily created) bucket for ``tenant``."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(
                    self.capacity, self.refill_per_s, clock=self._clock
                )
                self._buckets[tenant] = bucket
            return bucket

    def try_acquire(self, tenant: str, cost: float = 1.0) -> bool:
        """Charge ``tenant`` for one request; False means throttled."""
        return self.bucket(tenant).try_acquire(cost)

    def tenants(self) -> list[str]:
        """Tenants that have been charged at least once, sorted."""
        with self._lock:
            return sorted(self._buckets)
