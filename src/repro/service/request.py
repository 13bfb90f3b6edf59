"""The request/response vocabulary of the tuning service.

Two frozen dataclasses make up the service's surface:

* :class:`TuneRequest` — everything a caller can say about one tuning
  request: which instance, who is asking (``tenant``), how the answer
  may be produced (``strategy``), how long the caller will wait
  (``budget``) and how urgent it is (``priority``).  It is resolved
  against a :class:`~repro.service.TuningService` through the one
  blessed entrypoint ``ServiceClient.resolve(request)``.
* :class:`TuneResponse` — the answer plus its provenance: which cache
  tier or sweep produced it (``source``), which tenant asked, which
  named service served it (``replica``), and whether it is a degraded
  heuristic answer rather than the authoritative optimum (``degraded``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup, setup_by_name
from repro.core.tuner import ConfigurationSample, TuningResult
from repro.errors import ValidationError
from repro.hardware.device import DeviceSpec
from repro.service.keys import InstanceKey
from repro.tune import build_strategy

#: Admission/degradation priorities, least to most urgent.
PRIORITIES = ("low", "normal", "high")

#: Degradation-budget multiplier per priority: when a request must be
#: answered heuristically, higher-priority requests are granted a larger
#: evaluation budget (a better degraded answer), lower-priority a smaller
#: one.  Admission itself charges every request the same one token —
#: priority buys answer quality under pressure, not queue jumping.
PRIORITY_BUDGET_SCALE = {"low": 0.5, "normal": 1.0, "high": 2.0}


@dataclass(frozen=True)
class TuneRequest:
    """One tenant's request for a tuned configuration.

    Parameters
    ----------
    setup:
        The observation setup, or its catalogue name (``"apertif"`` /
        ``"lofar"``).
    n_dms:
        DM-trial count (paper-default grid geometry) or a full
        :class:`~repro.astro.dm_trials.DMTrialGrid`.
    device:
        The target accelerator, or its catalogue name.
    tenant:
        Who is asking.  Tenancy drives the service's admission (each
        tenant has its own token bucket); it is *not* part of the cache
        identity — one tenant's sweep warms every other tenant of the
        same instance.
    strategy:
        Optional :class:`~repro.tune.SearchStrategy` (or its registry
        name) for a cold sweep instead of the exhaustive one.  A name is
        resolved at construction, so an unknown one raises
        :class:`~repro.errors.TuningError` before the request reaches a
        service.  When concurrent requests share one sweep, the leader's
        strategy wins.
    budget:
        Seconds the caller will wait for an authoritative answer before
        degrading to the budgeted heuristic.  ``None`` uses the service
        default; ``math.inf`` waits indefinitely.
    priority:
        ``"low"`` / ``"normal"`` / ``"high"``; scales the evaluation
        budget of a degraded answer (see :data:`PRIORITY_BUDGET_SCALE`).
    """

    setup: ObservationSetup | str
    n_dms: int | DMTrialGrid
    device: DeviceSpec | str
    tenant: str = "default"
    strategy: object = None
    budget: float | None = None
    priority: str = "normal"

    def __post_init__(self) -> None:
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ValidationError("tenant must be a non-empty string")
        if self.priority not in PRIORITIES:
            raise ValidationError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )
        if self.budget is not None:
            if (
                not isinstance(self.budget, (int, float))
                or isinstance(self.budget, bool)
                or math.isnan(self.budget)
                or self.budget < 0
            ):
                raise ValidationError(
                    "budget must be >= 0 seconds, math.inf, or None "
                    f"(got {self.budget!r})"
                )
        if isinstance(self.n_dms, int):
            if self.n_dms < 1:
                raise ValidationError("n_dms must be >= 1")
        elif not isinstance(self.n_dms, DMTrialGrid):
            raise ValidationError(
                f"n_dms must be an int or DMTrialGrid, got {self.n_dms!r}"
            )
        if self.strategy is not None:
            object.__setattr__(self, "strategy", build_strategy(self.strategy))

    # -- resolution helpers -------------------------------------------
    def resolved_setup(self) -> ObservationSetup:
        """The concrete observation setup this request names."""
        if isinstance(self.setup, str):
            return setup_by_name(self.setup)
        return self.setup

    def resolved_device(self) -> DeviceSpec:
        """The concrete device spec this request names."""
        if isinstance(self.device, str):
            from repro.hardware.catalog import device_by_name

            return device_by_name(self.device)
        return self.device

    def resolved_grid(self) -> DMTrialGrid:
        """The concrete DM-trial grid this request names."""
        if isinstance(self.n_dms, DMTrialGrid):
            return self.n_dms
        return DMTrialGrid(n_dms=self.n_dms)

    def key(self) -> InstanceKey:
        """The cache identity of this request's instance.

        Tenant, strategy, budget, and priority are deliberately *not*
        part of the key: they describe how to produce and account for
        the answer, not which answer is correct — that is what lets the
        service share one cache entry across every tenant.
        """
        return InstanceKey.for_instance(
            self.resolved_device(), self.resolved_setup(), self.resolved_grid()
        )

    def degraded_budget(self, base: int) -> int:
        """The heuristic evaluation budget, scaled by priority."""
        return max(1, int(base * PRIORITY_BUDGET_SCALE[self.priority]))

    def describe(self) -> str:
        """One-line human identity for logs and CLI output."""
        grid = self.resolved_grid()
        return (
            f"{self.tenant}: {self.resolved_device().name}/"
            f"{self.resolved_setup().name}/{grid.n_dms} DMs "
            f"[{self.priority}]"
        )


@dataclass(frozen=True)
class TuneResponse:
    """One answered request: the sweep, how it was produced, and for whom.

    ``source`` is one of ``memory``, ``disk``, ``sweep``, ``warm``,
    ``warm-fallback``, ``strategy-<name>``, ``degraded-timeout``,
    ``degraded-admission``.  Degraded responses carry a heuristic
    (budget-bounded) result rather than the exhaustive optimum.
    ``tenant`` echoes the requester and ``replica`` names the
    :class:`~repro.service.TuningService` that served the request (its
    ``name``; ``None`` when the service is unnamed).
    """

    key: InstanceKey
    result: TuningResult
    source: str
    elapsed_s: float
    degraded: bool = False
    tenant: str = "default"
    replica: str | None = None

    @property
    def best(self) -> ConfigurationSample:
        """The optimal configuration sample of this response."""
        return self.result.best

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        flag = " DEGRADED" if self.degraded else ""
        extras = [self.tenant]
        if self.replica:
            extras.append(self.replica)
        return (
            f"{self.key.describe()} -> {self.best.config.describe()} "
            f"{self.best.gflops:.1f} GFLOP/s "
            f"[{self.source}{flag}, {1e3 * self.elapsed_s:.1f} ms] "
            f"({', '.join(extras)})"
        )
