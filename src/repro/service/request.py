"""The request/response vocabulary of the tuning service.

Two frozen dataclasses make up the service's surface:

* :class:`TuneRequest` — which instance to tune and, optionally, how a
  cold sweep may search it (``strategy``).  It is resolved through the
  one entrypoint ``TuningService.resolve(request)``.
* :class:`TuneResponse` — the answer plus its provenance: which cache
  tier or sweep produced it (``source``) and whether it is a degraded
  heuristic answer rather than the authoritative optimum (``degraded``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup, setup_by_name
from repro.core.tuner import ConfigurationSample, TuningResult
from repro.errors import ValidationError
from repro.hardware.device import DeviceSpec
from repro.service.keys import InstanceKey
from repro.tune import build_strategy


@dataclass(frozen=True)
class TuneRequest:
    """One request for a tuned configuration.

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
    strategy:
        Optional :class:`~repro.tune.SearchStrategy` (or its registry
        name) for a cold sweep instead of the exhaustive one.  A name is
        resolved at construction, so an unknown one raises
        :class:`~repro.errors.TuningError` before the request reaches a
        service.  When concurrent requests share one sweep, the leader's
        strategy wins.
    """

    setup: ObservationSetup | str
    n_dms: int | DMTrialGrid
    device: DeviceSpec | str
    strategy: object = None

    def __post_init__(self) -> None:
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

        The strategy is deliberately *not* part of the key: it describes
        how to produce the answer, not which answer is correct — that is
        what lets every caller of the service share one cache entry.
        """
        return InstanceKey.for_instance(
            self.resolved_device(), self.resolved_setup(), self.resolved_grid()
        )


@dataclass(frozen=True)
class TuneResponse:
    """One answered request: the sweep and how it was produced.

    ``source`` is one of ``memory``, ``disk``, ``sweep``,
    ``strategy-<name>``, ``degraded-timeout``, ``degraded-admission``.
    Degraded responses carry a heuristic (budget-bounded) result rather
    than the exhaustive optimum.
    """

    key: InstanceKey
    result: TuningResult
    source: str
    elapsed_s: float
    degraded: bool = False

    @property
    def best(self) -> ConfigurationSample:
        """The optimal configuration sample of this response."""
        return self.result.best

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        flag = " DEGRADED" if self.degraded else ""
        return (
            f"{self.key.describe()} -> {self.best.config.describe()} "
            f"{self.best.gflops:.1f} GFLOP/s "
            f"[{self.source}{flag}, {1e3 * self.elapsed_s:.1f} ms]"
        )
