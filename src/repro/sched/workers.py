"""Simulated workers: devices executing shards under the hardware model.

Each worker is one physical unit of an engine inventory's device
type.  Its per-shard service time comes from the same machinery
the tuner trusts: the device's *tuned* kernel configuration (the
:class:`~repro.core.tuner.AutoTuner` optimum, found once per device
type and shard DM count) run through
:class:`~repro.hardware.model.PerformanceModel` on the shard's DM
sub-grid, plus the device's launch overhead already included there.
Fault injection then scales the result by the worker's slowdown factor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.config import KernelConfiguration
from repro.core.tuner import AutoTuner
from repro.hardware.device import DeviceSpec
from repro.hardware.model import PerformanceModel
from repro.sched.shard import Shard


class ServiceTimeModel:
    """Modelled seconds for (device, shard), cached two ways.

    The tuned configuration is swept once per (device type, shard DM
    count), as :meth:`repro.core.plan.DedispersionPlan.create` does — a
    shard runs the kernel on its DM sub-grid, so the configuration must
    be tuned for (and tile) that shape, not the full survey grid.
    Surveys use at most two DM counts (the chunk and a remainder), so
    this stays at a handful of sweeps.  Per-shard-shape simulations are
    cached by ``(device, dm_start, dm_count, samples)`` since surveys
    reuse them thousands of times.
    """

    def __init__(self, setup: ObservationSetup, grid: DMTrialGrid):
        self.setup = setup
        self.grid = grid
        self._configs: dict[tuple[str, int], KernelConfiguration] = {}
        self._seconds: dict[tuple[str, int, int, int], float] = {}

    def tuned_config(
        self, device: DeviceSpec, dm_count: int | None = None
    ) -> KernelConfiguration:
        """The device's tuned configuration for a ``dm_count``-trial shard.

        Tuned on a representative sub-grid of that size (the shape is
        what the tuning space depends on, not the DM offset).
        """
        n_dms = self.grid.n_dms if dm_count is None else dm_count
        key = (device.name, n_dms)
        config = self._configs.get(key)
        if config is None:
            subgrid = self.grid.subgrid(0, n_dms)
            config = AutoTuner(device, self.setup).tune(subgrid).best.config
            self._configs[key] = config
        return config

    def seconds(self, device: DeviceSpec, shard: Shard) -> float:
        """Modelled service time of ``shard`` on ``device`` (no faults)."""
        key = (device.name, shard.dm_start, shard.dm_count, shard.samples)
        cached = self._seconds.get(key)
        if cached is None:
            config = self.tuned_config(device, shard.dm_count)
            model = PerformanceModel(
                device, self.setup, shard.subgrid(self.grid)
            )
            cached = model.simulate(
                config, samples=shard.samples, validate=False
            ).seconds
            self._seconds[key] = cached
        return cached


@dataclass
class Worker:
    """One device unit: a queue of local shards plus run-time state."""

    worker_id: str
    device: DeviceSpec
    slowdown: float = 1.0
    crash_at: float | None = None

    def __post_init__(self) -> None:
        self.alive: bool = True
        self.queue: deque[Shard] = deque()
        self.running: Shard | None = None
        self.run_token: int = 0  # invalidates stale finish events
        self.busy_seconds: float = 0.0
        self.shards_done: int = 0
        self.queued_seconds: float = 0.0  # expected seconds of queued work

    @property
    def idle(self) -> bool:
        """Alive with nothing running (it may still have queued work)."""
        return self.alive and self.running is None

    def expected_backlog_s(self) -> float:
        """Expected seconds to drain this worker's queue at its own pace."""
        return self.queued_seconds * self.slowdown


@dataclass(frozen=True)
class WorkerStats:
    """Per-worker accounting surfaced in the run report."""

    worker_id: str
    device_name: str
    shards_done: int
    busy_seconds: float
    slowdown: float
    crashed: bool
