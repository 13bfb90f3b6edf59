"""The auto-tuner: exhaustive sweep and optimum selection.

For every meaningful configuration the tuner runs the performance model and
records the achieved GFLOP/s; "the optimal configuration is chosen as the
one that produces the highest number of single precision floating point
operations per second" (Sec. IV-A).  The complete sample population is kept
so downstream analysis can compute the statistics of the optimum (Figs.
8-10) and the best *fixed* configuration (Figs. 13-14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.config import KernelConfiguration
from repro.core.constraints import is_meaningful
from repro.core.space import TuningSpace
from repro.errors import TuningError
from repro.hardware.device import DeviceSpec
from repro.hardware.metrics import KernelMetrics
from repro.hardware.model import PerformanceModel
from repro.obs import get_registry, span


@dataclass(frozen=True)
class ConfigurationSample:
    """One evaluated point of the optimisation space."""

    config: KernelConfiguration
    gflops: float
    metrics: KernelMetrics


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one sweep: the optimum plus the whole population."""

    device: DeviceSpec
    setup: ObservationSetup
    grid: DMTrialGrid
    samples: tuple[ConfigurationSample, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise TuningError(
                f"no meaningful configurations for {self.device.name}/"
                f"{self.setup.name}/{self.grid.n_dms} DMs"
            )

    @property
    def best(self) -> ConfigurationSample:
        """The optimum: highest GFLOP/s."""
        return max(self.samples, key=lambda s: s.gflops)

    @property
    def population_gflops(self) -> np.ndarray:
        """All sampled GFLOP/s values, shape (n_samples,)."""
        return np.asarray([s.gflops for s in self.samples], dtype=np.float64)

    @property
    def n_configurations(self) -> int:
        """Size of the evaluated optimisation space."""
        return len(self.samples)

    def find(self, config: KernelConfiguration) -> ConfigurationSample | None:
        """The sample for ``config`` if it was part of this sweep."""
        for sample in self.samples:
            if sample.config == config:
                return sample
        return None

    def to_rows(self) -> list[tuple]:
        """The full sweep as plottable rows, fastest first.

        Columns: wt, wd, et, ed, work-items, accumulators, GFLOP/s, bound,
        reuse, occupancy — everything an external analysis of the
        optimisation space needs (e.g. re-plotting Fig. 10).
        """
        ordered = sorted(self.samples, key=lambda s: -s.gflops)
        return [
            (
                *sample.config.as_tuple(),
                sample.config.work_items_per_group,
                sample.config.accumulators,
                round(sample.gflops, 3),
                sample.metrics.bound.value,
                round(sample.metrics.reuse_factor, 2),
                round(sample.metrics.occupancy, 3),
            )
            for sample in ordered
        ]

    #: Column names matching :meth:`to_rows`.
    ROW_HEADERS: tuple[str, ...] = (
        "wt", "wd", "et", "ed", "work_items", "accumulators",
        "gflops", "bound", "reuse", "occupancy",
    )


class AutoTuner:
    """Sweeps the meaningful configuration space of one problem instance."""

    def __init__(self, device: DeviceSpec, setup: ObservationSetup):
        self.device = device
        self.setup = setup

    def space(
        self, grid: DMTrialGrid, samples: int | None = None
    ) -> TuningSpace:
        """The tuning space this tuner would sweep for ``grid``."""
        s = self.setup.samples_per_batch if samples is None else samples
        return TuningSpace(
            device=self.device, setup=self.setup, grid=grid, samples=s
        )

    def tune(
        self,
        grid: DMTrialGrid,
        samples: int | None = None,
        candidates: Iterable[KernelConfiguration] | None = None,
    ) -> TuningResult:
        """Evaluate every meaningful configuration and return the sweep.

        With ``candidates`` the sweep is restricted to the given
        configurations (duplicates dropped, non-meaningful ones filtered
        out) instead of the full enumerated space — the hook warm-start
        tuning uses to sweep a pruned neighbourhood of a known optimum.
        """
        s = self.setup.samples_per_batch if samples is None else samples
        with span(
            "tuner.sweep",
            device=self.device.name,
            setup=self.setup.name,
            n_dms=grid.n_dms,
        ) as sweep_span:
            if candidates is None:
                configs = self.space(grid, s).meaningful()
            else:
                seen: set[KernelConfiguration] = set()
                configs = []
                for c in candidates:
                    if c in seen:
                        continue
                    seen.add(c)
                    if is_meaningful(c, self.device, self.setup, grid, s):
                        configs.append(c)
            if not configs:
                raise TuningError(
                    f"search space is empty for {self.device.name}/"
                    f"{self.setup.name}/{grid.n_dms} DMs"
                )
            model = PerformanceModel(self.device, self.setup, grid)
            evaluated = tuple(
                ConfigurationSample(
                    config=c,
                    metrics=(m := model.simulate(c, samples=s, validate=False)),
                    gflops=m.gflops,
                )
                for c in configs
            )
            result = TuningResult(
                device=self.device, setup=self.setup, grid=grid,
                samples=evaluated,
            )
            sweep_span.attributes["n_configurations"] = len(evaluated)
            registry = get_registry()
            labels = {"device": self.device.name, "setup": self.setup.name}
            registry.counter("repro_tuner_sweeps_total", **labels).inc()
            registry.counter(
                "repro_tuner_configs_evaluated_total", **labels
            ).inc(len(evaluated))
            registry.gauge("repro_tuner_best_gflops", **labels).set(
                result.best.gflops
            )
            return result

    def tune_instances(
        self,
        n_dms_list: list[int] | tuple[int, ...],
        dm_first: float = 0.0,
        dm_step: float = 0.25,
    ) -> dict[int, TuningResult]:
        """Tune a series of input instances (the paper's 2..4096 sweep)."""
        results: dict[int, TuningResult] = {}
        for n_dms in n_dms_list:
            grid = DMTrialGrid(n_dms=n_dms, first=dm_first, step=dm_step)
            results[n_dms] = self.tune(grid)
        return results
