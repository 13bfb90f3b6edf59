"""Enumeration of the tuning search space.

The tuner evaluates "every meaningful combination of the four parameters"
(Sec. IV-A).  The raw cross-product is enormous, so — like the paper's
tuner — we enumerate only geometrically sensible candidates and let the
constraint checker prune the rest:

* ``work_items_time`` ranges over divisors of the batch length (so a row of
  work-items can tile the time dimension exactly), clamped to the device's
  work-group limit.  This is why the paper's optima include values such as
  250 and 1,000 rather than only powers of two.
* ``elements_time`` ranges over divisors of the remaining per-row samples,
  capped by :data:`MAX_ELEMENTS_TIME`.
* ``work_items_dm`` and ``elements_dm`` range over powers of two so that
  DM tiles divide the power-of-two input instances.

The module also owns the space's one notch geometry: :func:`axis_values`
lists the values each parameter takes in a meaningful set, and
:func:`notch_neighbours` steps one parameter one notch along that list.
Local search (:mod:`repro.tune.strategy`) and warm-start pruning
(:mod:`repro.service.warmstart`) both measure distance this way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.config import KernelConfiguration
from repro.core.constraints import is_meaningful
from repro.hardware.device import DeviceSpec
from repro.utils.intmath import divisors, powers_of_two
from repro.utils.validation import require_positive_int

#: Per-work-item workload caps.  They cover the paper's observed optima
#: (et up to 32, ed up to 8) with headroom.
MAX_ELEMENTS_TIME: int = 32
MAX_ELEMENTS_DM: int = 8
MAX_WORK_ITEMS_DM: int = 64

#: The four tunable parameters, in :class:`KernelConfiguration` order.
AXES: tuple[str, ...] = (
    "work_items_time",
    "work_items_dm",
    "elements_time",
    "elements_dm",
)


@dataclass(frozen=True)
class TuningSpace:
    """Candidate generator for one (device, setup, instance) combination.

    ``samples`` is the batch length the kernel computes (``0``: the
    setup's batch).  The per-work-item workload is capped by the module
    constants :data:`MAX_ELEMENTS_TIME`, :data:`MAX_ELEMENTS_DM` and
    :data:`MAX_WORK_ITEMS_DM`.
    """

    device: DeviceSpec
    setup: ObservationSetup
    grid: DMTrialGrid
    samples: int = 0  # defaults to the setup batch

    def __post_init__(self) -> None:
        if self.samples == 0:
            object.__setattr__(self, "samples", self.setup.samples_per_batch)
        require_positive_int(self.samples, "samples")

    # ------------------------------------------------------------------
    def _work_items_time_candidates(self) -> list[int]:
        limit = self.device.max_work_group_size
        return [d for d in divisors(self.samples) if d <= limit]

    def _elements_time_candidates(self, wt: int) -> list[int]:
        per_row = self.samples // wt
        return [d for d in divisors(per_row) if d <= MAX_ELEMENTS_TIME]

    def _dm_candidates(self) -> list[tuple[int, int]]:
        pairs: list[tuple[int, int]] = []
        for wd in powers_of_two(1, min(MAX_WORK_ITEMS_DM, self.grid.n_dms)):
            for ed in powers_of_two(1, MAX_ELEMENTS_DM):
                if wd * ed <= self.grid.n_dms:
                    pairs.append((wd, ed))
        return pairs

    # ------------------------------------------------------------------
    def candidates(self) -> Iterator[KernelConfiguration]:
        """All geometric candidates (not yet constraint-filtered)."""
        dm_pairs = self._dm_candidates()
        for wt in self._work_items_time_candidates():
            ets = self._elements_time_candidates(wt)
            for wd, ed in dm_pairs:
                if wt * wd > self.device.max_work_group_size:
                    continue
                for et in ets:
                    yield KernelConfiguration(
                        work_items_time=wt,
                        work_items_dm=wd,
                        elements_time=et,
                        elements_dm=ed,
                    )

    def meaningful(self) -> list[KernelConfiguration]:
        """All meaningful configurations for this (device, setup, instance)."""
        return [
            c
            for c in self.candidates()
            if is_meaningful(
                c, self.device, self.setup, self.grid, self.samples
            )
        ]


def axis_values(configs: list[KernelConfiguration]) -> dict[str, list[int]]:
    """The sorted values each parameter takes in ``configs``, by axis."""
    return {
        axis: sorted({getattr(c, axis) for c in configs}) for axis in AXES
    }


def notch_neighbours(
    config: KernelConfiguration,
    values: dict[str, list[int]],
    config_set: set[KernelConfiguration],
) -> list[KernelConfiguration]:
    """Members of ``config_set`` one notch away in a single parameter.

    Notches are steps along ``values`` (see :func:`axis_values`); axes are
    visited in :data:`AXES` order, the lower notch before the higher.
    """
    neighbours: list[KernelConfiguration] = []
    for axis in AXES:
        axis_list = values[axis]
        current = getattr(config, axis)
        if current not in axis_list:
            continue
        idx = axis_list.index(current)
        for j in (idx - 1, idx + 1):
            if not 0 <= j < len(axis_list):
                continue
            candidate = replace(config, **{axis: axis_list[j]})
            if candidate in config_set:
                neighbours.append(candidate)
    return neighbours
