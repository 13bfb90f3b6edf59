"""Warm-start tuning: seed a sweep from a neighbouring instance's optimum.

Nearby problem instances share near-optimal configurations (Novotný et
al., arXiv:2311.05341): the optimum for 512 DMs is almost always within a
few notches of the optimum for 1,024 DMs on the same device and setup.
Warm-start tuning exploits that by sweeping only a *pruned* region of the
meaningful space around a cached neighbour's optimum:

* every configuration whose parameters sit within ``radius`` notches of
  the seed optimum on at least three of the four axes (one axis is left
  free, because instance growth typically shifts a single parameter a
  long way while the others stay put), plus
* the seed sweep's ``top_k`` best configurations verbatim.

A pruned sweep can miss the true optimum, so the result is guarded:
``probes`` configurations are sampled deterministically from the
*unswept* remainder, and if any probe beats the pruned optimum the whole
instance is re-tuned with the full exhaustive sweep.  The guard is
probabilistic: at the default 8 probes a distant seed can return a
slower configuration without falling back (``docs/service.md`` says
how often; a neighbouring power of two rarely and by little).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from repro.astro.dm_trials import DMTrialGrid
from repro.core.config import KernelConfiguration
from repro.core.space import AXES, axis_values
from repro.core.tuner import AutoTuner, TuningResult


@dataclass(frozen=True)
class WarmStartReport:
    """Outcome of one warm-started tuning attempt."""

    result: TuningResult
    fell_back: bool
    pruned_size: int
    space_size: int
    probe_count: int

    @property
    def evaluated(self) -> int:
        """Configurations actually simulated."""
        return self.result.n_configurations

    @property
    def savings(self) -> float:
        """Fraction of the full space that was *not* simulated."""
        if self.space_size == 0:
            return 0.0
        return 1.0 - self.evaluated / self.space_size


def _nearest_index(values: list[int], wanted: int) -> int:
    """Index of the value closest to ``wanted`` in a sorted list."""
    position = bisect_left(values, wanted)
    if position == 0:
        return 0
    if position == len(values):
        return len(values) - 1
    before, after = values[position - 1], values[position]
    return position if after - wanted < wanted - before else position - 1


def pruned_candidates(
    configs: list[KernelConfiguration],
    seed: KernelConfiguration,
    radius: int = 2,
) -> list[KernelConfiguration]:
    """The neighbourhood of ``seed`` inside ``configs``.

    A configuration qualifies when at least three of its four parameters
    lie within ``radius`` notches of the seed's (notches counted on the
    sorted list of values that parameter actually takes in ``configs``,
    :func:`repro.core.space.axis_values`); the fourth parameter may roam
    freely.
    """
    values = axis_values(configs)
    seed_index = {
        axis: _nearest_index(values[axis], getattr(seed, axis))
        for axis in AXES
    }
    index_of = {
        axis: {v: i for i, v in enumerate(values[axis])} for axis in AXES
    }
    selected: list[KernelConfiguration] = []
    for config in configs:
        near = sum(
            1
            for axis in AXES
            if abs(index_of[axis][getattr(config, axis)] - seed_index[axis])
            <= radius
        )
        if near >= len(AXES) - 1:
            selected.append(config)
    return selected


def warm_start_tune(
    tuner: AutoTuner,
    grid: DMTrialGrid,
    seed_result: TuningResult,
    samples: int | None = None,
    radius: int = 2,
    top_k: int = 8,
    probes: int = 8,
    rng_seed: int = 0,
) -> WarmStartReport:
    """Tune ``grid`` seeded by a neighbouring instance's sweep.

    Returns the pruned-sweep result (population = pruned region + guard
    probes) unless a probe refutes the pruned optimum, in which case the
    full exhaustive sweep runs and ``fell_back`` is True.
    """
    configs = tuner.space(grid, samples).meaningful()
    if not configs:
        # Delegate the empty-space error to the tuner's own path.
        return WarmStartReport(
            result=tuner.tune(grid, samples),
            fell_back=True,
            pruned_size=0,
            space_size=0,
            probe_count=0,
        )

    seed_config = seed_result.best.config
    pruned = pruned_candidates(configs, seed_config, radius=radius)
    seed_top = [
        sample.config
        for sample in sorted(seed_result.samples, key=lambda s: -s.gflops)[
            :top_k
        ]
    ]
    pruned_result = tuner.tune(grid, samples, candidates=[*pruned, *seed_top])
    evaluated = {sample.config for sample in pruned_result.samples}

    remainder = [c for c in configs if c not in evaluated]
    rng = random.Random(rng_seed)
    probe_configs = (
        rng.sample(remainder, min(probes, len(remainder))) if remainder else []
    )
    if probe_configs:
        probe_result = tuner.tune(grid, samples, candidates=probe_configs)
        if probe_result.best.gflops > pruned_result.best.gflops:
            # A blind probe beat the warm optimum: the seed misled us.
            return WarmStartReport(
                result=tuner.tune(grid, samples),
                fell_back=True,
                pruned_size=len(pruned),
                space_size=len(configs),
                probe_count=len(probe_configs),
            )
        merged = TuningResult(
            device=pruned_result.device,
            setup=pruned_result.setup,
            grid=grid,
            samples=pruned_result.samples + probe_result.samples,
        )
    else:
        merged = pruned_result
    return WarmStartReport(
        result=merged,
        fell_back=False,
        pruned_size=len(pruned),
        space_size=len(configs),
        probe_count=len(probe_configs),
    )
