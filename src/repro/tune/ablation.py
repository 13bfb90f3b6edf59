"""Ablation driver: how much does each search heuristic contribute?

For one strategy, runs the full configuration and then one variant per
ablatable component (``strategy.without(component)``) across a matrix of
(device, setup, n_dms) instances, judging each against the exhaustive
optimum.  The report quantifies two things per variant: how often it
still finds the optimum (match rate) and what it spends (fraction of
the candidate space evaluated) — i.e. both the quality contribution and
the cost contribution of every heuristic.

Exposed on the command line as ``repro ablate``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import setup_by_name
from repro.core.tuner import AutoTuner
from repro.errors import TuningError
from repro.hardware.catalog import device_by_name
from repro.obs import get_registry, span
from repro.tune.strategy import SearchStrategy, build_strategy


@dataclass(frozen=True)
class AblationEntry:
    """Aggregate quality/cost of one strategy variant."""

    variant: str  # "full" or "no-<component>"
    runs: int
    matches: int
    mean_fraction: float
    max_fraction: float
    mean_best_gflops: float

    @property
    def match_rate(self) -> float:
        return self.matches / self.runs if self.runs else 0.0


@dataclass(frozen=True)
class AblationReport:
    """Every variant's aggregate, plus the instance matrix it covered."""

    strategy: str
    devices: tuple[str, ...]
    setups: tuple[str, ...]
    instances: tuple[int, ...]
    entries: tuple[AblationEntry, ...]

    @property
    def full(self) -> AblationEntry:
        """The un-ablated strategy's row."""
        for entry in self.entries:
            if entry.variant == "full":
                return entry
        raise TuningError("ablation report has no 'full' entry")

    def render(self) -> str:
        """Human-readable comparison table."""
        header = (
            f"ablation of {self.strategy!r} over "
            f"{len(self.devices)} device(s) x {len(self.setups)} setup(s) "
            f"x {len(self.instances)} instance(s)"
        )
        rows = [("variant", "match", "mean cost", "max cost", "mean best")]
        for entry in self.entries:
            rows.append(
                (
                    entry.variant,
                    f"{entry.matches}/{entry.runs}",
                    f"{100.0 * entry.mean_fraction:.1f}%",
                    f"{100.0 * entry.max_fraction:.1f}%",
                    f"{entry.mean_best_gflops:.1f}",
                )
            )
        widths = [
            max(len(row[col]) for row in rows) for col in range(len(rows[0]))
        ]
        lines = [header]
        for i, row in enumerate(rows):
            lines.append(
                "  " + "  ".join(
                    cell.ljust(width) for cell, width in zip(row, widths)
                )
            )
            if i == 0:
                lines.append("  " + "  ".join("-" * width for width in widths))
        return "\n".join(lines)

    def to_document(self) -> dict:
        return {
            "strategy": self.strategy,
            "devices": list(self.devices),
            "setups": list(self.setups),
            "instances": list(self.instances),
            "entries": [
                {
                    "variant": e.variant,
                    "runs": e.runs,
                    "matches": e.matches,
                    "match_rate": e.match_rate,
                    "mean_fraction": e.mean_fraction,
                    "max_fraction": e.max_fraction,
                    "mean_best_gflops": e.mean_best_gflops,
                }
                for e in self.entries
            ],
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_document(), indent=1, sort_keys=True)
        )
        return path


def run_ablation(
    devices,
    setups,
    instances,
    strategy: "SearchStrategy | str" = "model-guided",
    dm_first: float = 0.0,
    dm_step: float = 0.25,
    **strategy_kwargs,
) -> AblationReport:
    """Toggle each component of ``strategy`` and quantify its contribution.

    ``devices`` / ``setups`` are name sequences, ``instances`` DM counts.
    The exhaustive optimum of every instance is computed once and shared
    by all variants.
    """
    base = build_strategy(strategy, **strategy_kwargs)
    if not base.COMPONENTS:
        raise TuningError(
            f"strategy {base.name!r} has no ablatable components"
        )
    variants: list[tuple[str, SearchStrategy]] = [("full", base)]
    variants.extend(
        (f"no-{component}", base.without(component))
        for component in base.components
    )

    matrix = [
        (device_by_name(d), setup_by_name(s), int(n))
        for d in devices
        for s in setups
        for n in instances
    ]
    if not matrix:
        raise TuningError("ablation needs at least one instance")

    with span(
        "tune.ablate", strategy=base.name, runs=len(matrix) * len(variants)
    ):
        optima: list[tuple[AutoTuner, DMTrialGrid, float]] = []
        for device, setup, n_dms in matrix:
            tuner = AutoTuner(device, setup)
            grid = DMTrialGrid(n_dms=n_dms, first=dm_first, step=dm_step)
            optima.append((tuner, grid, tuner.tune(grid).best.gflops))

        entries = []
        for label, variant in variants:
            matches = 0
            fractions: list[float] = []
            bests: list[float] = []
            for tuner, grid, optimum in optima:
                outcome = variant.search(tuner, grid)
                fractions.append(outcome.fraction_evaluated)
                bests.append(outcome.best.gflops)
                if outcome.matches(optimum):
                    matches += 1
            entries.append(
                AblationEntry(
                    variant=label,
                    runs=len(optima),
                    matches=matches,
                    mean_fraction=sum(fractions) / len(fractions),
                    max_fraction=max(fractions),
                    mean_best_gflops=sum(bests) / len(bests),
                )
            )
    get_registry().counter("repro_tune_ablations_total").inc()
    return AblationReport(
        strategy=base.name,
        devices=tuple(str(d) for d in devices),
        setups=tuple(str(s) for s in setups),
        instances=tuple(int(n) for n in instances),
        entries=tuple(entries),
    )
