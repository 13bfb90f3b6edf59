"""Meaningful-configuration rules.

Sec. IV-A: "A configuration is considered meaningful if it fulfills all the
constraints posed by a specific platform, setup and input instance."  The
constraints, in the order they are checked:

1. **Work-group size** — ``wt*wd`` must not exceed the device limit and
   must be a multiple of the device's SIMD execution width (a partially
   filled wavefront wastes lanes deterministically).
2. **Registers** — accumulators plus bookkeeping must fit the per-work-item
   register budget the ISA/compiler allows.
3. **Exact tiling** — the work-group tile must divide the input instance in
   both dimensions (``tile_t | samples`` and ``tile_d | n_dms``); the
   run-time code generator only emits kernels without remainder handling,
   as the paper's does.
4. **Residency** — at least one work-group must fit on a compute unit
   (registers, local-memory staging, work-item slots).
"""

from __future__ import annotations

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.config import KernelConfiguration
from repro.errors import ConfigurationError
from repro.hardware.device import DeviceSpec


def _check(
    config: KernelConfiguration,
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    samples: int,
) -> list[str]:
    """All violated constraints, as human-readable strings."""
    problems: list[str] = []
    wi = config.work_items_per_group
    if wi > device.max_work_group_size:
        problems.append(
            f"{wi} work-items/work-group exceed {device.name}'s "
            f"limit of {device.max_work_group_size}"
        )
    if wi % device.wavefront:
        problems.append(
            f"{wi} work-items/work-group is not a multiple of "
            f"{device.name}'s execution width {device.wavefront}"
        )
    if config.registers_per_item > device.max_registers_per_item:
        problems.append(
            f"{config.registers_per_item} registers/work-item exceed "
            f"{device.name}'s limit of {device.max_registers_per_item}"
        )
    if samples % config.tile_samples:
        problems.append(
            f"tile of {config.tile_samples} samples does not divide "
            f"the {samples}-sample batch"
        )
    if grid.n_dms % config.tile_dms:
        problems.append(
            f"tile of {config.tile_dms} DMs does not divide "
            f"the {grid.n_dms}-DM instance"
        )
    if not problems:
        # Residency check only makes sense for a geometrically valid config.
        from repro.hardware.occupancy import OccupancyCalculator

        try:
            OccupancyCalculator(device).calculate(
                config, staging_window=config.tile_samples
            )
        except ConfigurationError as exc:
            problems.append(str(exc))
    return problems


def validate_configuration(
    config: KernelConfiguration,
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    samples: int | None = None,
) -> None:
    """Raise :class:`ConfigurationError` if ``config`` is not meaningful."""
    s = setup.samples_per_batch if samples is None else samples
    problems = _check(config, device, setup, grid, s)
    if problems:
        raise ConfigurationError(
            f"configuration {config.describe()} is not meaningful for "
            f"{device.name}/{setup.name}/{grid.n_dms} DMs: "
            + "; ".join(problems)
        )


def is_meaningful(
    config: KernelConfiguration,
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    samples: int | None = None,
) -> bool:
    """Whether ``config`` satisfies every constraint (Sec. IV-A)."""
    s = setup.samples_per_batch if samples is None else samples
    return not _check(config, device, setup, grid, s)
