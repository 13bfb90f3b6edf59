"""Deployment sizing under the real-time constraint (paper Sec. V-D).

The real-time constraint: one second of telescope data must be dedispersed
in less than one second of computation, or the survey falls behind forever.
:func:`accelerators_needed` sizes a full deployment as N copies of one
tuned accelerator.  The paper's worked example: Apertif needs 2,000 DMs x
450 beams, which the HD7970 covers with ~50 GPUs (9 beams each) versus
~1,800 CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.hardware.catalog import xeon_e5_2620
from repro.hardware.cpu_model import CPUModel
from repro.hardware.device import DeviceSpec
from repro.pipeline.multibeam import DEFAULT_DEVICE_MEMORY, MultiBeamScheduler
from repro.utils.intmath import ceil_div
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class DeploymentPlan:
    """Accelerator count for a full multi-beam real-time deployment."""

    device_name: str
    setup_name: str
    n_dms: int
    n_beams: int
    beams_per_device: int
    devices_needed: int
    seconds_per_beam: float
    cpu_equivalent: int

    def summary(self) -> str:
        """The Sec. V-D style sentence."""
        return (
            f"{self.setup_name} ({self.n_dms} DMs x {self.n_beams} beams): "
            f"{self.devices_needed} x {self.device_name} "
            f"({self.beams_per_device} beams each, "
            f"{self.seconds_per_beam:.3f} s/beam) "
            f"vs ~{self.cpu_equivalent} CPUs"
        )


def accelerators_needed(
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    n_beams: int,
    device_memory_bytes: int = DEFAULT_DEVICE_MEMORY,
) -> DeploymentPlan:
    """Size a deployment: devices for ``n_beams`` beams in real time."""
    require_positive_int(n_beams, "n_beams")
    scheduler = MultiBeamScheduler(
        device, setup, grid, device_memory_bytes=device_memory_bytes
    )
    assignment = scheduler.assign(n_beams)

    cpu = CPUModel(xeon_e5_2620()).simulate(setup, grid)
    # A CPU hosts floor(1 / t) beams; if it cannot even hold one, count
    # the fractional shortfall as extra CPUs per beam.
    beams_per_cpu = 1.0 / cpu.seconds
    cpu_equivalent = ceil_div(n_beams, max(int(beams_per_cpu), 1)) if (
        beams_per_cpu >= 1.0
    ) else int(n_beams * cpu.seconds + 0.5)

    return DeploymentPlan(
        device_name=device.name,
        setup_name=setup.name,
        n_dms=grid.n_dms,
        n_beams=n_beams,
        beams_per_device=assignment.beams_per_device,
        devices_needed=assignment.devices_needed,
        seconds_per_beam=assignment.seconds_per_beam,
        cpu_equivalent=cpu_equivalent,
    )
