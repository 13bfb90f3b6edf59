"""Multi-beam scheduling: packing beams onto accelerators.

Telescopes form hundreds of simultaneous beams (Apertif: 450), each an
independent dedispersion workload.  An accelerator can host several beams
as long as (a) the summed compute keeps up with real time and (b) input
plus output for every hosted beam fit in device memory — the two
constraints of the paper's Sec. V-D sizing argument ("combining 9 beams
per GPU ... with enough available memory to store both the input and the
dedispersed time-series").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.errors import PipelineError
from repro.hardware.device import DeviceSpec
from repro.core.tuner import AutoTuner
from repro.utils.intmath import ceil_div
from repro.utils.validation import require_positive_int


#: Device memory assumed per accelerator, bytes (3 GiB — the HD7970 /
#: K20-class cards of the paper).
DEFAULT_DEVICE_MEMORY: int = 3 * 1024 ** 3


@dataclass(frozen=True)
class BeamAssignment:
    """How many beams one device hosts and why that number."""

    device_name: str
    beams_per_device: int
    devices_needed: int
    seconds_per_beam: float
    memory_per_beam: int
    limited_by: str  # "compute" or "memory"


class MultiBeamScheduler:
    """Computes beam packing for a (device, setup, grid) combination."""

    def __init__(
        self,
        device: DeviceSpec,
        setup: ObservationSetup,
        grid: DMTrialGrid,
        device_memory_bytes: int = DEFAULT_DEVICE_MEMORY,
    ):
        require_positive_int(device_memory_bytes, "device_memory_bytes")
        self.device = device
        self.setup = setup
        self.grid = grid
        self.device_memory_bytes = device_memory_bytes

    def seconds_per_beam(self) -> float:
        """Tuned time to dedisperse one second of one beam."""
        best = AutoTuner(self.device, self.setup).tune(self.grid).best
        return best.metrics.seconds

    def memory_per_beam(self) -> int:
        """Bytes of device memory one beam needs (input + output)."""
        return self.setup.input_bytes(self.grid.last) + (
            self.setup.output_bytes(self.grid.n_dms)
        )

    def assign(self, n_beams: int) -> BeamAssignment:
        """Pack ``n_beams`` onto as few devices as real time allows."""
        require_positive_int(n_beams, "n_beams")
        t_beam = self.seconds_per_beam()
        if t_beam >= 1.0:
            raise PipelineError(
                f"{self.device.name} cannot dedisperse even one "
                f"{self.setup.name} beam in real time "
                f"({t_beam:.3f} s per second of data)"
            )
        by_compute = int(1.0 / t_beam)
        m_beam = self.memory_per_beam()
        by_memory = self.device_memory_bytes // m_beam
        if by_memory < 1:
            raise PipelineError(
                f"one {self.setup.name} beam needs {m_beam} B; "
                f"{self.device.name} has {self.device_memory_bytes}"
            )
        beams = min(by_compute, by_memory)
        return BeamAssignment(
            device_name=self.device.name,
            beams_per_device=beams,
            devices_needed=ceil_div(n_beams, beams),
            seconds_per_beam=t_beam,
            memory_per_beam=m_beam,
            limited_by="compute" if by_compute <= by_memory else "memory",
        )
