"""Dedispersion plans: tune once, execute many times.

Real-time pipelines dedisperse the same (setup, DM grid) shape every second
for hours, so the tuning sweep is paid once up front and the chosen kernel
is reused — the FFTW-style plan/execute split.  A plan binds:

* an observational setup and DM-trial grid (the problem),
* a device and its tuned :class:`KernelConfiguration` (the solution),
* the generated kernel and precomputed delay table (the artefacts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.astro.dispersion import delay_table
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.config import KernelConfiguration
from repro.core.constraints import validate_configuration
from repro.core.tuner import AutoTuner
from repro.hardware.device import DeviceSpec
from repro.hardware.metrics import KernelMetrics
from repro.hardware.model import PerformanceModel
from repro.opencl_sim.codegen import build_kernel
from repro.opencl_sim.kernel import DedispersionKernel


@dataclass(frozen=True)
class DedispersionPlan:
    """A tuned, executable dedispersion pipeline stage."""

    setup: ObservationSetup
    grid: DMTrialGrid
    device: DeviceSpec
    config: KernelConfiguration
    samples: int
    kernel: DedispersionKernel = field(repr=False)
    delays: np.ndarray = field(repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        setup: ObservationSetup,
        grid: DMTrialGrid,
        device: DeviceSpec,
        config: KernelConfiguration | None = None,
        samples: int | None = None,
    ) -> "DedispersionPlan":
        """Build a plan, auto-tuning when no configuration is given."""
        s = setup.samples_per_batch if samples is None else samples
        if config is None:
            config = AutoTuner(device, setup).tune(grid, samples=s).best.config
        else:
            validate_configuration(config, device, setup, grid, s)
        kernel = build_kernel(config, setup.channels, s)
        delays = delay_table(setup, grid.values)
        return cls(
            setup=setup,
            grid=grid,
            device=device,
            config=config,
            samples=s,
            kernel=kernel,
            delays=delays,
        )

    # ------------------------------------------------------------------
    # Execution and prediction
    # ------------------------------------------------------------------
    @property
    def required_input_samples(self) -> int:
        """Minimum input length: batch plus the maximum delay."""
        return self.samples + int(self.delays.max(initial=0))

    def predict(self) -> KernelMetrics:
        """Model-predicted metrics for one batch on the plan's device.

        Computed once per plan: the prediction is a pure function of the
        frozen setup, grid, device, configuration and batch, and
        :class:`KernelMetrics` is immutable, so every call returns the
        same object.  A plan derived with :func:`dataclasses.replace` is
        a new instance and predicts for its own fields.
        """
        return self._prediction

    @cached_property
    def _prediction(self) -> KernelMetrics:
        model = PerformanceModel(self.device, self.setup, self.grid)
        return model.simulate(self.config, samples=self.samples, validate=False)

    def is_realtime(self) -> bool:
        """Whether the predicted rate dedisperses 1 s of data in < 1 s.

        Uses the full one-second workload regardless of the plan's batch
        length, matching the real-time lines of Figs. 6-7.
        """
        predicted = self.predict().gflops
        needed = self.setup.realtime_gflops(self.grid.n_dms)
        return predicted >= needed

    def describe(self) -> str:
        """Multi-line human-readable plan summary."""
        metrics = self.predict()
        return "\n".join(
            [
                f"plan: {self.setup.name}, {self.grid.n_dms} DMs "
                f"(step {self.grid.step}), {self.samples} samples/batch",
                f"device: {self.device.name}",
                f"configuration: {self.config.describe()}",
                f"predicted: {metrics.gflops:.1f} GFLOP/s "
                f"({metrics.bound.value}-bound), "
                f"real-time: {'yes' if self.is_realtime() else 'NO'}",
            ]
        )
