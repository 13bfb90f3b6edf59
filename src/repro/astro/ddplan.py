"""Smearing-optimal DM-trial planning (the classic "DDplan" analysis).

The paper fixes its DM step at 0.25 pc/cm^3; production surveys instead
*derive* the step from the smearing budget: a trial grid is fine enough
when the smearing caused by being half a step off in DM stays below the
effective time resolution.  The four smearing contributions at a trial DM
(see Lorimer & Kramer, Handbook of Pulsar Astronomy, ch. 6):

* **sampling** — the time resolution itself;
* **intra-channel** — dispersion across one channel's bandwidth, which
  no incoherent method can undo;
* **DM-step** — misalignment across the whole band from being up to half
  a DM step away from the source's true DM;
* (optionally the pulse's intrinsic width, which we leave to the caller).

Since intra-channel smearing grows linearly with DM, high-DM trials can
tolerate a coarser step and a downsampled time series — the staged plans
this module produces, mirroring PRESTO's ``DDplan.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.astro.dispersion import (
    dispersion_delay_seconds,
    dispersion_smearing_seconds,
)
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.errors import ValidationError
from repro.utils.validation import require_positive


def band_delay_span_seconds(setup: ObservationSetup, dm: float) -> float:
    """Delay spread across the whole band at ``dm`` (seconds)."""
    return float(
        dispersion_delay_seconds(
            float(setup.channel_frequencies[0]),
            setup.reference_frequency,
            dm,
        )
    )


def dm_step_smearing_seconds(setup: ObservationSetup, dm_step: float) -> float:
    """Smearing from being half a DM step off, across the band (seconds)."""
    return 0.5 * band_delay_span_seconds(setup, dm_step)


def optimal_dm_step(
    setup: ObservationSetup,
    dm: float,
    downsample: int = 1,
    tolerance: float = 1.25,
) -> float:
    """The largest DM step whose smearing stays within tolerance.

    Chosen so the *total* smearing exceeds the unavoidable part (sampling
    + intra-channel) by at most ``tolerance`` — the standard DDplan rule.
    """
    if tolerance <= 1.0:
        raise ValidationError("tolerance must exceed 1.0")
    t_samp = downsample / setup.samples_per_second
    centre = float(np.median(setup.channel_frequencies))
    t_chan = dispersion_smearing_seconds(centre, setup.channel_bandwidth, dm)
    floor = np.hypot(t_samp, t_chan)
    budget = floor * np.sqrt(tolerance ** 2 - 1.0)
    unit = dm_step_smearing_seconds(setup, 1.0)  # seconds per DM unit step
    return float(budget / unit)


@dataclass(frozen=True)
class DDPlanStage:
    """One stage of a staged dedispersion plan."""

    dm_low: float
    dm_high: float
    dm_step: float
    downsample: int
    n_dms: int

    @property
    def grid(self) -> DMTrialGrid:
        """The stage's trial grid."""
        return DMTrialGrid(n_dms=self.n_dms, first=self.dm_low, step=self.dm_step)

    def describe(self) -> str:
        """One-line rendering."""
        return (
            f"DM {self.dm_low:8.2f}..{self.dm_high:8.2f} "
            f"step {self.dm_step:8.4f} x{self.downsample} downsample "
            f"({self.n_dms} trials)"
        )


@dataclass(frozen=True)
class DDPlan:
    """A complete staged plan covering ``[0, max_dm]``."""

    setup_name: str
    max_dm: float
    tolerance: float
    stages: tuple[DDPlanStage, ...]

    @property
    def total_trials(self) -> int:
        """Trials across all stages."""
        return sum(stage.n_dms for stage in self.stages)

    def naive_trials(self, fixed_step: float) -> int:
        """Trials a fixed-step plan would need for the same coverage."""
        if fixed_step <= 0:
            raise ValidationError("fixed_step must be positive")
        return int(np.ceil(self.max_dm / fixed_step)) + 1

    def describe(self) -> str:
        """Multi-line rendering of the plan."""
        lines = [
            f"DDplan for {self.setup_name}: DM 0..{self.max_dm} "
            f"(tolerance {self.tolerance})"
        ]
        lines += ["  " + stage.describe() for stage in self.stages]
        lines.append(f"  total: {self.total_trials} trials")
        return "\n".join(lines)


def build_ddplan(
    setup: ObservationSetup,
    max_dm: float,
    tolerance: float = 1.25,
    max_downsample: int = 16,
) -> DDPlan:
    """Build a staged, smearing-optimal plan for ``[0, max_dm]``.

    Walks up in DM; whenever the intra-channel smearing has grown past the
    sampling time of the current stage, the time series is downsampled 2x
    (no information is lost — the pulse is already wider than the new
    sample) and the DM step re-derived.
    """
    require_positive(max_dm, "max_dm")
    if tolerance <= 1.0:
        raise ValidationError("tolerance must exceed 1.0")

    centre = float(np.median(setup.channel_frequencies))
    stages: list[DDPlanStage] = []
    dm = 0.0
    downsample = 1
    while dm < max_dm:
        # Grow the downsampling while channel smearing dominates sampling.
        while (
            downsample < max_downsample
            and dispersion_smearing_seconds(
                centre, setup.channel_bandwidth, dm if dm > 0 else 1e-3
            )
            > 2.0 * downsample / setup.samples_per_second
        ):
            downsample *= 2
        step = optimal_dm_step(setup, max(dm, 1e-3), downsample, tolerance)
        # The stage ends where the next downsampling level would kick in:
        # the DM at which channel smearing reaches 2x this sampling time.
        t_samp = downsample / setup.samples_per_second
        smear_per_dm = dispersion_smearing_seconds(
            centre, setup.channel_bandwidth, 1.0
        )
        boundary = (
            (2.0 * t_samp) / smear_per_dm
            if downsample < max_downsample
            else max_dm
        )
        stage_high = min(max(boundary, dm + step), max_dm)
        n_dms = max(int(np.ceil((stage_high - dm) / step)), 1)
        stages.append(
            DDPlanStage(
                dm_low=dm,
                dm_high=dm + n_dms * step,
                dm_step=step,
                downsample=downsample,
                n_dms=n_dms,
            )
        )
        dm += n_dms * step
        if downsample < max_downsample:
            downsample *= 2
    return DDPlan(
        setup_name=setup.name,
        max_dm=max_dm,
        tolerance=tolerance,
        stages=tuple(stages),
    )
