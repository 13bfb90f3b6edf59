"""Cache keys for the tuning service.

A tuned optimum is only valid for one exact problem instance *and* one
exact model parameterisation, so the service keys every cache tier on
(device, setup, grid, fingerprint).  The fingerprint comes from
:func:`repro.core.persistence.model_fingerprint` and covers every device
and setup field plus the model revision — editing the device catalogue
changes the fingerprint, which turns stale cache entries into misses
instead of wrong answers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.persistence import model_fingerprint
from repro.hardware.device import DeviceSpec


@dataclass(frozen=True)
class InstanceKey:
    """Identity of one tunable problem instance under one model."""

    device: str
    setup: str
    n_dms: int
    dm_first: float
    dm_step: float
    fingerprint: str

    @classmethod
    def for_instance(
        cls,
        device: DeviceSpec,
        setup: ObservationSetup,
        grid: DMTrialGrid,
    ) -> "InstanceKey":
        """The key for (device, setup, grid) under the current model."""
        return cls(
            device=device.name,
            setup=setup.name,
            n_dms=grid.n_dms,
            dm_first=grid.first,
            dm_step=grid.step,
            fingerprint=model_fingerprint(device, setup),
        )

    def grid(self) -> DMTrialGrid:
        """The DM-trial grid this key describes."""
        return DMTrialGrid(
            n_dms=self.n_dms, first=self.dm_first, step=self.dm_step
        )

    def filename(self) -> str:
        """A filesystem-safe, human-scannable name for the disk tier."""
        def slug(s: str) -> str:
            return "".join(ch if ch.isalnum() else "-" for ch in s.lower())

        grid_digest = hashlib.sha256(
            f"{self.dm_first!r}:{self.dm_step!r}".encode()
        ).hexdigest()[:8]
        return (
            f"{slug(self.device)}__{slug(self.setup)}__{self.n_dms}dm"
            f"__{grid_digest}__{self.fingerprint}.json"
        )

    def describe(self) -> str:
        """One-line human identity (fingerprint abbreviated)."""
        return (
            f"{self.device}/{self.setup}/{self.n_dms} DMs "
            f"(step {self.dm_step}, model {self.fingerprint[:8]})"
        )
