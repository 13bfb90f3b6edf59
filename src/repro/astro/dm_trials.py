"""DM-trial grids: the brute-force search space over dispersion measures.

When searching for unknown sources the DM is one of the unknowns, so the
received signal is dedispersed for thousands of trial DMs (Sec. II).  The
paper uses a linear grid starting at 0 with a step of 0.25 pc/cm^3; the
0-DM experiment (Sec. IV-C) uses a degenerate grid where every trial is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_DM_FIRST, DEFAULT_DM_STEP
from repro.errors import ValidationError
from repro.utils.validation import require_non_negative, require_positive_int


@dataclass(frozen=True)
class DMTrialGrid:
    """A set of trial dispersion measures.

    ``step == 0`` encodes the paper's artificial perfect-reuse scenario in
    which every trial DM takes the same value (``first``), so all per-DM
    delay tables coincide and every dedispersed series is identical.
    """

    n_dms: int
    first: float = DEFAULT_DM_FIRST
    step: float = DEFAULT_DM_STEP

    def __post_init__(self) -> None:
        require_positive_int(self.n_dms, "n_dms")
        for name in ("first", "step"):
            value = getattr(self, name)
            require_non_negative(value, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")

    @property
    def values(self) -> np.ndarray:
        """Trial DM values, shape (n_dms,)."""
        return self.first + self.step * np.arange(self.n_dms, dtype=np.float64)

    @property
    def last(self) -> float:
        """The highest trial DM."""
        return self.first + self.step * (self.n_dms - 1)

    @property
    def is_degenerate(self) -> bool:
        """True for the 0-step (perfect data-reuse) grid of Sec. IV-C."""
        return self.step == 0.0

    def subgrid(self, start: int, count: int) -> "DMTrialGrid":
        """The grid restricted to trials ``[start, start + count)``."""
        require_non_negative(start, "start")
        require_positive_int(count, "count")
        if start + count > self.n_dms:
            raise IndexError(
                f"subgrid [{start}, {start + count}) exceeds {self.n_dms} trials"
            )
        return DMTrialGrid(
            n_dms=count, first=self.first + self.step * start, step=self.step
        )

    def index_of(self, dm: float) -> int:
        """Index of the trial closest to ``dm``."""
        if self.is_degenerate:
            return 0
        idx = int(round((dm - self.first) / self.step))
        return min(max(idx, 0), self.n_dms - 1)

    @classmethod
    def zero_dm(cls, n_dms: int) -> "DMTrialGrid":
        """The Sec. IV-C grid: ``n_dms`` trials, all with DM = 0."""
        return cls(n_dms=n_dms, first=0.0, step=0.0)
