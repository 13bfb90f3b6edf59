"""Subband (two-step) dedispersion — the major algorithmic extension.

Brute-force dedispersion costs ``d * s * c`` operations.  The standard way
to cut that cost (Magro et al. 2011; later adopted by the paper's authors
in the AMBER pipeline) is a two-step decomposition:

**Step 1** — split the ``c`` channels into ``n_sub`` contiguous subbands
and dedisperse each subband *internally* for a coarse grid of ``d_c``
"subband DMs", aligning every channel to its subband's reference (top)
frequency.  Cost: ``d_c * s * c``.

**Step 2** — for every fine trial DM, take the intermediate series of the
*nearest* coarse DM and sum the ``n_sub`` subband series, shifting each by
the delay of its reference frequency at the fine DM.  Cost:
``d * s * n_sub``.

Total: ``s * (d_c * c + d * n_sub)`` versus ``s * d * c`` — a reduction
approaching ``c / n_sub`` when ``d_c << d``.  The price is a bounded
approximation error: within one subband the step-1 shift uses the coarse
DM instead of the fine one, smearing each channel by at most the
intra-subband delay span between neighbouring coarse DMs.

Functionally, subband dedispersion equals brute-force dedispersion with
the *effective* delay table

    delay_eff(dm, ch) = delay(dm_c, ch) - delay(dm_c, ref(ch))
                        + delay(dm, ref(ch))

where ``dm_c`` is the coarse DM assigned to ``dm`` and ``ref(ch)`` the
reference frequency of the channel's subband.  That identity is how the
implementation is tested, and it makes the error analysis exact:
``|delay_eff - delay| <= |delay(dm, ch) - delay(dm_c, ch)|`` within a
subband.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.astro.dispersion import delay_samples, delay_table
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.errors import ValidationError
from repro.utils.intmath import ceil_div
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class SubbandPlan:
    """A two-step dedispersion decomposition.

    ``coarse_factor`` is the ratio between the fine and coarse DM steps:
    one coarse DM serves ``coarse_factor`` consecutive fine trials.
    """

    setup: ObservationSetup
    grid: DMTrialGrid
    n_subbands: int
    coarse_factor: int

    def __post_init__(self) -> None:
        require_positive_int(self.n_subbands, "n_subbands")
        require_positive_int(self.coarse_factor, "coarse_factor")
        if self.setup.channels % self.n_subbands:
            raise ValidationError(
                f"{self.n_subbands} subbands do not divide "
                f"{self.setup.channels} channels"
            )
        if self.grid.is_degenerate and self.coarse_factor != 1:
            raise ValidationError(
                "degenerate (0-step) grids cannot be coarsened"
            )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def channels_per_subband(self) -> int:
        """Channels in each subband."""
        return self.setup.channels // self.n_subbands

    @cached_property
    def coarse_grid(self) -> DMTrialGrid:
        """The step-1 grid: every ``coarse_factor``-th fine trial."""
        n_coarse = ceil_div(self.grid.n_dms, self.coarse_factor)
        return DMTrialGrid(
            n_dms=n_coarse,
            first=self.grid.first,
            step=self.grid.step * self.coarse_factor,
        )

    def coarse_index(self, fine_index: int) -> int:
        """The coarse trial serving fine trial ``fine_index``."""
        if not 0 <= fine_index < self.grid.n_dms:
            raise ValidationError(
                f"fine index {fine_index} outside grid of {self.grid.n_dms}"
            )
        return fine_index // self.coarse_factor

    @cached_property
    def subband_reference_frequencies(self) -> np.ndarray:
        """Reference (centre of top channel) frequency per subband, (n_sub,)."""
        freqs = self.setup.channel_frequencies
        tops = [
            float(freqs[(i + 1) * self.channels_per_subband - 1])
            for i in range(self.n_subbands)
        ]
        return np.asarray(tops)

    # ------------------------------------------------------------------
    # Delay tables
    # ------------------------------------------------------------------
    @cached_property
    def intra_subband_table(self) -> np.ndarray:
        """Step-1 shifts: (n_coarse, channels), relative to subband tops."""
        full = delay_table(self.setup, self.coarse_grid.values)
        return self._relative_to_subband_tops(full)

    def _relative_to_subband_tops(self, table: np.ndarray) -> np.ndarray:
        out = np.empty_like(table)
        w = self.channels_per_subband
        for i in range(self.n_subbands):
            sl = slice(i * w, (i + 1) * w)
            out[:, sl] = table[:, sl] - table[:, sl][:, -1:]
        return out

    @cached_property
    def subband_table(self) -> np.ndarray:
        """Step-2 shifts: (n_dms, n_subbands) at the reference frequencies."""
        ref = self.setup.reference_frequency
        shifts = delay_samples(
            self.subband_reference_frequencies[np.newaxis, :],
            ref,
            self.grid.values[:, np.newaxis],
            self.setup.samples_per_second,
        )
        return np.rint(shifts).astype(np.int64)

    @cached_property
    def effective_delay_table(self) -> np.ndarray:
        """The brute-force-equivalent table of this decomposition.

        ``effective[dm, ch] = intra[dm_c, ch] + subband[dm, sub(ch)]`` —
        used by tests (the two-step execution must match brute force with
        this exact table) and by :meth:`max_delay_error_samples`.
        """
        n_dms, c = self.grid.n_dms, self.setup.channels
        w = self.channels_per_subband
        eff = np.empty((n_dms, c), dtype=np.int64)
        for dm in range(n_dms):
            coarse = self.coarse_index(dm)
            intra = self.intra_subband_table[coarse]
            for sub in range(self.n_subbands):
                sl = slice(sub * w, (sub + 1) * w)
                eff[dm, sl] = intra[sl] + self.subband_table[dm, sub]
        return eff

    def max_delay_error_samples(self) -> int:
        """Worst-case shift error versus exact dedispersion (samples).

        This is the extra smearing the two-step approximation can add to
        any channel at any fine DM; choose ``coarse_factor`` and
        ``n_subbands`` so it stays within the pulse width you search for.
        """
        exact = delay_table(self.setup, self.grid.values)
        return int(np.abs(self.effective_delay_table - exact).max())

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def flops(self, samples: int | None = None) -> int:
        """Total FLOPs of the two-step decomposition."""
        s = self.setup.samples_per_batch if samples is None else samples
        step1 = self.coarse_grid.n_dms * s * self.setup.channels
        step2 = self.grid.n_dms * s * self.n_subbands
        return step1 + step2

    def flop_reduction(self, samples: int | None = None) -> float:
        """Brute-force FLOPs over two-step FLOPs (> 1 means cheaper)."""
        s = self.setup.samples_per_batch if samples is None else samples
        brute = self.grid.n_dms * s * self.setup.channels
        return brute / self.flops(s)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, input_data: np.ndarray, samples: int | None = None) -> np.ndarray:
        """Two-step dedispersion of one batch; returns ``(n_dms, samples)``.

        ``input_data`` must cover ``samples`` plus the grid's maximum
        delay, exactly like the brute-force kernels.
        """
        s = self.setup.samples_per_batch if samples is None else samples
        input_data = np.asarray(input_data)
        if input_data.ndim != 2 or input_data.shape[0] != self.setup.channels:
            raise ValidationError(
                f"input must have shape (channels={self.setup.channels}, t),"
                f" got {input_data.shape}"
            )
        needed = s + int(self.effective_delay_table.max(initial=0))
        if input_data.shape[1] < needed:
            raise ValidationError(
                f"input has {input_data.shape[1]} samples; needs {needed}"
            )

        # Step 1: per-subband internal dedispersion at coarse DMs.  Each
        # intermediate series keeps exactly the trailing samples the step-2
        # shifts of *its own* coarse block need — sizing it to the global
        # maximum would read past inputs sized for the effective table.
        w = self.channels_per_subband
        intra = self.intra_subband_table
        f = self.coarse_factor
        intermediate: list[list[np.ndarray]] = []
        for coarse in range(self.coarse_grid.n_dms):
            dm_lo = coarse * f
            dm_hi = min(dm_lo + f, self.grid.n_dms)
            per_subband: list[np.ndarray] = []
            for sub in range(self.n_subbands):
                max_shift = int(self.subband_table[dm_lo:dm_hi, sub].max())
                length = s + max_shift
                acc = np.zeros(length, dtype=np.float32)
                for local in range(w):
                    ch = sub * w + local
                    start = int(intra[coarse, ch])
                    acc += input_data[ch, start : start + length]
                per_subband.append(acc)
            intermediate.append(per_subband)

        # Step 2: per fine DM, shift-and-sum the subband series.
        out = np.zeros((self.grid.n_dms, s), dtype=np.float32)
        for dm in range(self.grid.n_dms):
            coarse = self.coarse_index(dm)
            row = out[dm]
            for sub in range(self.n_subbands):
                shift = int(self.subband_table[dm, sub])
                row += intermediate[coarse][sub][shift : shift + s]
        return out
