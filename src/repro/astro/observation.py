"""Observational setups: channelisation, sampling, and FLOP accounting.

The paper evaluates two complementary setups (Sec. IV):

* **Apertif** (Westerbork): 20,000 samples/s, 300 MHz bandwidth split into
  1,024 channels of ~0.29 MHz, 1,420-1,720 MHz.  Computationally intensive
  (20 MFLOP per DM) with high available data-reuse (high frequencies =>
  small, slowly diverging delays).
* **LOFAR**: 200,000 samples/s, 6 MHz bandwidth split into 32 channels of
  ~0.19 MHz, 138-145 MHz.  Lighter per DM (~6 MFLOP) but with almost no
  exploitable data-reuse (low frequencies => rapidly diverging delays).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.constants import BYTES_PER_SAMPLE, FLOP_PER_ELEMENT
from repro.errors import ValidationError
from repro.utils.validation import require, require_positive, require_positive_int


@dataclass(frozen=True)
class ObservationSetup:
    """A channelised observing configuration.

    Frequencies are in MHz.  ``lowest_frequency`` is the *bottom edge* of the
    lowest channel; channel centre frequencies are derived from it and
    ``channel_bandwidth``.  ``samples_per_second`` is the time resolution of
    the channelised time-series, and ``samples_per_batch`` is the number of
    output samples a single kernel invocation produces per DM (one second of
    data by default, following the paper's real-time framing).
    """

    name: str
    channels: int
    lowest_frequency: float
    channel_bandwidth: float
    samples_per_second: int
    samples_per_batch: int = 0  # defaults to samples_per_second

    def __post_init__(self) -> None:
        require(bool(self.name), "setup name must be non-empty")
        require_positive_int(self.channels, "channels")
        require_positive(self.lowest_frequency, "lowest_frequency")
        require_positive(self.channel_bandwidth, "channel_bandwidth")
        require_positive_int(self.samples_per_second, "samples_per_second")
        if self.samples_per_batch == 0:
            object.__setattr__(self, "samples_per_batch", self.samples_per_second)
        require_positive_int(self.samples_per_batch, "samples_per_batch")

    # ------------------------------------------------------------------
    # Frequency geometry
    # ------------------------------------------------------------------
    @property
    def bandwidth(self) -> float:
        """Total bandwidth in MHz."""
        return self.channels * self.channel_bandwidth

    @property
    def highest_frequency(self) -> float:
        """Top edge of the highest channel in MHz."""
        return self.lowest_frequency + self.bandwidth

    @cached_property
    def channel_frequencies(self) -> np.ndarray:
        """Centre frequency of every channel (MHz), ascending, shape (c,)."""
        edges = self.lowest_frequency + self.channel_bandwidth * np.arange(
            self.channels, dtype=np.float64
        )
        return edges + 0.5 * self.channel_bandwidth

    @property
    def reference_frequency(self) -> float:
        """Frequency (MHz) that dedispersion delays are measured against.

        The paper aligns every channel to the highest frequency (Eq. 1 uses
        ``f_h``); we use the centre of the top channel so the top channel's
        own delay is exactly zero.
        """
        return float(self.channel_frequencies[-1])

    # ------------------------------------------------------------------
    # Workload accounting
    # ------------------------------------------------------------------
    def flops_per_dm(self, samples: int | None = None) -> int:
        """FLOPs to dedisperse ``samples`` output samples for one trial DM.

        With the paper's accounting (one accumulate per channel per output
        sample) Apertif costs 20,000 x 1,024 ~= 20 MFLOP per DM and LOFAR
        200,000 x 32 = 6.4 MFLOP per DM, matching Sec. IV.
        """
        s = self.samples_per_batch if samples is None else samples
        require_positive_int(s, "samples")
        return FLOP_PER_ELEMENT * s * self.channels

    def total_flops(self, n_dms: int, samples: int | None = None) -> int:
        """FLOPs to dedisperse ``samples`` output samples for ``n_dms`` DMs."""
        require_positive_int(n_dms, "n_dms")
        return n_dms * self.flops_per_dm(samples)

    def realtime_gflops(self, n_dms: int) -> float:
        """GFLOP/s needed to dedisperse one second of data in one second.

        This is the "real-time" line in the paper's Figs. 6 and 7: below this
        sustained rate an implementation cannot keep up with the telescope.
        """
        return self.total_flops(n_dms, self.samples_per_second) / 1e9

    def input_bytes(self, max_dm: float, samples: int | None = None) -> int:
        """Size of the channelised input needed for one batch.

        The time dimension must cover the batch plus the maximum delay at
        the highest trial DM ``max_dm`` (Sec. III-A: ``t`` is the number of
        samples necessary to dedisperse one second of data at the highest
        trial DM).
        """
        # Local import: repro.astro.dispersion imports this module.
        from repro.astro.dispersion import max_delay_samples

        s = self.samples_per_batch if samples is None else samples
        return BYTES_PER_SAMPLE * self.channels * (
            s + max_delay_samples(self, max_dm)
        )

    def output_bytes(self, n_dms: int, samples: int | None = None) -> int:
        """Size of the dedispersed output (d x s single-precision matrix)."""
        s = self.samples_per_batch if samples is None else samples
        return BYTES_PER_SAMPLE * n_dms * s

    def describe(self) -> str:
        """One-line human readable summary."""
        return (
            f"{self.name}: {self.channels} ch x {self.channel_bandwidth:.2f} MHz "
            f"[{self.lowest_frequency:.0f}-{self.highest_frequency:.0f} MHz], "
            f"{self.samples_per_second:,} samples/s"
        )


def apertif(samples_per_batch: int | None = None) -> ObservationSetup:
    """The paper's Apertif (Westerbork) setup (Sec. IV)."""
    return ObservationSetup(
        name="Apertif",
        channels=1024,
        lowest_frequency=1420.0,
        channel_bandwidth=300.0 / 1024.0,
        samples_per_second=20_000,
        samples_per_batch=samples_per_batch or 0,
    )


def lofar(samples_per_batch: int | None = None) -> ObservationSetup:
    """The paper's LOFAR setup (Sec. IV)."""
    return ObservationSetup(
        name="LOFAR",
        channels=32,
        lowest_frequency=138.0,
        channel_bandwidth=6.0 / 32.0,
        samples_per_second=200_000,
        samples_per_batch=samples_per_batch or 0,
    )


def setup_by_name(name: str) -> ObservationSetup:
    """The paper's setup named ``name`` (apertif or lofar, any case)."""
    factories = {"apertif": apertif, "lofar": lofar}
    try:
        return factories[name.lower()]()
    except KeyError:
        raise ValidationError(
            f"unknown setup {name!r}; known: apertif, lofar"
        ) from None
