"""Cold-plasma dispersion delay model (paper Eq. 1) and delay tables.

The delay of a frequency component ``f_i`` relative to the highest observed
frequency ``f_h`` for dispersion measure ``DM`` is::

    k ~= 4150 * DM * (1/f_i^2 - 1/f_h^2)   [seconds, frequencies in MHz]

Delays are precomputed into a (DM, channel) table of integer sample shifts,
exactly as the paper does ("these delays can be computed in advance, so they
do not contribute to the algorithm's complexity", Sec. III-A).

This module also quantifies *data-reuse spans*: for a contiguous tile of
trial DMs, the number of extra input samples a channel needs beyond the tile
width.  Small spans (high frequencies, e.g. Apertif) mean the per-DM input
windows overlap almost completely and can be reused; large spans (low
frequencies, e.g. LOFAR) preclude reuse.  This quantity drives both the
performance model and the paper's Eq. 3 discussion.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DISPERSION_CONSTANT
from repro.errors import ValidationError
from repro.astro.observation import ObservationSetup


def dispersion_delay_seconds(
    frequency_mhz: float | np.ndarray,
    reference_mhz: float,
    dm: float | np.ndarray,
    dispersion_constant: float = DISPERSION_CONSTANT,
) -> float | np.ndarray:
    """Dispersion delay in seconds of ``frequency_mhz`` vs ``reference_mhz``.

    Vectorised over both frequency and DM (broadcasting).  Negative DMs are
    rejected; frequencies must be positive.  For ``frequency > reference``
    the delay is negative (that component arrives *earlier*), which callers
    normally avoid by choosing the highest frequency as reference.
    """
    freq = np.asarray(frequency_mhz, dtype=np.float64)
    dm_arr = np.asarray(dm, dtype=np.float64)
    if np.any(freq <= 0) or reference_mhz <= 0:
        raise ValidationError("frequencies must be positive")
    if np.any(dm_arr < 0):
        raise ValidationError("DM must be non-negative")
    delay = dispersion_constant * dm_arr * (1.0 / freq ** 2 - 1.0 / reference_mhz ** 2)
    if np.isscalar(frequency_mhz) and np.isscalar(dm):
        return float(delay)
    return delay


def delay_samples(
    frequency_mhz: float | np.ndarray,
    reference_mhz: float,
    dm: float | np.ndarray,
    samples_per_second: int,
    dispersion_constant: float = DISPERSION_CONSTANT,
) -> float | np.ndarray:
    """Dispersion delay expressed in (fractional) samples."""
    delay = dispersion_delay_seconds(
        frequency_mhz, reference_mhz, dm, dispersion_constant
    )
    return delay * samples_per_second


def delay_table(
    setup: ObservationSetup,
    dms: np.ndarray,
    dispersion_constant: float = DISPERSION_CONSTANT,
) -> np.ndarray:
    """Integer sample-shift table of shape ``(len(dms), channels)``.

    ``table[d, c]`` is the number of samples channel ``c`` must be shifted
    *back* in time to align with the reference (highest) frequency for trial
    DM ``dms[d]``.  Shifts are rounded to the nearest sample, are always
    non-negative, and the reference channel's shift is zero for every DM.
    """
    dms = np.asarray(dms, dtype=np.float64)
    if dms.ndim != 1:
        raise ValidationError(f"dms must be 1-D, got shape {dms.shape}")
    if np.any(dms < 0):
        raise ValidationError("trial DMs must be non-negative")
    freqs = setup.channel_frequencies  # (c,)
    fractional = delay_samples(
        freqs[np.newaxis, :],
        setup.reference_frequency,
        dms[:, np.newaxis],
        setup.samples_per_second,
        dispersion_constant,
    )
    table = np.rint(fractional).astype(np.int64)
    # The reference is the centre of the top channel, so its own delay is
    # exactly zero and every other channel's delay is non-negative.
    return table


def max_delay_samples(setup: ObservationSetup, max_dm: float) -> int:
    """Largest sample shift across all channels at DM ``max_dm``."""
    if max_dm < 0:
        raise ValidationError("max_dm must be non-negative")
    shift = delay_samples(
        float(setup.channel_frequencies[0]),
        setup.reference_frequency,
        max_dm,
        setup.samples_per_second,
    )
    return int(np.rint(shift))


def dispersion_smearing_seconds(
    frequency_mhz: float,
    channel_bandwidth_mhz: float,
    dm: float,
    dispersion_constant: float = DISPERSION_CONSTANT,
) -> float:
    """Intra-channel dispersion smearing time at a channel (seconds).

    The residual smearing inside one channel of width ``channel_bandwidth``
    centred on ``frequency``; the classical ``8.3e3 * DM * df / f^3`` us
    formula expressed through the same dispersion constant used elsewhere.
    Incoherent dedispersion cannot remove this smearing; it sets the optimal
    DM-step and is used by signal generation to smear injected pulses.
    """
    if frequency_mhz <= 0 or channel_bandwidth_mhz <= 0:
        raise ValidationError("frequency and bandwidth must be positive")
    if dm < 0:
        raise ValidationError("DM must be non-negative")
    return (
        2.0
        * dispersion_constant
        * dm
        * channel_bandwidth_mhz
        / frequency_mhz ** 3
    )


def reuse_span_samples(
    setup: ObservationSetup,
    dm_low: float,
    dm_high: float,
) -> np.ndarray:
    """Per-channel delay span (samples) across the DM interval, shape (c,).

    ``span[c] = delay(c, dm_high) - delay(c, dm_low)`` in integer samples.
    A work-group that computes every DM in ``[dm_low, dm_high]`` must load
    ``tile_width + span[c]`` samples of channel ``c``; the smaller the span
    relative to the tile width, the more reuse is available (Sec. III-A).
    """
    if dm_high < dm_low:
        raise ValidationError("dm_high must be >= dm_low")
    table = delay_table(setup, np.asarray([dm_low, dm_high]))
    return (table[1] - table[0]).astype(np.int64)
