"""Radio-frequency interference: injection and mitigation.

Terrestrial interference is the bane of transient surveys: impulsive
broadband RFI arrives *undispersed* (it does not traverse the interstellar
medium), so it peaks at DM 0 and masquerades as a bright low-DM candidate;
narrowband RFI saturates individual channels.  This module provides

* injectors for both RFI classes (for robustness testing), and
* the two standard mitigations: per-channel masking by excess variance,
  and the *zero-DM filter* (Eatough et al. 2009) that subtracts the
  per-sample band average, annihilating undispersed signals while barely
  touching dispersed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import require_non_negative, require_positive


def _inject_broadband_rfi(
    data: np.ndarray,
    sample_indices: list[int] | np.ndarray,
    amplitude: float = 5.0,
    width: int = 2,
) -> np.ndarray:
    """Add undispersed impulsive RFI hitting all channels simultaneously."""
    if data.ndim != 2:
        raise ValidationError("data must be 2-D (channels, time)")
    require_positive(amplitude, "amplitude")
    if width < 1:
        raise ValidationError("width must be >= 1")
    for start in np.asarray(sample_indices, dtype=np.int64):
        if not 0 <= start < data.shape[1]:
            raise ValidationError(f"sample index {start} out of range")
        stop = min(int(start) + width, data.shape[1])
        data[:, int(start):stop] += np.float32(amplitude)
    return data


def _inject_narrowband_rfi(
    data: np.ndarray,
    channel_indices: list[int] | np.ndarray,
    amplitude: float = 3.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Add persistent noisy carriers to individual channels."""
    if data.ndim != 2:
        raise ValidationError("data must be 2-D (channels, time)")
    require_positive(amplitude, "amplitude")
    rng = rng or np.random.default_rng(0)
    for ch in np.asarray(channel_indices, dtype=np.int64):
        if not 0 <= ch < data.shape[0]:
            raise ValidationError(f"channel index {ch} out of range")
        data[int(ch)] += amplitude * (
            1.0 + rng.normal(0.0, 0.5, size=data.shape[1])
        ).astype(data.dtype)
    return data


@dataclass(frozen=True)
class ChannelMask:
    """Which channels were excised and why."""

    mask: np.ndarray  # bool, (channels,), True = keep
    variances: np.ndarray
    threshold: float

    @property
    def n_masked(self) -> int:
        """Number of excised channels."""
        return int(np.sum(~self.mask))


def mask_noisy_channels(
    data: np.ndarray, sigma_threshold: float = 5.0
) -> ChannelMask:
    """Excise channels whose variance is an outlier (narrowband RFI).

    Robust detection: a channel is masked when its variance exceeds the
    median by ``sigma_threshold`` MAD-sigmas.  Masked channels are zeroed
    in place (zero contributes nothing to a dedispersed sum).
    """
    if data.ndim != 2:
        raise ValidationError("data must be 2-D (channels, time)")
    require_non_negative(sigma_threshold, "sigma_threshold")
    variances = data.var(axis=1)
    median = float(np.median(variances))
    mad = float(np.median(np.abs(variances - median)))
    sigma = 1.4826 * mad if mad > 0 else float(variances.std()) or 1.0
    keep = variances <= median + sigma_threshold * sigma
    data[~keep] = 0.0
    return ChannelMask(
        mask=keep, variances=variances, threshold=sigma_threshold
    )


def zero_dm_filter(data: np.ndarray) -> np.ndarray:
    """Subtract the per-sample band mean (the zero-DM filter), in place.

    Undispersed (DM 0) signals appear identically in every channel, so
    removing the instantaneous band average annihilates them; a properly
    dispersed pulse occupies only ~one channel per sample and loses just
    1/channels of its amplitude.

    Note that the DM-0 dedispersed series of filtered data is identically
    zero by construction (it *is* the removed band average), so pipelines
    using this filter start their trial grid above zero — searching the
    null series would only amplify floating-point residue.
    """
    if data.ndim != 2:
        raise ValidationError("data must be 2-D (channels, time)")
    band_mean = data.mean(axis=0, keepdims=True)
    data -= band_mean.astype(data.dtype)
    return data
