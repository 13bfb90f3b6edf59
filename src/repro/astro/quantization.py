"""Input quantization: the 8-bit samples real telescopes actually deliver.

The paper's analysis assumes single-precision (4-byte) samples, giving the
Eq. 2 bound ``AI < 1/4``.  Real back-ends (Apertif, LOFAR, and the
AMBER pipeline the authors later built) deliver 8-bit — sometimes 2-bit —
samples, which quarters the input traffic and correspondingly *raises*
the arithmetic-intensity bound: with ``b`` bytes per input sample,

    AI < 1 / (b + eps).

This module provides the digitiser model (mean/sigma-anchored linear
quantisation, the standard radio-astronomy convention), the dequantiser,
the S/N-loss accounting, and the modified AI bound, so the repository can
quantify what the paper's FP32 assumption costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

#: Digitiser head-room: the represented range spans +/- this many sigma
#: around the mean (the classical choice for 8-bit pulsar back-ends).
DEFAULT_SIGMA_RANGE: float = 6.0

#: Quantisation efficiency (fraction of S/N retained) for common depths,
#: from the classical Thompson/Moran/Swenson analysis.
QUANTIZATION_EFFICIENCY: dict[int, float] = {
    1: 0.64,
    2: 0.88,
    4: 0.98,
    8: 0.999,
}


@dataclass(frozen=True)
class QuantizedData:
    """Quantised samples plus the affine transform to undo them."""

    data: np.ndarray  # uint8, same shape as the input
    scale: float
    offset: float
    nbits: int

    def dequantize(self) -> np.ndarray:
        """Recover float32 samples (up to the quantisation error)."""
        return (
            self.data.astype(np.float32) * np.float32(self.scale)
            + np.float32(self.offset)
        )

    @property
    def step(self) -> float:
        """The quantisation step in input units."""
        return self.scale


def quantize(
    data: np.ndarray,
    nbits: int = 8,
    sigma_range: float = DEFAULT_SIGMA_RANGE,
) -> QuantizedData:
    """Linearly quantise float samples to ``nbits`` unsigned levels.

    The representable range is ``mean +/- sigma_range * std`` of the input
    (values outside saturate), matching how telescope digitisers are
    levelled against the radiometer noise.
    """
    if nbits not in (1, 2, 4, 8):
        raise ValidationError("nbits must be one of 1, 2, 4, 8")
    if sigma_range <= 0:
        raise ValidationError("sigma_range must be positive")
    data = np.asarray(data, dtype=np.float64)
    levels = (1 << nbits) - 1
    mean = float(data.mean())
    std = float(data.std())
    if std == 0.0:
        std = 1.0
    low = mean - sigma_range * std
    high = mean + sigma_range * std
    scale = (high - low) / levels
    codes = np.rint((data - low) / scale)
    codes = np.clip(codes, 0, levels).astype(np.uint8)
    return QuantizedData(data=codes, scale=scale, offset=low, nbits=nbits)


def snr_efficiency(nbits: int) -> float:
    """Fraction of S/N a correlating system retains at this bit depth."""
    try:
        return QUANTIZATION_EFFICIENCY[nbits]
    except KeyError:
        raise ValidationError("nbits must be one of 1, 2, 4, 8") from None


def ai_bound_with_input_bytes(bytes_per_sample: float, epsilon: float = 0.0) -> float:
    """Eq. 2 generalised to arbitrary input sample width.

    ``bytes_per_sample=4`` recovers the paper's 1/4 bound; 8-bit input
    lifts it to ~1, shifting dedispersion towards (but, on the paper's
    devices, still not across) the compute-bound regime.
    """
    if bytes_per_sample <= 0:
        raise ValidationError("bytes_per_sample must be positive")
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    return 1.0 / (bytes_per_sample + epsilon)
