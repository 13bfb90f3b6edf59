"""Boxcar signal-to-noise of one dedispersed series, the detector's oracle.

After brute-force dedispersion, each trial DM yields a time-series; the
astrophysically interesting question is which trial maximises the recovered
pulse signal-to-noise.  The pipeline answers it with the vectorized
:class:`repro.search.detect.MatchedFilterDetector`.  This module keeps the
same boxcar matched filter spelled one series at a time, with robust noise
estimation, as the reference the detector is tested against bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


def _robust_stats(series: np.ndarray) -> tuple[float, float]:
    """Median / MAD-based (mean, sigma) estimate, robust to bright pulses."""
    median = float(np.median(series))
    mad = float(np.median(np.abs(series - median)))
    sigma = 1.4826 * mad if mad > 0 else float(np.std(series)) or 1.0
    return median, sigma


def boxcar_snr(series: np.ndarray, width: int) -> np.ndarray:
    """S/N of a boxcar matched filter of ``width`` samples at each offset.

    The filter sums ``width`` consecutive samples; S/N normalisation divides
    by ``sigma * sqrt(width)`` so that white noise gives unit-variance
    output regardless of width.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValidationError("series must be 1-D")
    if width <= 0 or width > series.size:
        raise ValidationError(
            f"width must be in [1, {series.size}], got {width}"
        )
    mean, sigma = _robust_stats(series)
    centred = series - mean
    csum = np.concatenate(([0.0], np.cumsum(centred)))
    sums = csum[width:] - csum[:-width]
    return sums / (sigma * np.sqrt(width))


def best_boxcar_snr(
    series: np.ndarray, max_width: int | None = None
) -> tuple[float, int, int]:
    """Best (snr, width, offset) over powers-of-two boxcar widths."""
    series = np.asarray(series, dtype=np.float64)
    limit = max_width or max(1, series.size // 4)
    best = (-np.inf, 1, 0)
    width = 1
    while width <= limit:
        snr = boxcar_snr(series, width)
        idx = int(np.argmax(snr))
        if snr[idx] > best[0]:
            best = (float(snr[idx]), width, idx)
        width *= 2
    return best
