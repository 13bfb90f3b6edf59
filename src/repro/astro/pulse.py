"""Pulse profile shapes for synthetic pulsar generation.

Pulsar pulses are well modelled by narrow peaked profiles; we provide a
Gaussian and a Gaussian convolved with a one-sided exponential
scattering tail (thin-screen scattering, prominent at low frequencies
such as LOFAR's band).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ValidationError

ProfileFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PulseProfile:
    """A normalised pulse shape evaluated on phase in ``[0, 1)``.

    ``evaluate(phase)`` returns the profile amplitude with peak ~1.  The
    ``width`` is the characteristic width in phase units (e.g. FWHM/2.355
    for the Gaussian), retained for S/N normalisation.
    """

    name: str
    width: float
    _function: ProfileFunction
    #: Phase of the pulse peak in [0, 1); used by signal generation when it
    #: substitutes a smeared envelope for the exact shape.
    centre: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.width < 0.5:
            raise ValidationError(
                f"pulse width must be in (0, 0.5) phase units, got {self.width}"
            )

    def evaluate(self, phase: np.ndarray) -> np.ndarray:
        """Amplitude at each phase (phases outside [0,1) are wrapped)."""
        wrapped = np.mod(np.asarray(phase, dtype=np.float64), 1.0)
        return self._function(wrapped)

    def sample(self, n_bins: int) -> np.ndarray:
        """The profile evaluated on ``n_bins`` uniform phase bins."""
        if n_bins <= 0:
            raise ValidationError("n_bins must be positive")
        return self.evaluate(np.arange(n_bins, dtype=np.float64) / n_bins)


def _wrap_distance(phase: np.ndarray, centre: float) -> np.ndarray:
    """Shortest signed distance on the phase circle."""
    d = phase - centre
    return d - np.rint(d)


def gaussian_profile(width: float = 0.02, centre: float = 0.5) -> PulseProfile:
    """A Gaussian pulse of standard deviation ``width`` (phase units)."""

    def f(phase: np.ndarray) -> np.ndarray:
        d = _wrap_distance(phase, centre)
        return np.exp(-0.5 * (d / width) ** 2)

    return PulseProfile(name="gaussian", width=width, _function=f, centre=centre)


def scattered_profile(
    width: float = 0.01, tail: float = 0.05, centre: float = 0.3, n_grid: int = 4096
) -> PulseProfile:
    """A Gaussian convolved with a one-sided exponential scattering tail.

    ``tail`` is the exponential decay constant in phase units.  The
    convolution is evaluated once on a fine grid and interpolated, keeping
    ``evaluate`` cheap for large sample counts.
    """
    if not 0 < tail < 0.5:
        raise ValidationError(f"tail must be in (0, 0.5), got {tail}")
    grid = np.arange(n_grid, dtype=np.float64) / n_grid
    gauss = np.exp(-0.5 * (_wrap_distance(grid, centre) / width) ** 2)
    kernel = np.exp(-grid / tail)
    conv = np.real(np.fft.ifft(np.fft.fft(gauss) * np.fft.fft(kernel)))
    conv /= conv.max()

    def f(phase: np.ndarray) -> np.ndarray:
        return np.interp(phase, grid, conv, period=1.0)

    return PulseProfile(name="scattered", width=width, _function=f, centre=centre)
