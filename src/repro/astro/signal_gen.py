"""Synthetic channelised observations with dispersed pulsar injections.

The paper assumes telescope data is already resident in accelerator memory;
for an end-to-end reproduction we need that data.  This module produces
channelised time-series (the ``c x t`` single-precision matrix of
Sec. III-A) containing radiometer noise plus a periodic pulsar dispersed
according to Eq. 1, so that dedispersion at the true DM demonstrably
recovers the pulse while wrong trial DMs smear it below the noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.astro.dispersion import delay_table, dispersion_smearing_seconds
from repro.astro.observation import ObservationSetup
from repro.astro.pulse import PulseProfile, gaussian_profile
from repro.errors import ValidationError
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class SyntheticPulsar:
    """A pulsar to inject: period, DM, per-channel amplitude and shape."""

    period_seconds: float
    dm: float
    amplitude: float = 1.0
    profile: PulseProfile = field(default_factory=gaussian_profile)
    spectral_index: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.period_seconds, "period_seconds")
        require_non_negative(self.dm, "dm")
        require_positive(self.amplitude, "amplitude")

    def channel_amplitudes(self, frequencies_mhz: np.ndarray) -> np.ndarray:
        """Per-channel amplitude following a power-law spectrum.

        Pulsars are steep-spectrum sources (S ~ f^alpha with alpha typically
        around -1.5); ``spectral_index=0`` keeps the injection flat, which is
        convenient for tests.
        """
        ref = float(frequencies_mhz[-1])
        return self.amplitude * (frequencies_mhz / ref) ** self.spectral_index


def _inject_pulse(
    data: np.ndarray,
    setup: ObservationSetup,
    pulsar: SyntheticPulsar,
    smear: bool = True,
) -> np.ndarray:
    """Add a dispersed periodic pulsar into ``data`` (shape ``(c, t)``).

    The pulse train is evaluated per channel at the channel's dispersed
    arrival phase; intra-channel smearing (which incoherent dedispersion
    cannot undo) widens the effective profile per channel when ``smear`` is
    true.  Returns ``data`` (modified in place) for chaining.
    """
    if data.ndim != 2 or data.shape[0] != setup.channels:
        raise ValidationError(
            f"data must have shape (channels={setup.channels}, t), got {data.shape}"
        )
    c, t = data.shape
    freqs = setup.channel_frequencies
    shifts = delay_table(setup, np.asarray([pulsar.dm]))[0]  # (c,)
    amps = pulsar.channel_amplitudes(freqs)
    times = np.arange(t, dtype=np.float64) / setup.samples_per_second
    base_width = pulsar.profile.width
    for ch in range(c):
        # Arrival time at this channel lags the reference by the dispersion
        # delay; phase is measured against the pulsar period.
        delay_s = shifts[ch] / setup.samples_per_second
        phase = (times - delay_s) / pulsar.period_seconds
        if smear:
            smear_s = dispersion_smearing_seconds(
                float(freqs[ch]), setup.channel_bandwidth, pulsar.dm
            )
            smear_phase = smear_s / pulsar.period_seconds
            width = float(np.hypot(base_width, smear_phase / 2.355))
            width = min(width, 0.49)
            # Substitute a widened Gaussian envelope at the profile's
            # centre; amplitude is scaled to conserve pulse fluence.
            centre = pulsar.profile.centre
            d = phase - centre
            d -= np.rint(d)
            contribution = np.exp(-0.5 * (d / width) ** 2) * (base_width / width)
        else:
            contribution = pulsar.profile.evaluate(phase)
        data[ch] += (amps[ch] * contribution).astype(data.dtype, copy=False)
    return data


def _generate_observation(
    setup: ObservationSetup,
    duration_seconds: float,
    pulsars: tuple[SyntheticPulsar, ...] | list[SyntheticPulsar] = (),
    noise_sigma: float = 1.0,
    max_dm: float | None = None,
    rng: np.random.Generator | None = None,
    smear: bool = True,
) -> np.ndarray:
    """Produce a channelised time-series of shape ``(channels, t)``.

    ``t`` covers ``duration_seconds`` plus, when ``max_dm`` is given, the
    maximum dispersion delay so that every output sample of a subsequent
    dedispersion at DMs up to ``max_dm`` has valid input (the paper's
    definition of the input time dimension).
    """
    require_positive(duration_seconds, "duration_seconds")
    require_non_negative(noise_sigma, "noise_sigma")
    rng = rng or np.random.default_rng(0)

    samples = int(round(duration_seconds * setup.samples_per_second))
    if max_dm is not None:
        from repro.astro.dispersion import max_delay_samples

        samples += max_delay_samples(setup, max_dm)
    if samples <= 0:
        raise ValidationError("observation would contain no samples")

    if noise_sigma > 0:
        data = rng.normal(0.0, noise_sigma, size=(setup.channels, samples))
        data = data.astype(np.float32)
    else:
        data = np.zeros((setup.channels, samples), dtype=np.float32)
    for pulsar in pulsars:
        _inject_pulse(data, setup, pulsar, smear=smear)
    return data
