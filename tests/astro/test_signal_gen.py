"""Unit tests for repro.astro.signal_gen.

The pulse physics is reached through
:class:`~repro.astro.source.PulsarSource`, which wraps ``_inject_pulse``.
"""

import numpy as np
import pytest

from repro.astro.dispersion import delay_table, max_delay_samples
from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.source import PulsarSource
from repro.errors import ValidationError
from repro.utils.rng import RandomStreams


def pulse(setup, pulsar, max_dm: float = 0.0, smear: bool = True):
    """One noiseless second of ``pulsar``, plus the delay at ``max_dm``."""
    n_samples = setup.samples_per_second + max_delay_samples(setup, max_dm)
    data, _ = PulsarSource(pulsar, smear=smear).generate(
        setup, n_samples, RandomStreams(0)
    )
    return data


class TestSyntheticPulsar:
    def test_valid_construction(self):
        p = SyntheticPulsar(period_seconds=0.1, dm=5.0)
        assert p.amplitude == 1.0

    def test_rejects_bad_period(self):
        with pytest.raises(ValidationError):
            SyntheticPulsar(period_seconds=0.0, dm=1.0)

    def test_rejects_negative_dm(self):
        with pytest.raises(ValidationError):
            SyntheticPulsar(period_seconds=0.1, dm=-1.0)

    def test_flat_spectrum_by_default(self, toy_low):
        p = SyntheticPulsar(period_seconds=0.1, dm=1.0, amplitude=2.0)
        amps = p.channel_amplitudes(toy_low.channel_frequencies)
        assert np.allclose(amps, 2.0)

    def test_steep_spectrum_favours_low_frequencies(self, toy_low):
        p = SyntheticPulsar(period_seconds=0.1, dm=1.0, spectral_index=-2.0)
        amps = p.channel_amplitudes(toy_low.channel_frequencies)
        assert amps[0] > amps[-1]


class TestInjectPulse:
    def test_adds_energy(self, toy_low):
        pulsar = SyntheticPulsar(period_seconds=0.2, dm=2.0)
        assert pulse(toy_low, pulsar, max_dm=2.0).sum() > 0

    def test_pulse_is_dispersed(self, toy_low):
        # The pulse peak in the lowest channel must lag the highest channel
        # by exactly the Eq. 1 delay (to sample resolution).
        pulsar = SyntheticPulsar(period_seconds=1.0, dm=4.0)
        data = pulse(toy_low, pulsar, max_dm=4.0, smear=False)
        shifts = delay_table(toy_low, np.array([4.0]))[0]
        peak_low = int(np.argmax(data[0]))
        peak_high = int(np.argmax(data[-1]))
        assert peak_low - peak_high == pytest.approx(
            shifts[0] - shifts[-1], abs=1
        )

    def test_zero_dm_pulse_aligned(self, toy_low):
        pulsar = SyntheticPulsar(period_seconds=1.0, dm=0.0)
        data = pulse(toy_low, pulsar, smear=False)
        peaks = [int(np.argmax(data[c])) for c in range(toy_low.channels)]
        assert max(peaks) - min(peaks) <= 1

    def test_smearing_widens_low_channels(self, toy_low):
        pulsar = SyntheticPulsar(period_seconds=1.0, dm=30.0)
        crisp = pulse(toy_low, pulsar, max_dm=30.0, smear=False)
        smeared = pulse(toy_low, pulsar, max_dm=30.0, smear=True)
        # Same fluence, lower peak => wider pulse in the lowest channel.
        assert smeared[0].max() < crisp[0].max()

    def test_rejects_wrong_shape(self, toy_low):
        pulsar = SyntheticPulsar(period_seconds=0.1, dm=1.0)
        with pytest.raises(ValidationError):
            PulsarSource(pulsar).add_to(
                np.zeros((3, 100), dtype=np.float32),
                toy_low,
                RandomStreams(0),
            )
