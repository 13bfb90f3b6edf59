"""Unit tests for repro.astro.observation."""

import numpy as np
import pytest

from repro.astro.observation import ObservationSetup, apertif, lofar
from repro.errors import ValidationError


class TestApertifSetup:
    def test_paper_parameters(self):
        setup = apertif()
        assert setup.channels == 1024
        assert setup.samples_per_second == 20_000
        assert setup.lowest_frequency == pytest.approx(1420.0)
        assert setup.highest_frequency == pytest.approx(1720.0)
        assert setup.bandwidth == pytest.approx(300.0)

    def test_channel_width_matches_paper(self):
        # "1,024 frequency channels of 0.29 MHz each"
        assert apertif().channel_bandwidth == pytest.approx(0.293, abs=0.01)

    def test_flops_per_dm_is_20_mflop(self):
        # Sec. IV: "20 MFLOP per DM"
        assert apertif().flops_per_dm() == 20_000 * 1024

    def test_custom_batch(self):
        setup = apertif(samples_per_batch=2000)
        assert setup.samples_per_batch == 2000
        assert setup.samples_per_second == 20_000


class TestLofarSetup:
    def test_paper_parameters(self):
        setup = lofar()
        assert setup.channels == 32
        assert setup.samples_per_second == 200_000
        assert setup.lowest_frequency == pytest.approx(138.0)
        assert setup.bandwidth == pytest.approx(6.0)

    def test_flops_per_dm_is_6_mflop(self):
        # Sec. IV: "just 6 MFLOP per DM" (6.4 exactly)
        assert lofar().flops_per_dm() == 200_000 * 32

    def test_apertif_is_3x_lofar_per_dm(self):
        # Sec. IV: Apertif involves "three times more" work per DM.
        ratio = apertif().flops_per_dm() / lofar().flops_per_dm()
        assert ratio == pytest.approx(3.2)


class TestChannelFrequencies:
    def test_ascending_centres(self):
        freqs = apertif().channel_frequencies
        assert freqs.shape == (1024,)
        assert np.all(np.diff(freqs) > 0)

    def test_centres_inside_band(self):
        setup = lofar()
        freqs = setup.channel_frequencies
        assert freqs[0] > setup.lowest_frequency
        assert freqs[-1] < setup.highest_frequency

    def test_reference_is_top_channel_centre(self):
        setup = lofar()
        assert setup.reference_frequency == pytest.approx(
            float(setup.channel_frequencies[-1])
        )


class TestWorkloadAccounting:
    def test_total_flops_scales_linearly_in_dms(self):
        setup = apertif()
        assert setup.total_flops(100) == 100 * setup.flops_per_dm()

    def test_realtime_threshold(self):
        # 1,024 DMs x 20.48 MFLOP must be done in one second.
        assert apertif().realtime_gflops(1024) == pytest.approx(20.97, rel=0.01)

    def test_output_bytes(self):
        assert apertif().output_bytes(4) == 4 * 20_000 * 4

    def test_input_bytes_includes_max_delay(self):
        setup = lofar()
        base = setup.channels * setup.samples_per_batch * 4
        assert setup.input_bytes(63.75) > base

    def test_input_bytes_no_delay_at_single_zero_dm(self):
        setup = lofar()
        assert setup.input_bytes(0.0) == setup.channels * 4 * (
            setup.samples_per_batch
        )


class TestValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            ObservationSetup(
                name="",
                channels=4,
                lowest_frequency=100.0,
                channel_bandwidth=1.0,
                samples_per_second=100,
            )

    @pytest.mark.parametrize("channels", [0, -3])
    def test_rejects_bad_channels(self, channels):
        with pytest.raises(ValidationError):
            ObservationSetup(
                name="x",
                channels=channels,
                lowest_frequency=100.0,
                channel_bandwidth=1.0,
                samples_per_second=100,
            )

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValidationError):
            ObservationSetup(
                name="x",
                channels=4,
                lowest_frequency=-1.0,
                channel_bandwidth=1.0,
                samples_per_second=100,
            )

    def test_describe_mentions_name_and_channels(self):
        text = apertif().describe()
        assert "Apertif" in text and "1024" in text
