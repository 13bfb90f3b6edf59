"""Unit tests for repro.astro.dispersion (paper Eq. 1)."""

import numpy as np
import pytest

from repro.astro.dispersion import (
    delay_samples,
    delay_table,
    dispersion_delay_seconds,
    dispersion_smearing_seconds,
    max_delay_samples,
    reuse_span_samples,
)
from repro.astro.observation import apertif, lofar
from repro.errors import ValidationError


class TestDispersionDelay:
    def test_equation_1_value(self):
        # k = 4150 * DM * (1/fi^2 - 1/fh^2); hand-checked point.
        k = dispersion_delay_seconds(100.0, 200.0, 1.0)
        expected = 4150.0 * (1 / 100.0 ** 2 - 1 / 200.0 ** 2)
        assert k == pytest.approx(expected)

    def test_zero_dm_means_zero_delay(self):
        assert dispersion_delay_seconds(120.0, 150.0, 0.0) == 0.0

    def test_reference_frequency_has_zero_delay(self):
        assert dispersion_delay_seconds(150.0, 150.0, 50.0) == 0.0

    def test_linear_in_dm(self):
        k1 = dispersion_delay_seconds(100.0, 200.0, 1.0)
        k5 = dispersion_delay_seconds(100.0, 200.0, 5.0)
        assert k5 == pytest.approx(5 * k1)

    def test_lower_frequencies_delayed_more(self):
        low = dispersion_delay_seconds(100.0, 200.0, 10.0)
        mid = dispersion_delay_seconds(150.0, 200.0, 10.0)
        assert low > mid > 0

    def test_nonlinear_in_frequency(self):
        # Delay differences diverge at low frequencies: the same 10-MHz gap
        # costs far more delay at 110 MHz than at 190 MHz.
        d_low = dispersion_delay_seconds(
            100.0, 200.0, 1.0
        ) - dispersion_delay_seconds(110.0, 200.0, 1.0)
        d_high = dispersion_delay_seconds(
            180.0, 200.0, 1.0
        ) - dispersion_delay_seconds(190.0, 200.0, 1.0)
        assert d_low > 5 * d_high

    def test_vectorised_over_frequency(self):
        freqs = np.array([100.0, 150.0, 200.0])
        delays = dispersion_delay_seconds(freqs, 200.0, 2.0)
        assert delays.shape == (3,)
        assert delays[2] == pytest.approx(0.0)

    def test_rejects_negative_dm(self):
        with pytest.raises(ValidationError):
            dispersion_delay_seconds(100.0, 200.0, -1.0)

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ValidationError):
            dispersion_delay_seconds(0.0, 200.0, 1.0)


class TestDelaySamples:
    def test_scales_with_sample_rate(self):
        k1 = delay_samples(100.0, 200.0, 1.0, 1000)
        k2 = delay_samples(100.0, 200.0, 1.0, 2000)
        assert k2 == pytest.approx(2 * k1)

    def test_lofar_magnitude(self):
        # LOFAR's lowest channel lags by roughly 4,000 samples per DM unit
        # (the divergence that kills its data-reuse).
        setup = lofar()
        k = delay_samples(
            float(setup.channel_frequencies[0]),
            setup.reference_frequency,
            1.0,
            setup.samples_per_second,
        )
        assert 3000 < k < 5000

    def test_apertif_magnitude(self):
        # Apertif's lowest channel lags by only ~13 samples per DM unit.
        setup = apertif()
        k = delay_samples(
            float(setup.channel_frequencies[0]),
            setup.reference_frequency,
            1.0,
            setup.samples_per_second,
        )
        assert 5 < k < 25


class TestDelayTable:
    def test_shape(self):
        setup = lofar()
        table = delay_table(setup, np.array([0.0, 1.0, 2.0]))
        assert table.shape == (3, setup.channels)

    def test_zero_dm_row_is_zero(self):
        table = delay_table(lofar(), np.array([0.0, 5.0]))
        assert np.all(table[0] == 0)

    def test_non_negative(self):
        table = delay_table(lofar(), np.arange(16) * 0.25)
        assert np.all(table >= 0)

    def test_monotone_in_dm(self):
        table = delay_table(lofar(), np.arange(8) * 1.0)
        assert np.all(np.diff(table[:, 0]) >= 0)

    def test_monotone_in_channel(self):
        # Lower channels (earlier columns) are delayed at least as much.
        table = delay_table(lofar(), np.array([10.0]))
        assert np.all(np.diff(table[0]) <= 0)

    def test_top_channel_zero(self):
        table = delay_table(lofar(), np.array([10.0]))
        assert table[0, -1] == 0

    def test_integer_dtype(self):
        table = delay_table(lofar(), np.array([1.0]))
        assert np.issubdtype(table.dtype, np.integer)

    def test_rejects_2d_dms(self):
        with pytest.raises(ValidationError):
            delay_table(lofar(), np.zeros((2, 2)))

    def test_rejects_negative_dms(self):
        with pytest.raises(ValidationError):
            delay_table(lofar(), np.array([-0.5]))


class TestMaxDelay:
    def test_matches_table_maximum(self):
        setup = lofar()
        dms = np.arange(32) * 0.25
        table = delay_table(setup, dms)
        assert max_delay_samples(setup, float(dms[-1])) == table.max()

    def test_zero_at_zero_dm(self):
        assert max_delay_samples(lofar(), 0.0) == 0


class TestSmearing:
    def test_positive(self):
        assert dispersion_smearing_seconds(150.0, 0.2, 10.0) > 0

    def test_zero_at_zero_dm(self):
        assert dispersion_smearing_seconds(150.0, 0.2, 0.0) == 0.0

    def test_worse_at_low_frequency(self):
        low = dispersion_smearing_seconds(120.0, 0.2, 10.0)
        high = dispersion_smearing_seconds(180.0, 0.2, 10.0)
        assert low > high

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            dispersion_smearing_seconds(-1.0, 0.2, 1.0)
        with pytest.raises(ValidationError):
            dispersion_smearing_seconds(100.0, 0.2, -1.0)


class TestReuseSpans:
    def test_zero_span_for_degenerate_interval(self):
        spans = reuse_span_samples(lofar(), 2.0, 2.0)
        assert np.all(spans == 0)

    def test_lofar_spans_dwarf_apertif(self):
        # The quantitative heart of the paper's setup contrast.
        lofar_span = reuse_span_samples(lofar(), 0.0, 2.0).max()
        apertif_span = reuse_span_samples(apertif(), 0.0, 2.0).max()
        assert lofar_span > 100 * apertif_span

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValidationError):
            reuse_span_samples(lofar(), 3.0, 2.0)
