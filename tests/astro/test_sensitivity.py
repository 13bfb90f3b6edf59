"""Unit tests for repro.astro.sensitivity."""

import numpy as np
import pytest

from repro.astro.observation import apertif, lofar
from repro.astro.sensitivity import (
    dm_error_attenuation,
    half_power_dm_error,
    sensitivity_curve,
    smearing_attenuation,
)
from repro.errors import ValidationError


WIDTH = 1e-3  # a 1 ms pulse


class TestDmErrorAttenuation:
    def test_unity_at_zero_error(self):
        assert dm_error_attenuation(lofar(), 0.0, WIDTH) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        setup = lofar()
        errors = [0.0, 0.01, 0.05, 0.2, 1.0]
        values = [dm_error_attenuation(setup, e, WIDTH) for e in errors]
        assert values == sorted(values, reverse=True)

    def test_symmetric_in_sign(self):
        setup = lofar()
        assert dm_error_attenuation(setup, 0.1, WIDTH) == pytest.approx(
            dm_error_attenuation(setup, -0.1, WIDTH)
        )

    def test_bounded(self):
        setup = lofar()
        for e in (0.0, 0.1, 10.0):
            assert 0.0 < dm_error_attenuation(setup, e, WIDTH) <= 1.0

    def test_lofar_far_more_sensitive_to_error(self):
        # The Sec. II statement quantified: the same DM error at low
        # frequencies smears vastly more.
        error = 0.25
        assert dm_error_attenuation(
            lofar(), error, WIDTH
        ) < 0.5 * dm_error_attenuation(apertif(), error, WIDTH)

    def test_wider_pulse_more_tolerant(self):
        setup = lofar()
        assert dm_error_attenuation(setup, 0.1, 10e-3) > dm_error_attenuation(
            setup, 0.1, 1e-3
        )

    def test_rejects_bad_width(self):
        with pytest.raises(ValidationError):
            dm_error_attenuation(lofar(), 0.1, 0.0)


class TestSmearingAttenuation:
    def test_unity_without_smearing(self):
        assert smearing_attenuation(WIDTH, 0.0) == pytest.approx(1.0)

    def test_matched_smearing_loses_fourth_root_two(self):
        # W_eff = sqrt(2) W  =>  loss = 2^(-1/4).
        assert smearing_attenuation(WIDTH, WIDTH) == pytest.approx(
            2.0 ** -0.25
        )

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            smearing_attenuation(WIDTH, -1e-3)


class TestStepSensitivity:
    """A source can sit half a DM step from the nearest trial."""

    def test_paper_step_fine_for_apertif_pulses(self):
        # A 1 ms pulse half a 0.25-step away barely loses S/N at Apertif
        # frequencies.
        assert dm_error_attenuation(apertif(), 0.125, WIDTH) > 0.9

    def test_paper_step_marginal_for_lofar(self):
        # The same step at LOFAR frequencies costs a quarter of the S/N
        # for millisecond pulses — why the DDplan derives finer LOFAR
        # steps.
        assert dm_error_attenuation(lofar(), 0.125, WIDTH) < 0.75
        assert dm_error_attenuation(apertif(), 0.125, WIDTH) > 0.95

    def test_ddplan_steps_keep_sensitivity(self):
        # Steps chosen by the DDplan at its default tolerance retain most
        # of the S/N for pulses at the effective resolution.
        from repro.astro.ddplan import build_ddplan

        setup = lofar()
        plan = build_ddplan(setup, max_dm=20.0)
        for stage in plan.stages:
            width = max(
                stage.downsample / setup.samples_per_second, 0.5e-3
            )
            retained = dm_error_attenuation(setup, 0.5 * stage.dm_step, width)
            assert retained > 0.75


class TestCurveAndHalfPower:
    def test_curve_shape(self):
        errors = np.linspace(0.0, 1.0, 11)
        curve = sensitivity_curve(lofar(), errors, WIDTH)
        assert curve.shape == (11,)
        assert curve[0] == curve.max()
        assert np.all(np.diff(curve) <= 1e-12)

    def test_trial_dm_smearing_lowers_curve(self):
        errors = np.array([0.0, 0.1])
        low = sensitivity_curve(lofar(), errors, WIDTH, trial_dm=0.0)
        high = sensitivity_curve(lofar(), errors, WIDTH, trial_dm=50.0)
        assert np.all(high <= low)

    def test_half_power_error_is_half_power(self):
        setup = lofar()
        e_half = half_power_dm_error(setup, WIDTH)
        assert dm_error_attenuation(setup, e_half, WIDTH) == pytest.approx(
            0.5, abs=0.01
        )

    def test_half_power_scales_with_width(self):
        setup = lofar()
        assert half_power_dm_error(setup, 4e-3) == pytest.approx(
            4 * half_power_dm_error(setup, 1e-3)
        )

    def test_apertif_half_power_far_wider(self):
        assert half_power_dm_error(apertif(), WIDTH) > 10 * half_power_dm_error(
            lofar(), WIDTH
        )
