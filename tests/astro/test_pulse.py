"""Unit tests for repro.astro.pulse."""

import numpy as np
import pytest

from repro.astro.pulse import gaussian_profile, scattered_profile
from repro.errors import ValidationError


@pytest.fixture(params=[gaussian_profile, scattered_profile])
def profile(request):
    return request.param()


class TestCommonProperties:
    def test_peak_near_one(self, profile):
        values = profile.sample(2048)
        assert values.max() == pytest.approx(1.0, abs=0.05)

    def test_non_negative(self, profile):
        assert np.all(profile.sample(512) >= 0)

    def test_periodic(self, profile):
        phases = np.linspace(0, 0.999, 64)
        a = profile.evaluate(phases)
        b = profile.evaluate(phases + 3.0)  # three full turns later
        assert np.allclose(a, b, atol=1e-6)

    def test_narrow(self, profile):
        # Pulsar duty cycles are small: most bins near zero.
        values = profile.sample(1024)
        assert np.mean(values < 0.1) > 0.5

    def test_sample_requires_positive_bins(self, profile):
        with pytest.raises(ValidationError):
            profile.sample(0)


class TestGaussian:
    def test_peak_at_centre(self):
        p = gaussian_profile(width=0.02, centre=0.3)
        assert p.evaluate(np.array([0.3]))[0] == pytest.approx(1.0)

    def test_width_controls_spread(self):
        narrow = gaussian_profile(width=0.01).sample(1000)
        wide = gaussian_profile(width=0.05).sample(1000)
        assert narrow.sum() < wide.sum()

    def test_wraps_across_phase_zero(self):
        p = gaussian_profile(width=0.05, centre=0.0)
        assert p.evaluate(np.array([0.98]))[0] > 0.5

    def test_rejects_bad_width(self):
        with pytest.raises(ValidationError):
            gaussian_profile(width=0.6)
        with pytest.raises(ValidationError):
            gaussian_profile(width=0.0)


class TestScattered:
    def test_asymmetric_tail(self):
        p = scattered_profile(width=0.01, tail=0.08, centre=0.3)
        peak_phase = float(
            np.argmax(p.sample(4096)) / 4096.0
        )
        before = p.evaluate(np.array([peak_phase - 0.1]))[0]
        after = p.evaluate(np.array([peak_phase + 0.1]))[0]
        assert after > 3 * before  # exponential tail trails the pulse

    def test_rejects_bad_tail(self):
        with pytest.raises(ValidationError):
            scattered_profile(tail=0.9)
