"""Unit tests for repro.utils.validation."""

import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    require,
    require_in_range,
    require_non_negative,
    require_positive,
    require_positive_int,
)


class TestRequire:
    def test_passes_when_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValidationError, match="custom message"):
            require(False, "custom message")


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive(0.5, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.0001])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValidationError, match="x must be positive"):
            require_positive(value, "x")


class TestRequirePositiveInt:
    def test_accepts_positive_int(self):
        require_positive_int(3, "n")

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            require_positive_int(0, "n")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            require_positive_int(-2, "n")

    def test_rejects_float(self):
        with pytest.raises(ValidationError, match="must be an int"):
            require_positive_int(2.0, "n")

    def test_rejects_bool(self):
        # bool is an int subclass; counting True as 1 hides caller bugs.
        with pytest.raises(ValidationError, match="must be an int"):
            require_positive_int(True, "n")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        require_non_negative(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            require_non_negative(-1e-9, "x")

    def test_rejects_nan(self):
        # NaN compares false with everything, so ``value < 0`` lets it by.
        with pytest.raises(ValidationError, match="x must be non-negative"):
            require_non_negative(float("nan"), "x")


class TestRequireInRange:
    def test_accepts_bounds(self):
        require_in_range(0.0, 0.0, 1.0, "x")
        require_in_range(1.0, 0.0, 1.0, "x")

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rejects_outside(self, value):
        with pytest.raises(ValidationError):
            require_in_range(value, 0.0, 1.0, "x")
