"""Unit tests for repro.utils.intmath."""

import pytest

from repro.errors import ValidationError
from repro.utils.intmath import ceil_div, divisors, powers_of_two


class TestCeilDiv:
    @pytest.mark.parametrize(
        "n,d,expected",
        [(0, 1, 0), (1, 1, 1), (7, 2, 4), (8, 2, 4), (9, 2, 5), (20000, 800, 25)],
    )
    def test_values(self, n, d, expected):
        assert ceil_div(n, d) == expected

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValidationError):
            ceil_div(1, 0)


class TestRoundUp:
    """Rounding up to a multiple: ``ceil_div(value, multiple) * multiple``."""

    @pytest.mark.parametrize(
        "value,multiple,expected", [(0, 4, 0), (1, 4, 4), (4, 4, 4), (5, 4, 8)]
    )
    def test_values(self, value, multiple, expected):
        assert ceil_div(value, multiple) * multiple == expected


class TestIsPowerOfTwo:
    """A one-value range holds a power of two only if the value is one."""

    @pytest.mark.parametrize("value", [1, 2, 4, 1024, 1 << 30])
    def test_accepts_powers(self, value):
        assert powers_of_two(value, value) == [value]

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 1000])
    def test_rejects_non_powers(self, value):
        assert powers_of_two(value, value) == []


class TestNextPowerOfTwo:
    """The smallest power of two >= ``value`` opens ``[value, 2 * value]``."""

    @pytest.mark.parametrize(
        "value,expected", [(1, 1), (2, 2), (3, 4), (1000, 1024)]
    )
    def test_values(self, value, expected):
        assert powers_of_two(value, 2 * value)[0] == expected


class TestPowersOfTwo:
    def test_inclusive_range(self):
        assert powers_of_two(2, 16) == [2, 4, 8, 16]

    def test_empty_when_inverted(self):
        assert powers_of_two(8, 4) == []

    def test_starts_at_one(self):
        assert powers_of_two(1, 4) == [1, 2, 4]

    def test_clips_non_power_bounds(self):
        assert powers_of_two(3, 9) == [4, 8]


class TestDivisors:
    def test_small(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_prime(self):
        assert divisors(13) == [1, 13]

    def test_one(self):
        assert divisors(1) == [1]

    def test_perfect_square(self):
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_apertif_batch_contains_paper_values(self):
        # The paper's Apertif optimum uses 32-work-item rows of 25 elements
        # (800-sample tiles): both must be divisors of the 20,000-sample
        # batch.
        d = divisors(20000)
        assert 32 in d and 800 in d and 250 in d

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            divisors(0)

    def test_sorted_and_complete(self):
        value = 360
        d = divisors(value)
        assert d == sorted(d)
        assert all(value % x == 0 for x in d)
        assert len(d) == sum(1 for i in range(1, value + 1) if value % i == 0)
