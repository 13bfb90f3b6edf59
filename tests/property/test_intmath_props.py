"""Property-based tests for the integer-math helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.intmath import ceil_div, divisors, powers_of_two

positive = st.integers(min_value=1, max_value=10 ** 9)
small_positive = st.integers(min_value=1, max_value=10 ** 5)


def is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


class TestCeilDiv:
    @given(n=st.integers(min_value=0, max_value=10 ** 9), d=positive)
    def test_bracketing(self, n, d):
        q = ceil_div(n, d)
        assert (q - 1) * d < n <= q * d or (n == 0 and q == 0)

    @given(n=positive, d=positive)
    def test_matches_float_ceil(self, n, d):
        import math

        assert ceil_div(n, d) == math.ceil(n / d) or n > 2 ** 52


class TestRoundUp:
    @given(v=st.integers(min_value=0, max_value=10 ** 9), m=positive)
    def test_result_is_multiple_and_minimal(self, v, m):
        r = ceil_div(v, m) * m
        assert r % m == 0
        assert r >= v
        assert r - v < m


class TestPowersOfTwo:
    @given(v=positive)
    def test_next_power_bracketing(self, v):
        p = powers_of_two(v, 2 * v)[0]
        assert is_power_of_two(p)
        assert p >= v
        assert p // 2 < v

    @given(lo=small_positive, hi=small_positive)
    def test_range_contents(self, lo, hi):
        lo, hi = sorted((lo, hi))
        result = powers_of_two(lo, hi)
        assert all(is_power_of_two(p) and lo <= p <= hi for p in result)
        assert result == sorted(result)


class TestDivisors:
    @given(v=small_positive)
    def test_divisors_complete_and_exact(self, v):
        d = divisors(v)
        assert d[0] == 1 and d[-1] == v
        assert all(v % x == 0 for x in d)
        assert d == sorted(set(d))

    @given(v=small_positive)
    def test_divisors_pair_up(self, v):
        d = set(divisors(v))
        assert all(v // x in d for x in d)
