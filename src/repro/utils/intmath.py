"""Integer arithmetic helpers for tiling, decomposition and search spaces."""

from __future__ import annotations

from repro.errors import ValidationError


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounding up; ``denominator`` must be positive."""
    if denominator <= 0:
        raise ValidationError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def powers_of_two(low: int, high: int) -> list[int]:
    """All powers of two ``p`` with ``low <= p <= high`` in ascending order."""
    if low > high:
        return []
    result: list[int] = []
    p = 1
    while p <= high:
        if p >= low:
            result.append(p)
        p <<= 1
    return result


def divisors(value: int) -> list[int]:
    """All positive divisors of ``value`` in ascending order.

    Used to enumerate work-item counts that evenly tile a block of samples
    (the tuner only considers decompositions that cover the input exactly,
    mirroring the paper's "meaningful configuration" rule).
    """
    if value <= 0:
        raise ValidationError(f"value must be positive, got {value}")
    small: list[int] = []
    large: list[int] = []
    d = 1
    while d * d <= value:
        if value % d == 0:
            small.append(d)
            if d != value // d:
                large.append(value // d)
        d += 1
    return small + large[::-1]
