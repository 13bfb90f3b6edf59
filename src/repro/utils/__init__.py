"""Shared utility helpers: validation, integer math, seeded RNG, row blocks."""

from repro.utils.rng import RandomStreams, derive_seed
from repro.utils.validation import (
    require,
    require_positive,
    require_positive_int,
    require_non_negative,
    require_in_range,
)
from repro.utils.intmath import (
    ceil_div,
    divisors,
    powers_of_two,
)

__all__ = [
    "RandomStreams",
    "derive_seed",
    "require",
    "require_positive",
    "require_positive_int",
    "require_non_negative",
    "require_in_range",
    "ceil_div",
    "divisors",
    "powers_of_two",
]
