"""Small argument-validation helpers used by dataclass ``__post_init__``s.

Centralising these keeps error messages uniform across the library and makes
the validation rules themselves unit-testable.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ValidationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValidationError(message)


def require_positive(value: float, name: str) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")


def require_positive_int(value: Any, name: str) -> None:
    """Require ``value`` to be an ``int`` (not bool) and strictly positive."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Require ``value >= 0`` (NaN fails)."""
    if not value >= 0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")


def require_in_range(value: float, low: float, high: float, name: str) -> None:
    """Require ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value!r}")
