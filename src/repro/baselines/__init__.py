"""Baseline implementations: the sequential CPU oracles."""

from repro.baselines.cpu_reference import (
    dedisperse_naive,
    dedisperse_vectorized,
    dedisperse_blocked,
)

__all__ = [
    "dedisperse_naive",
    "dedisperse_vectorized",
    "dedisperse_blocked",
]
