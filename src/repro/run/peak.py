"""Deterministic peak-memory accounting for the execution stack.

Peak working-set bytes — not FLOPs — decide whether a survey node can
hold a search pipeline in memory, so the fused-vs-staged comparison of
``benchmarks/bench_fused.py`` needs a number that is (a) deterministic
(no allocator jitter) and (b) computed by the same rules on both paths.
:class:`MemoryAccount` provides it: every major array the
dedisperse→detect stage materialises is *charged* when it comes to life
and *released* when the stage drops it, and the account's high-water
mark is the per-chunk ``peak_bytes`` reported in chunk records and the
``repro_run_peak_bytes`` metric.

Only plane-scale arrays are tracked (the DM×time plane and the
detector's derived arrays); per-trial scalar vectors are noise at any
realistic scale and are left out on both paths alike.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class MemoryAccount:
    """A charge/release ledger with a high-water mark.

    ``charge``/``release`` move the current balance; ``peak_bytes`` is
    the maximum the balance ever reached.  ``track`` charges an array's
    ``nbytes`` and returns the array, for charging at the allocation
    site in one expression.
    """

    def __init__(self) -> None:
        self.current_bytes = 0
        self.peak_bytes = 0

    def charge(self, nbytes: int) -> None:
        self.current_bytes += int(nbytes)
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes

    def release(self, nbytes: int) -> None:
        self.current_bytes -= int(nbytes)

    def track(self, array: np.ndarray) -> np.ndarray:
        """Charge ``array.nbytes``; returns the array unchanged."""
        self.charge(array.nbytes)
        return array

    @contextmanager
    def transient(self, nbytes: int):
        """Charge ``nbytes`` for the duration of a ``with`` block."""
        self.charge(nbytes)
        try:
            yield
        finally:
            self.release(nbytes)


def charge(account: MemoryAccount | None, array: np.ndarray) -> np.ndarray:
    """Charge ``array`` to ``account`` if one is given; returns it."""
    if account is not None:
        account.charge(array.nbytes)
    return array


def release(account: MemoryAccount | None, array: np.ndarray) -> None:
    """Release ``array`` from ``account`` if one is given."""
    if account is not None:
        account.release(array.nbytes)
