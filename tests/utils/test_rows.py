"""Unit tests for repro.utils.rows: cache blocks and the split across cores."""

import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from repro.opencl_sim.vectorized import accumulate_channels
from repro.search import MatchedFilterDetector
from repro.utils import rows


@contextmanager
def own_pool(workers):
    """Patch ``WORKERS`` and give the split its own pool, shut down after."""
    with patch.object(rows, "WORKERS", workers), patch.object(
        rows, "_pool", None
    ):
        try:
            yield
        finally:
            if rows._pool is not None:
                rows._pool.shutdown(wait=True)


def kernel(data, table, samples):
    out = np.zeros((table.shape[0], samples), dtype=np.float32)
    return accumulate_channels(data, table, out)


class TestRowRanges:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "n_rows, step", [(1, 1), (7, 1), (32, 3), (32, 6), (12, 136), (20, 3)]
    )
    def test_contiguous_whole_blocks_one_per_worker(
        self, n_rows, step, workers
    ):
        with patch.object(rows, "WORKERS", workers):
            ranges = rows.row_ranges(n_rows, step)
        blocks = -(-n_rows // step)
        assert len(ranges) == min(workers, blocks)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_rows
        assert all(hi == lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
        assert all(lo % step == 0 and lo < hi for lo, hi in ranges)
        sizes = [-(-(hi - lo) // step) for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_no_rows_no_ranges(self):
        assert rows.row_ranges(0, 3) == []

    def test_block_holds_at_least_one_row(self):
        assert rows.block_rows(rows.BLOCK_BYTES + 1) == 1
        assert rows.block_rows(80_000) == 6


class TestSplitRows:
    def test_one_block_runs_inline_without_a_pool(self):
        calls = []
        with own_pool(4):
            rows.split_rows(
                12,
                136,
                lambda lo, hi: calls.append((lo, hi, threading.get_ident())),
            )
            assert rows._pool is None
        assert calls == [(0, 12, threading.get_ident())]

    def test_survey_shaped_slabs_start_no_thread(self, rng):
        # A 12 x 480 slab is one block for the kernel and the detector.
        slab = rng.normal(size=(12, 480)).astype(np.float32)
        data = rng.normal(size=(8, 500)).astype(np.float32)
        table = rng.integers(0, 20, size=(12, 8))
        with own_pool(4):
            MatchedFilterDetector().best_per_trial(slab)
            kernel(data, table, 480)
            assert rows._pool is None

    def test_part_error_reaches_caller_after_every_part(self):
        finished = []

        def fn(lo, hi):
            if lo == 1:
                raise ValueError("part two failed")
            if lo == 2:
                time.sleep(0.05)
            finished.append(lo)

        with own_pool(3):
            with pytest.raises(ValueError, match="part two"):
                rows.split_rows(3, 1, fn)
            assert sorted(finished) == [0, 2]

    def test_caller_error_wins_after_every_part(self):
        finished = []

        def fn(lo, hi):
            if lo == 0:
                raise KeyError("caller")
            time.sleep(0.05)
            if lo == 1:
                raise ValueError("part two failed")
            finished.append(lo)

        with own_pool(3):
            with pytest.raises(KeyError, match="caller"):
                rows.split_rows(3, 1, fn)
            assert finished == [2]

    def test_import_starts_no_thread(self):
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import threading, repro, repro.search, repro.opencl_sim\n"
            "from repro.utils import rows\n"
            "assert rows._pool is None\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(src)},
            check=True,
            timeout=60,
        )


class TestConcurrentCallers:
    def test_oversubscribed_callers_are_bit_identical(self):
        # Four callers share one pool of four threads on a host with
        # fewer cores, and the interpreter switches threads every 10 us:
        # a lost or misplaced row write would break equality.
        rng = np.random.default_rng(7)
        slab = rng.normal(size=(16, 20_000)).astype(np.float32)
        data = rng.normal(size=(8, 20_200)).astype(np.float32)
        table = rng.integers(0, 200, size=(16, 8))
        detector = MatchedFilterDetector()
        with patch.object(rows, "WORKERS", 1):
            expected_best = detector.best_per_trial(slab)
            expected_out = kernel(data, table, 20_000)
        calls = 15
        results = [[] for _ in range(4)]
        errors = []

        def caller(index):
            try:
                for _ in range(calls):
                    best = detector.best_per_trial(slab)
                    out = kernel(data, table, 20_000)
                    results[index].append((best, out))
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        threads = [
            threading.Thread(target=caller, args=(i,)) for i in range(4)
        ]
        with own_pool(5):
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for per_caller in results:
            assert len(per_caller) == calls
            for best, out in per_caller:
                for got, want in zip(best, expected_best):
                    np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(out, expected_out)
