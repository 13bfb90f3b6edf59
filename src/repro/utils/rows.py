"""How a slab's rows are cut into cache blocks and shared among cores.

The vectorized kernel (:mod:`repro.opencl_sim.vectorized`) and the
matched-filter detector (:mod:`repro.search.detect`) both work on a
``(rows, samples)`` slab whose rows are independent: a kernel output row
is one trial DM's channel sum, and every detector statistic (median,
MAD, cumulative sum, per-width S/N) depends on its row alone.  So both
make the same two decisions, and this module makes them once:

* **Blocks.**  A layer walks its rows in blocks of at most
  :data:`BLOCK_BYTES` of its row buffer, so a block is re-read from a
  core's L2 cache (once per channel in the kernel, once per boxcar width
  in the detector) instead of from memory.  512 KiB holds several rows
  at the LOFAR scale (six 80 KB output rows, three 160 KB cumulative-sum
  rows).  That matters once blocks run on several threads: each block
  costs a handful of small NumPy calls, and a block of one row makes
  the threads hand the interpreter lock back and forth on every call.
* **Parts.**  :func:`split_rows` runs a layer's ``fn(lo, hi)`` over
  contiguous ranges of whole blocks, one range per core in the process's
  CPU affinity (:data:`WORKERS`).  NumPy releases the interpreter lock
  in the bulk operations of both layers, so the parts run in parallel.
  Parts split rows, never a row's reduction, so the result is
  bit-identical to a one-part run.

A slab of one block, or a process with one core, runs inline in the
caller's thread.  Otherwise the caller runs the first part itself and a
process-wide pool of ``WORKERS - 1`` threads, created on first use and
kept for the life of the process, runs the rest.  A part must not open
a span, touch a metric or call :func:`split_rows` itself: tracing and
memory accounting stay on the caller's thread, and a part that waited
on the shared pool could deadlock concurrent callers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

#: Row-buffer bytes per cache block (at least one row): sized to stay
#: resident in a core's L2 cache while holding several rows.
BLOCK_BYTES = 512 * 1024

#: Cores this process may run on; one part of a slab per core.  Linux
#: gives the affinity set; elsewhere every CPU counts.
WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def block_rows(row_bytes: int) -> int:
    """Rows per cache block for rows of ``row_bytes`` bytes (at least 1)."""
    return max(1, BLOCK_BYTES // row_bytes)


def row_ranges(n_rows: int, step: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` ranges of whole ``step``-row blocks.

    One range per worker, or one per block when there are fewer blocks
    than workers; the blocks are shared as evenly as whole blocks
    allow, and only the last range may end on a partial block.
    """
    blocks = -(-n_rows // step)
    parts = min(WORKERS, blocks)
    bounds = [min(n_rows, (i * blocks // parts) * step) for i in range(parts)]
    return list(zip(bounds, bounds[1:] + [n_rows]))


def _executor() -> ThreadPoolExecutor:
    """The shared pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=WORKERS - 1, thread_name_prefix="repro-rows"
            )
        return _pool


def split_rows(
    n_rows: int, step: int, fn: Callable[[int, int], None]
) -> None:
    """Run ``fn(lo, hi)`` over :func:`row_ranges`, one range per core.

    ``fn`` writes its rows' results into buffers the caller owns.  The
    caller's thread runs the first range; the shared pool runs the rest.
    Every part finishes before this returns or raises: an exception in
    the caller's part wins, otherwise the first failing part's
    exception is raised.
    """
    ranges = row_ranges(n_rows, step)
    if len(ranges) <= 1:
        for lo, hi in ranges:
            fn(lo, hi)
        return
    pool = _executor()
    futures = [pool.submit(fn, lo, hi) for lo, hi in ranges[1:]]
    try:
        fn(*ranges[0])
    finally:
        errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error
