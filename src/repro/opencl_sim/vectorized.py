"""The vectorized fast-path executor: one gather per channel, per DM block.

Dedispersion is a pure gather-accumulate (Barsdell et al. 2012; Sclocco
et al. 2016): every output element reads one sample per channel at a
per-(DM, channel) shift and sums them.  The tiled executor replays that
as Python loops over work-groups x channels x tile rows; this module
computes *all* work-groups of a launch at once, one whole-array NumPy
operation per channel and DM-row block:

* a zero-copy sliding-window view exposes every possible shifted read
  of a channel as rows of a ``(t - samples + 1, samples)`` matrix;
* the output rows are split into cache blocks of at most
  :data:`repro.utils.rows.BLOCK_BYTES`, and the blocks are shared among
  the process's cores by :func:`repro.utils.rows.split_rows`;
* for each block, one fancy-index gather per channel pulls the rows the
  delay table selects, and one batched ``+=`` accumulates them into the
  block.

The blocking is the paper's own lever (Sec. III), applied to the host:
a block and its gather temporary are written once per channel, so the
block is sized to stay in a core's L2 cache instead of streaming the
whole launch through memory once per channel.  The split across cores
is the paper's other lever, parallelism over trial DMs: each core
accumulates its own contiguous blocks of output rows, and NumPy
releases the interpreter lock in the gather and the add.  The detector
(:mod:`repro.search.detect`) cuts and shares its rows by the same rule,
so the one constant and the one split live in :mod:`repro.utils.rows`.

Bit-for-bit equality with the tiled executor is not approximate: both
paths start each output element at float32 zero and add the channels in
index order with float32 arithmetic, so every intermediate rounding
step is identical.  Blocking and the split across cores cut rows, never
a row's channel sum.  The property tests assert exact equality across
the sampled tuning space, at several worker counts.

The Python trip count drops from ``work_groups x channels x tile_dms``
(tiled) to ``blocks x channels`` (here, shared among the cores), which
is where the order-of-magnitude speedup measured by
``benchmarks/bench_kernel_backends.py`` comes from.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rows import block_rows, split_rows

#: Dtype used for fancy-index gathers (fits any valid delay).
_INDEX_DTYPE = np.intp


def accumulate_channels(
    input_data: np.ndarray,
    delay_table: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Accumulate every channel's shifted rows into ``out``, in order.

    ``input_data`` is ``(channels, t)``, ``delay_table`` is
    ``(n_dms, channels)`` with every shift at most ``t - samples``, and
    ``out`` is the zero-initialised ``(n_dms, samples)`` output.  Inputs
    are assumed validated by the caller
    (:meth:`repro.opencl_sim.kernel.DedispersionKernel._execute`).
    """
    samples = out.shape[1]
    shifts = delay_table.astype(_INDEX_DTYPE, copy=False)
    # (channels, t - samples + 1, samples) zero-copy view: row w of
    # channel c is input_data[c, w : w + samples].
    windows = np.lib.stride_tricks.sliding_window_view(
        input_data, samples, axis=1
    )
    step = block_rows(out.itemsize * samples)

    def accumulate(lo: int, hi: int) -> None:
        for first in range(lo, hi, step):
            # Only the last part's last block may be partial.
            block = out[first : first + step]
            block_shifts = shifts[first : first + step]
            for channel in range(input_data.shape[0]):
                # One gather + one batched row accumulation per channel.
                # The channel-index order matches the tiled executor's
                # innermost accumulation order, which is what makes the
                # result bit-equal.
                block += windows[channel][block_shifts[:, channel]]

    split_rows(out.shape[0], step, accumulate)
    return out
