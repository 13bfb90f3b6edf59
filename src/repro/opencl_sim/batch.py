"""Multi-beam batched kernel execution.

Sec. III-A: "without losing generality, in this paper we describe the case
in which there is a single input beam, but all results can be applied to
the case of multiple beams."  This module makes that concrete: a beams
axis is added as the third NDRange dimension (the OpenCL ``get_group_id(2)``
a production kernel would use), all beams share one delay table and one
configuration, and the functional executor processes the batch in one
launch.

The model-level counterpart is
:func:`repro.hardware.multibeam_metrics.simulate_multibeam` — per-beam
traffic scales linearly while the launch overhead and the delay table are
amortised across the batch, which is why batching beams helps most at
small per-beam workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.opencl_sim.kernel import DedispersionKernel, check_out
from repro.utils.validation import require_positive_int


def check_delay_table(delay_table, channels: int) -> np.ndarray:
    """Coerce and validate a delay table: ``(n_dms, channels)``, >= 0.

    Accepts anything :func:`np.asarray` does (lists included) and raises
    :class:`ValidationError` — not ``AttributeError``/``IndexError`` —
    on the wrong rank, channel count or negative shifts.
    """
    delay_table = np.asarray(delay_table)
    if delay_table.ndim != 2 or delay_table.shape[1] != channels:
        raise ValidationError(
            f"delay table must have shape (n_dms, {channels}), got "
            f"{delay_table.shape}"
        )
    if np.any(delay_table < 0):
        raise ValidationError("delay table must be non-negative")
    return delay_table


@dataclass(frozen=True)
class BatchedDedispersionKernel:
    """A dedispersion kernel applied to a batch of beams per launch."""

    kernel: DedispersionKernel
    n_beams: int

    def __post_init__(self) -> None:
        require_positive_int(self.n_beams, "n_beams")

    @property
    def global_size(self) -> tuple[int, int, int]:
        """The 3-D NDRange: (samples, DMs, beams)."""
        return (self.kernel.samples, 0, self.n_beams)  # DMs set per launch

    def execute(
        self,
        input_data: np.ndarray,
        delay_table: np.ndarray,
        out: np.ndarray | None = None,
        backend: str | None = None,
    ) -> np.ndarray:
        """Dedisperse every beam of a ``(beams, channels, t)`` batch.

        Returns ``(beams, n_dms, samples)``.  All beams share the delay
        table — they observe through the same setup — exactly as the
        paper's multi-beam argument assumes.  ``backend`` overrides the
        wrapped kernel's executor for every beam of this launch.
        """
        input_data = np.asarray(input_data)
        delay_table = check_delay_table(delay_table, self.kernel.channels)
        if input_data.ndim != 3:
            raise ValidationError(
                "batched input must have shape (beams, channels, t), got "
                f"{input_data.shape}"
            )
        if input_data.shape[0] != self.n_beams:
            raise ValidationError(
                f"batch carries {input_data.shape[0]} beams; kernel is "
                f"configured for {self.n_beams}"
            )
        n_dms = delay_table.shape[0]
        if out is None:
            out = np.zeros(
                (self.n_beams, n_dms, self.kernel.samples), dtype=np.float32
            )
        else:
            check_out(out, (self.n_beams, n_dms, self.kernel.samples))
        for beam in range(self.n_beams):
            self.kernel._execute(
                input_data[beam], delay_table, out=out[beam], backend=backend
            )
        return out


def _execute_sharded(
    config,
    input_data: np.ndarray,
    delay_table: np.ndarray,
    shards,
    out: np.ndarray | None = None,
    backend: str | None = None,
) -> np.ndarray:
    """Execute one time batch shard by shard and stitch the output.

    The :mod:`repro.sched` decomposition claim made concrete:
    dedispersion is independent per (beam, DM trial), so running each
    shard's DM sub-range as its own launch and writing its rows into
    place reproduces :meth:`BatchedDedispersionKernel.execute` bit for
    bit (asserted by ``tests/sched/test_shard.py``).  ``shards`` must
    all belong to one time batch and jointly cover every (beam, DM row)
    of the ``(beams, channels, t)`` input exactly once; ``config`` must
    tile every shard's DM count.  ``backend`` selects the executor for
    every shard launch (both executors stitch bit-identically); ``out``,
    when given, must be a float32 ``(beams, n_dms, samples)`` buffer.

    This is the body the :mod:`repro.run` facade's sharded mode
    dispatches to.
    """
    from repro.opencl_sim.codegen import build_kernel

    input_data = np.asarray(input_data)
    if input_data.ndim != 3:
        raise ValidationError(
            "sharded input must have shape (beams, channels, t), got "
            f"{input_data.shape}"
        )
    delay_table = check_delay_table(delay_table, input_data.shape[1])
    shards = tuple(shards)
    if not shards:
        raise ValidationError("sharded execution needs at least one shard")
    n_beams = input_data.shape[0]
    n_dms = delay_table.shape[0]
    samples = shards[0].samples
    covered = np.zeros((n_beams, n_dms), dtype=bool)
    for shard in shards:
        if shard.batch != shards[0].batch or shard.samples != samples:
            raise ValidationError(
                "sharded execution covers a single uniform time batch; "
                f"shard {shard.shard_id} does not match"
            )
        if shard.beam < 0 or shard.dm_start < 0:
            # Negative indices would slice from the end of the arrays and
            # double-cover rows without tripping the coverage check.
            raise ValidationError(
                f"shard {shard.shard_id} has a negative beam or dm_start"
            )
        if shard.beam >= n_beams or shard.dm_start + shard.dm_count > n_dms:
            raise ValidationError(
                f"shard {shard.shard_id} exceeds the (beams, DMs) extent"
            )
        rows = covered[shard.beam, shard.dm_start:shard.dm_start + shard.dm_count]
        if rows.any():
            raise ValidationError(f"shard {shard.shard_id} overlaps another")
        rows[:] = True
    if not covered.all():
        raise ValidationError("shards do not cover every (beam, DM row)")

    kernel = build_kernel(config, input_data.shape[1], samples)
    if out is None:
        out = np.zeros((n_beams, n_dms, samples), dtype=np.float32)
    else:
        check_out(out, (n_beams, n_dms, samples))
        out[...] = 0.0
    for shard in shards:
        stop = shard.dm_start + shard.dm_count
        kernel._execute(
            input_data[shard.beam],
            delay_table[shard.dm_start:stop],
            out=out[shard.beam, shard.dm_start:stop],
            backend=backend,
        )
    return out


def build_batched_kernel(
    config,
    channels: int,
    samples: int,
    n_beams: int,
) -> BatchedDedispersionKernel:
    """Generate a kernel and wrap it for ``n_beams``-wide launches."""
    from repro.opencl_sim.codegen import build_kernel

    return BatchedDedispersionKernel(
        kernel=build_kernel(config, channels, samples),
        n_beams=n_beams,
    )
