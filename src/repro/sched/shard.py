"""Work units: slicing a survey into schedulable shards.

A *shard* is the scheduler's unit of work: one beam, one contiguous
DM-trial sub-range, one time batch.  The decomposition is lossless —
dedispersion is independent per (beam, DM trial, output sample), so the
union of all shard outputs equals the unsharded output.  The tests
assert both halves: within each time batch the shards cover every
(beam, DM row) exactly once (``tests/sched/test_shard.py``), and a
launch on a DM slab equals the matching rows of the whole-grid launch
(``tests/property/test_kernel_props.py``).

Shard *sizing* follows the same memory accounting the multi-beam packer
uses (paper Sec. V-D): a shard's device footprint is the channelised
input for one batch (batch length plus the grid's maximum delay) plus
the dedispersed output of its DM sub-range, and the DM chunk is chosen
as the largest count whose footprint fits the per-shard memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.errors import ShardError
from repro.utils.intmath import ceil_div
from repro.utils.validation import require_positive, require_positive_int


@dataclass(frozen=True)
class Shard:
    """One schedulable unit: beam x DM sub-range x time batch."""

    beam: int
    dm_start: int
    dm_count: int
    batch: int
    samples: int

    def __post_init__(self) -> None:
        require_positive_int(self.dm_count, "dm_count")
        require_positive_int(self.samples, "samples")
        if self.beam < 0 or self.dm_start < 0 or self.batch < 0:
            raise ShardError(
                f"shard indices must be non-negative: {self!r}"
            )

    @property
    def shard_id(self) -> str:
        """Stable, sortable identity used by the ledger."""
        return (
            f"b{self.beam:04d}/d{self.dm_start:05d}+{self.dm_count}"
            f"/t{self.batch:04d}"
        )

    def subgrid(self, grid: DMTrialGrid) -> DMTrialGrid:
        """The DM-trial grid this shard dedisperses."""
        return grid.subgrid(self.dm_start, self.dm_count)


def shard_memory_bytes(
    setup: ObservationSetup, grid: DMTrialGrid, dm_count: int, samples: int
) -> int:
    """Device footprint of one shard: batch input plus sub-range output.

    The input must cover the batch plus the delay at the *grid's* highest
    trial DM (a conservative bound that holds for every sub-range), the
    output only the shard's own trials.
    """
    return setup.input_bytes(grid.last, samples=samples) + (
        setup.output_bytes(dm_count, samples=samples)
    )


def dm_chunk_for_memory(
    setup: ObservationSetup,
    grid: DMTrialGrid,
    memory_bytes: int,
    samples: int | None = None,
) -> int:
    """Largest DM-trial count whose shard footprint fits ``memory_bytes``.

    Raises :class:`ShardError` when even a single-trial shard does not
    fit — no scheduler can place such work.
    """
    require_positive_int(memory_bytes, "memory_bytes")
    s = setup.samples_per_batch if samples is None else samples
    if shard_memory_bytes(setup, grid, 1, s) > memory_bytes:
        raise ShardError(
            f"a single-DM shard of {setup.name} needs "
            f"{shard_memory_bytes(setup, grid, 1, s)} B; only "
            f"{memory_bytes} B available"
        )
    low, high = 1, grid.n_dms
    while low < high:  # largest feasible count, by bisection
        mid = (low + high + 1) // 2
        if shard_memory_bytes(setup, grid, mid, s) <= memory_bytes:
            low = mid
        else:
            high = mid - 1
    return low


def shard_survey(
    setup: ObservationSetup,
    grid: DMTrialGrid,
    n_beams: int,
    duration_s: float = 1.0,
    memory_bytes: int | None = None,
) -> tuple[Shard, ...]:
    """Slice a survey into shards, beam-major.

    ``duration_s`` seconds of every beam are processed in batches of
    ``setup.samples_per_batch`` samples; the DM axis is chunked to fit
    ``memory_bytes`` (per-shard device budget; ``None`` leaves the DM
    axis whole).
    """
    require_positive_int(n_beams, "n_beams")
    require_positive(duration_s, "duration_s")
    chunk = grid.n_dms
    if memory_bytes is not None:
        chunk = dm_chunk_for_memory(setup, grid, memory_bytes)
    total_samples = int(round(duration_s * setup.samples_per_second))
    n_batches = max(1, ceil_div(total_samples, setup.samples_per_batch))
    shards = []
    for beam in range(n_beams):
        for dm_start in range(0, grid.n_dms, chunk):
            dm_count = min(chunk, grid.n_dms - dm_start)
            for batch in range(n_batches):
                shards.append(
                    Shard(
                        beam=beam,
                        dm_start=dm_start,
                        dm_count=dm_count,
                        batch=batch,
                        samples=setup.samples_per_batch,
                    )
                )
    return tuple(shards)
