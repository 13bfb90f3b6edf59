"""Fused dedisperse→detect execution of one stream chunk.

The staged streaming path materialises each chunk's full ``(n_dms,
samples)`` dedispersion plane and hands it to the detector, whose two
float64 scratch buffers are plane-sized too — three plane-scale arrays
alive at once.  At Apertif scale that working set is what decides
whether a beam fits on a node, not arithmetic.

This module fuses the two stages instead: the chunk is dedispersed one
*DM-tile slab* at a time, and each freshly-computed slab is folded
through :meth:`~repro.search.detect.MatchedFilterDetector.detect_slabs`
and dropped before the next is produced.  The candidate list is
bit-identical to the staged path (dedispersion is independent per DM
row; every detector statistic is row-local), but the peak working set is
one slab's, not the plane's.

Slabs are cut along the trial-DM axis, about ``n_dms / 16`` trials
high, rounded up to a multiple of the configuration's ``tile_dms``
(:func:`resolve_dm_tile`) — the NDRange of
:mod:`repro.opencl_sim.ndrange` requires exact work-group tiling, and
every plan's DM grid is already a whole number of tiles, so any
tile-multiple slab size launches cleanly.

Peak working-set bytes are metered by a
:class:`~repro.run.peak.MemoryAccount` with the same charging rules the
staged path uses, land in :attr:`FusedChunkResult.peak_bytes`, and are
exported as the ``repro_run_peak_bytes{path="fused"}`` histogram; each
chunk also counts toward ``repro_pipeline_chunks_total`` exactly as a
streaming-mode chunk does, since a fused chunk is the same pipeline
stage.  The chunk's ``run.fused_chunk`` span carries its own numbers as
attributes: measured ``kernel_s`` and ``detect_s``, the modelled device
time ``modelled_s`` and the metered ``peak_bytes``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs import get_registry, span
from repro.run.facade import check_chunk
from repro.run.peak import MemoryAccount


@dataclass(frozen=True)
class FusedChunkResult:
    """What fusing dedispersion and detection over one chunk produced.

    Unlike the streaming mode's :class:`~repro.run.facade.ChunkResult`
    there is no ``output`` plane — not materialising it is the point.
    The chunk's contribution to the search is its ``candidates``
    (already shifted onto the global stream timeline and labelled with
    the beam);
    ``peak_bytes`` is the metered high-water working set of the fused
    dedisperse→detect pass; ``launches`` counts the per-slab kernel
    launches.  ``simulated_seconds`` / ``realtime`` carry the same
    modelled dedispersion cost a streaming-mode chunk reports, and
    ``detect_seconds`` the measured detection wall time, so the
    streaming search's virtual clock works identically on both paths.
    """

    beam_index: int
    sequence: int
    candidates: tuple
    simulated_seconds: float
    detect_seconds: float
    peak_bytes: int
    launches: int
    realtime: bool


def resolve_dm_tile(n_dms: int, tile_dms: int) -> int:
    """The slab height (trial DMs) a fused pass cuts the grid into.

    A positive multiple of the configuration's ``tile_dms``, so every
    slab launches with exact work-group tiling.  It aims for roughly
    sixteen slabs — small enough that the slab working set is a
    fraction of the plane's, large enough that per-slab Python and
    launch overhead stays negligible.
    """
    target = max(1, -(-n_dms // 16))
    return tile_dms * max(1, -(-target // tile_dms))


def run_fused_chunk(
    plan,
    chunk,
    detector,
    backend: str | None = None,
) -> FusedChunkResult:
    """Dedisperse and detect one stream chunk slab-by-slab.

    ``plan`` is a tuned :class:`~repro.core.plan.DedispersionPlan`,
    ``chunk`` a :class:`~repro.astro.source.StreamChunk` whose payload
    matches the plan's batch, ``detector`` a
    :class:`~repro.search.detect.MatchedFilterDetector`.  Each chunk
    must meet the same contract as in streaming mode
    (:func:`~repro.run.facade.check_chunk`).
    """
    check_chunk(plan, chunk)
    n_dms = plan.delays.shape[0]
    tile = resolve_dm_tile(n_dms, plan.config.tile_dms)
    account = MemoryAccount()
    launches = 0
    produce_s = 0.0

    def slabs():
        """Yield float32 DM-tile slabs, each dropped before the next."""
        nonlocal launches, produce_s
        for d0 in range(0, n_dms, tile):
            start = time.perf_counter()
            slab = plan.kernel._execute(
                chunk.data, plan.delays[d0 : d0 + tile], backend=backend
            )
            produce_s += time.perf_counter() - start
            launches += 1
            account.charge(slab.nbytes)
            yield slab
            account.release(slab.nbytes)

    labels = {"device": plan.device.name, "setup": plan.setup.name}
    with span(
        "run.fused_chunk",
        beam=chunk.beam_index,
        sequence=chunk.sequence,
        **labels,
    ) as chunk_span:
        start = time.perf_counter()
        candidates = detector.detect_slabs(
            slabs(),
            plan.grid.values,
            time_offset=chunk.sequence * plan.samples,
            beam=chunk.beam_index,
            account=account,
        )
        detect_s = max(time.perf_counter() - start - produce_s, 0.0)
        seconds = plan.predict().seconds
        chunk_span.attributes.update(
            kernel_s=produce_s,
            detect_s=detect_s,
            modelled_s=seconds,
            peak_bytes=account.peak_bytes,
        )

    chunk_seconds = plan.samples / plan.setup.samples_per_second
    registry = get_registry()
    registry.counter("repro_pipeline_chunks_total", **labels).inc()
    if seconds > 0.0:
        registry.gauge(
            "repro_pipeline_realtime_margin", stage="fused", **labels
        ).set(chunk_seconds / seconds)
    registry.histogram("repro_run_peak_bytes", path="fused").observe(
        float(account.peak_bytes)
    )
    return FusedChunkResult(
        beam_index=chunk.beam_index,
        sequence=chunk.sequence,
        candidates=tuple(candidates),
        simulated_seconds=seconds,
        detect_seconds=detect_s,
        peak_bytes=account.peak_bytes,
        launches=launches,
        realtime=seconds <= chunk_seconds,
    )


__all__ = [
    "FusedChunkResult",
    "resolve_dm_tile",
    "run_fused_chunk",
]
