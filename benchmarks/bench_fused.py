"""Benchmark the fused dedisperse→detect path against the staged one.

The fused execution mode (:mod:`repro.run.fused`) interleaves
dedispersion and matched-filter detection over DM-tile slabs so the
chunk's full DM×time plane never exists in memory.  This benchmark pins
the three numbers that justify it, per setup and per kernel backend:

* **peak working set** — the metered per-chunk high-water bytes
  (:class:`repro.run.peak.MemoryAccount`, the same accounting rules on
  both paths).  The acceptance number: the fused path must hold at
  least a 4x reduction at the Apertif scale.
* **wall time** — end-to-end streaming-search seconds for the same
  chunks; fused must be no slower than staged beyond a small tolerance
  (it does the same arithmetic, just tiled).
* **candidate parity** — accepted/vetoed candidate lists must be
  bit-identical across fused/staged *and* across the tiled/vectorized
  executors; any divergence fails the run.

::

    PYTHONPATH=src python benchmarks/bench_fused.py
    PYTHONPATH=src python benchmarks/bench_fused.py --smoke

``--smoke`` shrinks the streams so CI finishes in seconds; the emitted
``BENCH_fused.json`` marks itself accordingly.
"""

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.source import (
    CompositeSource,
    NoiseSource,
    PulsarSource,
    stream_chunks,
)
from repro.core.plan import DedispersionPlan
from repro.hardware.catalog import hd7970
from repro.search import SearchConfig, search_stream
from repro.utils.rng import RandomStreams

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_fused.json"

#: (scale label, setup factory, chunk samples, n_dms, DM step, chunks).
#: Mirrors bench_search.py, but the Apertif grid is taller (256 trials):
#: Apertif's tuned configuration tiles 32 DMs per work group, so a
#: plane-scale peak advantage needs a grid several work-group tiles
#: high — which is also the realistic regime (the paper's Apertif runs
#: search thousands of trials).
SCALES = [
    ("lofar", lofar, 20_000, 16, 1.0, 4),
    ("apertif", apertif, 1_000, 256, 1.0, 3),
]
SMOKE_SCALES = [
    ("lofar", lofar, 4_000, 16, 1.0, 2),
    ("apertif", apertif, 500, 16, 1.0, 2),
]

#: Every kernel executor must produce the same candidates either way.
BACKENDS = ("tiled", "vectorized")

#: Fused may not be slower than staged by more than this factor (same
#: arithmetic, tiled differently; the slack absorbs timer noise).
WALL_TOLERANCE = 1.25

#: Required peak-memory advantage of the fused path at Apertif scale.
APERTIF_MIN_PEAK_RATIO = 4.0


def _signature(report):
    """A comparable, exact value of everything the search found."""
    return (report.result.accepted, report.result.vetoed)


def _time(fn, repeats):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_scale(label, setup_factory, samples, n_dms, dm_step, n_chunks,
                repeats):
    setup = replace(setup_factory(), samples_per_batch=samples)
    grid = DMTrialGrid(n_dms=n_dms, first=dm_step, step=dm_step)
    plan = DedispersionPlan.create(setup, grid, hd7970())
    chunk_seconds = plan.samples / setup.samples_per_second

    true_dm = float(grid.values[n_dms // 2])
    pulsar = SyntheticPulsar(
        n_chunks * chunk_seconds / 3.0, dm=true_dm, amplitude=0.5
    )
    chunks, _ = stream_chunks(
        CompositeSource((NoiseSource(1.0), PulsarSource(pulsar))),
        setup, grid, n_chunks, RandomStreams(42),
        chunk_samples=plan.samples,
    )

    # One untimed pass per path first: with a single repeat, whichever
    # path ran first would alone pay the process's first-call costs
    # (the first plan.predict(), the first validation of each metric
    # series, NumPy's first touches) and the ratio would depend on order.
    for fused_flag in (True, False):
        search_stream(
            plan, iter(chunks), SearchConfig(fused=fused_flag),
            backend="vectorized",
        )
    fused_s, fused = _time(
        lambda: search_stream(
            plan, iter(chunks), SearchConfig(fused=True),
            backend="vectorized",
        ),
        repeats,
    )
    staged_s, staged = _time(
        lambda: search_stream(
            plan, iter(chunks), SearchConfig(fused=False),
            backend="vectorized",
        ),
        repeats,
    )

    if _signature(fused) != _signature(staged):
        raise SystemExit(
            f"{label}: fused and staged candidate lists diverged"
        )
    reference = _signature(fused)
    for backend in BACKENDS:
        for fused_flag in (True, False):
            report = search_stream(
                plan, iter(chunks), SearchConfig(fused=fused_flag),
                backend=backend,
            )
            if _signature(report) != reference:
                raise SystemExit(
                    f"{label}: candidates diverged on backend={backend} "
                    f"fused={fused_flag}"
                )

    peak_ratio = staged.peak_bytes / fused.peak_bytes
    return {
        "scale": label,
        "setup": setup.name,
        "channels": setup.channels,
        "n_dms": n_dms,
        "chunk_samples": samples,
        "chunks": n_chunks,
        "fused_seconds": round(fused_s, 6),
        "staged_seconds": round(staged_s, 6),
        "fused_peak_bytes": int(fused.peak_bytes),
        "staged_peak_bytes": int(staged.peak_bytes),
        "peak_ratio": round(peak_ratio, 2),
        "wall_ratio": round(fused_s / staged_s, 3),
        "verdict_fused": fused.verdict,
        "verdict_staged": staged.verdict,
        "candidates_accepted": len(fused.result.accepted),
        "candidates_vetoed": len(fused.result.vetoed),
        "parity_backends": list(BACKENDS),
        "parity": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny streams for CI; seconds instead of minutes",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else SCALES
    repeats = 1 if args.smoke else 3
    rows = [bench_scale(*scale, repeats) for scale in scales]

    failures = []
    for row in rows:
        if row["wall_ratio"] > WALL_TOLERANCE:
            failures.append(
                f"{row['scale']}: fused {row['wall_ratio']}x slower than "
                f"staged (tolerance {WALL_TOLERANCE}x)"
            )
    if not args.smoke:
        apertif_row = next(r for r in rows if r["scale"] == "apertif")
        if apertif_row["peak_ratio"] < APERTIF_MIN_PEAK_RATIO:
            failures.append(
                f"apertif: peak reduction {apertif_row['peak_ratio']}x < "
                f"required {APERTIF_MIN_PEAK_RATIO}x"
            )

    report = {
        "benchmark": "fused",
        "smoke": args.smoke,
        "scales": rows,
        "failures": failures,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
