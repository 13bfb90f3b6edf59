"""Benchmark the real-time candidate search subsystem.

Two questions, one report:

* **detector throughput** — how many time samples per second the
  matched-filter bank of :class:`repro.search.detect.MatchedFilterDetector`
  searches across a dedispersed DM×time plane, against the real-time
  requirement (the setup's sampling rate).  The LOFAR toy scale is the
  acceptance number: the detector must clear 200k samples/s.
* **end-to-end verdict** — an injected-pulse stream driven through
  :func:`repro.search.search_stream` (facade-executed dedispersion,
  detection, sifting) on the vectorized backend: chunks processed /
  dropped, the graceful-degradation verdict, and whether the injected
  candidate was recovered.

::

    PYTHONPATH=src python benchmarks/bench_search.py
    PYTHONPATH=src python benchmarks/bench_search.py --smoke

``--smoke`` shrinks the streams so CI finishes in seconds; the emitted
``BENCH_search.json`` marks itself accordingly.
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
from repro.search.detect import MatchedFilterDetector
from repro.utils.rng import RandomStreams

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_search.json"

#: (scale label, setup factory, chunk samples, n_dms, DM step, chunks).
#: The LOFAR toy setup (16 trials at the full 200k samples/s rate) is
#: the real-time acceptance scale; the Apertif scale exercises the wide
#: (1,024-channel) band at a downscaled batch.
SCALES = [
    ("lofar", lofar, 20_000, 16, 1.0, 4),
    ("apertif", apertif, 1_000, 32, 1.0, 3),
]
SMOKE_SCALES = [
    ("lofar", lofar, 4_000, 16, 1.0, 2),
    ("apertif", apertif, 500, 16, 1.0, 2),
]


def _time(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time (seconds)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_scale(label, setup_factory, samples, n_dms, dm_step, n_chunks, repeats):
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

    # End to end: facade-executed dedispersion into detection + sifting.
    report = search_stream(
        plan, iter(chunks), SearchConfig(rfi_mitigation=True),
        backend="vectorized",
    )
    best = report.best
    recovered = bool(
        best is not None and abs(best.best.dm_index - n_dms // 2) <= 1
    )

    # Detector throughput on the full dedispersed stream, isolated from
    # dedispersion: time samples searched per wall-clock second.
    from repro.run import ExecutionRequest, execute

    plane = execute(
        ExecutionRequest(plan=plan, chunks=chunks, backend="vectorized")
    ).output
    detector = MatchedFilterDetector()
    detector.detect(plane, grid.values)  # warm-up
    detect_s = _time(lambda: detector.detect(plane, grid.values), repeats)
    total_samples = plane.shape[1]
    throughput = total_samples / detect_s

    return {
        "scale": label,
        "setup": setup.name,
        "channels": setup.channels,
        "n_dms": n_dms,
        "chunk_samples": samples,
        "chunks": n_chunks,
        "samples_searched": int(total_samples),
        "detect_seconds": round(detect_s, 6),
        "detector_samples_per_second": round(throughput, 1),
        "realtime_samples_per_second": setup.samples_per_second,
        "detector_realtime": bool(throughput >= setup.samples_per_second),
        "verdict": report.verdict,
        "chunks_processed": report.chunks_processed,
        "chunks_dropped": report.chunks_dropped,
        "candidates_accepted": len(report.result.accepted),
        "candidates_vetoed": len(report.result.vetoed),
        "injected_dm": true_dm,
        "recovered": recovered,
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
    report = {
        "benchmark": "search",
        "smoke": args.smoke,
        "scales": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
