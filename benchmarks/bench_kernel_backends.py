"""Benchmark the tiled vs vectorized kernel executors.

Measures wall-clock per launch for both backends of
:class:`repro.opencl_sim.kernel.DedispersionKernel` at an Apertif-like
scale (1,024 channels — the regime whose thousands of work-groups made
the tiled Python replay the slowest path in the repository) and a
LOFAR-like scale (32 channels, long batches), asserts bit-identical
outputs, records how many DM-row blocks the vectorized executor splits
each launch into and how many cores (``workers``) it shares them
among, and writes the first entry of the ``BENCH_*.json`` perf
trajectory::

    PYTHONPATH=src python benchmarks/bench_kernel_backends.py
    PYTHONPATH=src python benchmarks/bench_kernel_backends.py --smoke

``--smoke`` shrinks the batches so CI finishes in seconds; the emitted
JSON marks itself accordingly.  Its LOFAR launch still spans two DM
blocks, so the bit-identity assert crosses a block seam.  The full run
records the acceptance number: >= 10x speedup over the tiled path at
the Apertif scale.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.astro.dispersion import delay_table
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.config import KernelConfiguration
from repro.opencl_sim.codegen import build_kernel
from repro.run import ExecutionRequest, execute
from repro.utils.rows import block_rows, row_ranges

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"

#: (scale label, setup factory, samples, n_dms, DM step, configuration).
#: Small tiles => many work-groups, the regime the fast path targets;
#: the configurations tile samples and n_dms exactly in every scenario.
SCALES = [
    ("apertif", apertif, 2000, 128, 0.25, KernelConfiguration(25, 2, 2, 2)),
    ("lofar", lofar, 10000, 64, 0.05, KernelConfiguration(100, 2, 2, 2)),
]
SMOKE_SCALES = [
    ("apertif", apertif, 200, 16, 0.25, KernelConfiguration(25, 2, 2, 2)),
    ("lofar", lofar, 10000, 16, 0.05, KernelConfiguration(100, 2, 2, 2)),
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


def bench_scale(label, setup_factory, samples, n_dms, dm_step, config, repeats):
    setup = setup_factory()
    grid = DMTrialGrid(n_dms=n_dms, first=0.0, step=dm_step)
    table = delay_table(setup, grid.values)
    rng = np.random.default_rng(0)
    data = rng.normal(
        size=(setup.channels, samples + int(table.max()))
    ).astype(np.float32)
    kernel = build_kernel(config, setup.channels, samples)

    def run(backend):
        return execute(
            ExecutionRequest(
                data=data, kernel=kernel, delay_table=table, backend=backend
            )
        ).output

    tiled_out = run("tiled")
    fast_out = run("vectorized")
    bit_identical = bool(np.array_equal(tiled_out, fast_out))
    assert bit_identical, f"{label}: executors diverged"

    tiled_s = _time(lambda: run("tiled"), repeats)
    fast_s = _time(lambda: run("vectorized"), repeats)
    step = block_rows(4 * samples)
    return {
        "scale": label,
        "setup": setup.name,
        "channels": setup.channels,
        "samples": samples,
        "n_dms": n_dms,
        "config": config.describe(),
        "work_groups": kernel.ndrange(n_dms).n_work_groups,
        "dm_blocks": -(-n_dms // step),
        "workers": len(row_ranges(n_dms, step)),
        "tiled_seconds": round(tiled_s, 6),
        "vectorized_seconds": round(fast_s, 6),
        "speedup": round(tiled_s / fast_s, 2),
        "bit_identical": bit_identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny batches for CI; seconds instead of minutes",
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
        "benchmark": "kernel_backends",
        "smoke": args.smoke,
        "scales": rows,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
