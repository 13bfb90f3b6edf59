"""End-to-end pipeline benchmark at Apertif and LOFAR scale.

Runs scenario chunks through the tuned dedispersion kernel, the
matched-filter detector and the sifter (plus fleet scheduling and
cross-beam coincidence on the survey workload) and prints one JSON
result as the last line of standard output.  The line before it is an
informational record: provenance (commit, host, library versions, seed),
the stream verdict, sample counts and any correctness problems.

::

    python3 perfbench/run.py --workload lofar_rfi --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs traced
passes and reports the per-layer breakdown instead.  ``--smoke`` runs
the small variants the benchmark's own tests use.  Run from the root of
a source checkout: the package is imported from its ``src`` directory.
Numerical libraries are held to one thread, so the run measures one
process on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Before NumPy is first imported: thread pools are sized at load time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end dedispersion pipeline benchmark"
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no package sources under {ROOT / 'src'}; run from a "
            "source checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: "
            f"{', '.join(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result, info = harness.measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    info["provenance"] = harness.provenance(ROOT, args.seed, args.smoke)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
