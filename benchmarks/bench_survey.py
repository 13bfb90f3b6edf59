"""Benchmark the multi-beam survey driver (repro.survey).

Three questions, one report:

* **scaling** — survey makespan and fleet throughput as the beam count
  and trial-DM count grow (beams x n_dms grid on the low setup), the
  sizing axis of the paper's Sec. V-D many-beam argument;
* **acceptance matrix** — for the two headline scenarios
  (``giant_pulse_train``, ``rfi_storm``) at 8 beams on *both* benchmark
  setups and *both* kernel backends: recall, pre/post-coincidence false
  positives, makespan, and the real-time verdict;
* **fault tolerance** — the same survey with the default fault
  injection (crashes, transients, stragglers) on the simulated fleet:
  recall must survive, and the report records whether real time did.

::

    PYTHONPATH=src python benchmarks/bench_survey.py
    PYTHONPATH=src python benchmarks/bench_survey.py --smoke

``--smoke`` trims the scaling grid so CI finishes in seconds; the
emitted ``BENCH_survey.json`` marks itself accordingly.
"""

import argparse
import json
import time
from pathlib import Path

from repro.sched import FaultProfile
from repro.survey import SurveyPlan, run_survey

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_survey.json"

#: The acceptance matrix: scenario x setup x backend at 8 beams.
SCENARIOS = ("giant_pulse_train", "rfi_storm")
SETUPS = ("low", "high")
BACKENDS = ("tiled", "vectorized")

#: The scaling grid (low setup): beams x trial-DM counts.
SCALING_BEAMS = (2, 4, 8, 12)
SCALING_DMS = (12, 24)
SMOKE_SCALING_BEAMS = (2, 8)
SMOKE_SCALING_DMS = (12,)


def _run(plan: SurveyPlan) -> tuple[dict, float]:
    start = time.perf_counter()
    report = run_survey(plan)
    wall = time.perf_counter() - start
    doc = report.as_dict()
    doc["wall_seconds"] = round(wall, 3)
    return doc, wall


def bench_matrix() -> list:
    """Scenario x setup x backend acceptance cells at 8 beams."""
    rows = []
    for scenario in SCENARIOS:
        for setup in SETUPS:
            for backend in BACKENDS:
                doc, _ = _run(
                    SurveyPlan(
                        scenario=scenario,
                        setup=setup,
                        n_beams=8,
                        backend=backend,
                    )
                )
                rows.append(doc)
                score = doc["score"]
                print(
                    f"  {scenario:18s} {setup:4s} {backend:10s} "
                    f"recall {score['recall']:.2f} "
                    f"fp {score['pre_false_positives']}->"
                    f"{score['post_false_positives']} "
                    f"makespan {doc['makespan_s']:.3f}s "
                    f"{doc['verdict']}"
                )
    return rows


def bench_scaling(beam_counts, dm_counts) -> list:
    """Makespan / throughput over the beams x n_dms grid (low setup)."""
    rows = []
    for n_dms in dm_counts:
        for n_beams in beam_counts:
            doc, wall = _run(
                SurveyPlan(
                    scenario="giant_pulse_train",
                    setup="low",
                    n_beams=n_beams,
                    n_dms=n_dms,
                )
            )
            row = {
                "n_beams": n_beams,
                "n_dms": n_dms,
                "makespan_s": doc["makespan_s"],
                "throughput": doc["fleet"]["throughput"],
                "realtime": doc["realtime"],
                "verdict": doc["verdict"],
                "wall_seconds": round(wall, 3),
            }
            rows.append(row)
            print(
                f"  beams={n_beams:3d} n_dms={n_dms:3d} "
                f"makespan {row['makespan_s']:.3f}s "
                f"throughput {row['throughput']:.1f} beam-s/s "
                f"{row['verdict']}"
            )
    return rows


def bench_faults() -> dict:
    """The storm survey with fleet fault injection: does recall survive?"""
    doc, _ = _run(
        SurveyPlan(
            scenario="rfi_storm",
            n_beams=8,
            faults=FaultProfile.default_injection(),
        )
    )
    score = doc["score"]
    print(
        f"  injected faults: recall {score['recall']:.2f} "
        f"fp {score['pre_false_positives']}->"
        f"{score['post_false_positives']} "
        f"fleet complete={doc['fleet']['complete']} "
        f"{doc['verdict']}"
    )
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="trimmed scaling grid for CI; seconds instead of minutes",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    beam_counts = SMOKE_SCALING_BEAMS if args.smoke else SCALING_BEAMS
    dm_counts = SMOKE_SCALING_DMS if args.smoke else SCALING_DMS
    print("acceptance matrix (8 beams):")
    matrix = bench_matrix()
    print("scaling (giant_pulse_train, low setup):")
    scaling = bench_scaling(beam_counts, dm_counts)
    print("fault injection (rfi_storm, 8 beams):")
    faults = bench_faults()
    report = {
        "benchmark": "survey",
        "smoke": args.smoke,
        "matrix": matrix,
        "scaling": scaling,
        "faults": faults,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
