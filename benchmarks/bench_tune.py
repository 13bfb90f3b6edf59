"""Benchmark the repro.tune search strategies against the exhaustive sweep.

For every (setup, n_dms, device) instance the exhaustive sweep defines
the true optimum and the candidate-space size; each non-exhaustive
strategy is then scored on two axes:

* **match** — did it find a configuration at least as fast as the
  exhaustive optimum (ties count)?
* **cost** — what fraction of the candidate space did it evaluate, in
  full-evaluation equivalents (sub-instance rungs count fractionally)?

The acceptance claim, asserted in ``BENCH_tune.json``: the best strategy
matches the optimum on >=95% of instances while evaluating <=10% of the
space on average.

::

    PYTHONPATH=src python benchmarks/bench_tune.py
    PYTHONPATH=src python benchmarks/bench_tune.py --smoke

``--smoke`` shrinks the instance matrix so CI finishes in seconds; the
emitted ``BENCH_tune.json`` marks itself accordingly.
"""

import argparse
import json
from pathlib import Path

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.tuner import AutoTuner
from repro.hardware.catalog import all_devices, device_by_name
from repro.tune import build_strategy

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_tune.json"

#: Strategies under test (the exhaustive sweep is the baseline).
STRATEGIES = ("model-guided", "halving")

SETUPS = {"apertif": apertif, "lofar": lofar}

#: Full matrix: both paper setups x the paper's mid-range instances x
#: every catalogued accelerator.
FULL_N_DMS = (64, 256, 1024, 2048)
SMOKE_N_DMS = (64, 256)
SMOKE_DEVICES = ("HD7970", "GTX680")


def _instances(smoke: bool):
    devices = (
        [device_by_name(name) for name in SMOKE_DEVICES]
        if smoke else list(all_devices())
    )
    n_dms_list = SMOKE_N_DMS if smoke else FULL_N_DMS
    for setup_name, setup_factory in sorted(SETUPS.items()):
        for n_dms in n_dms_list:
            for device in devices:
                yield setup_name, setup_factory(), n_dms, device


def bench_instance(setup_name, setup, n_dms, device):
    tuner = AutoTuner(device, setup)
    grid = DMTrialGrid(n_dms=n_dms)
    exhaustive = tuner.tune(grid)
    optimum = exhaustive.best.gflops
    row = {
        "setup": setup_name,
        "n_dms": n_dms,
        "device": device.name,
        "space_size": exhaustive.n_configurations,
        "optimum_gflops": round(optimum, 3),
        "strategies": {},
    }
    for name in STRATEGIES:
        outcome = build_strategy(name).search(tuner, grid)
        row["strategies"][name] = {
            "best_gflops": round(outcome.best.gflops, 3),
            "best_config": list(outcome.best.config.as_tuple()),
            "evaluations": round(outcome.evaluations, 3),
            "measurements": outcome.measurements,
            "fraction_evaluated": round(outcome.fraction_evaluated, 4),
            "matched_optimum": outcome.matches(optimum),
        }
    return row


def aggregate(rows):
    summary = {}
    for name in STRATEGIES:
        cells = [row["strategies"][name] for row in rows]
        matches = sum(c["matched_optimum"] for c in cells)
        fractions = [c["fraction_evaluated"] for c in cells]
        summary[name] = {
            "instances": len(cells),
            "matches": matches,
            "match_rate": round(matches / len(cells), 4),
            "mean_fraction_evaluated": round(
                sum(fractions) / len(fractions), 4
            ),
            "max_fraction_evaluated": round(max(fractions), 4),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small instance matrix for CI; seconds instead of minutes",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    rows = [bench_instance(*inst) for inst in _instances(args.smoke)]
    summary = aggregate(rows)
    # The headline claim rides on the best strategy clearing both bars.
    best = max(
        summary.items(),
        key=lambda kv: (kv[1]["match_rate"], -kv[1]["mean_fraction_evaluated"]),
    )
    acceptance = {
        "strategy": best[0],
        "match_rate": best[1]["match_rate"],
        "mean_fraction_evaluated": best[1]["mean_fraction_evaluated"],
        "match_rate_ok": bool(best[1]["match_rate"] >= 0.95),
        "fraction_ok": bool(best[1]["mean_fraction_evaluated"] <= 0.10),
    }
    acceptance["passed"] = bool(
        acceptance["match_rate_ok"] and acceptance["fraction_ok"]
    )
    report = {
        "benchmark": "tune",
        "smoke": args.smoke,
        "instances": rows,
        "summary": summary,
        "acceptance": acceptance,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: report[k] for k in ("summary", "acceptance")},
                     indent=2))
    print(f"wrote {args.out}")
    return 0 if acceptance["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
