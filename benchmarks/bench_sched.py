"""Benchmark the sharded execution engine end to end.

Times a fleet-scale survey run through ``repro.sched.ExecutionEngine``
(virtual makespan, not wall clock — the wall clock here measures the
scheduler itself) in two regimes: fault-free and with the default fault
injection. Each run's makespan and throughput land in
``benchmark.extra_info`` so they appear in pytest-benchmark's JSON
output.

Also runnable directly, emitting a JSON report::

    PYTHONPATH=src python benchmarks/bench_sched.py
"""

import json

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.hardware.catalog import gtx680, hd7970
from repro.sched import ExecutionEngine, FaultProfile, shard_memory_bytes

GRID = DMTrialGrid(256)
SETUP = apertif()
N_BEAMS = 48
DURATION_S = 2.0
#: Per-device memory that fits 64 of the 256 DM trials per shard.
MEM = shard_memory_bytes(SETUP, GRID, 64, SETUP.samples_per_batch)


def _inventory():
    return [(hd7970(), 3, MEM), (gtx680(), 2, MEM)]


def _run(*, faults=None, seed=0):
    engine = ExecutionEngine(
        _inventory(), SETUP, GRID, N_BEAMS, DURATION_S,
        seed=seed, faults=faults,
    )
    return engine.run()


def _record(benchmark, report):
    benchmark.extra_info["makespan_s"] = report.makespan_s
    benchmark.extra_info["throughput_beam_seconds_per_s"] = report.throughput
    benchmark.extra_info["realtime_sustained"] = report.realtime_sustained
    benchmark.extra_info["shards"] = report.shards_total


def test_sched_fault_free(benchmark):
    """Baseline: 5 workers, no faults."""
    report = benchmark.pedantic(_run, rounds=3, iterations=1, warmup_rounds=1)
    assert report.complete
    _record(benchmark, report)


def test_sched_with_fault_injection(benchmark):
    """Default injection: one crash, one straggler, 5% transients."""
    report = benchmark.pedantic(
        lambda: _run(faults=FaultProfile.default_injection()),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert report.complete
    _record(benchmark, report)


def main() -> int:
    rows = []
    for label, kwargs in (
        ("fault_free", {}),
        ("default_injection", {"faults": FaultProfile.default_injection()}),
    ):
        report = _run(**kwargs)
        rows.append(
            {
                "scenario": label,
                "shards": report.shards_total,
                "makespan_s": report.makespan_s,
                "throughput_beam_seconds_per_s": report.throughput,
                "realtime_sustained": report.realtime_sustained,
                "crashed_workers": list(report.crashed_workers),
                "retries": report.retries,
                "steals": report.steals,
            }
        )
    print(json.dumps({"setup": SETUP.name, "n_dms": GRID.n_dms,
                      "n_beams": N_BEAMS, "runs": rows}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
