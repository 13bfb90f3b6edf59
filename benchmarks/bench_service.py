"""Benchmark the tuning service under closed-loop load.

A seeded closed-loop load generator (each client thread issues its next
request as soon as the previous answer lands) drives one
:class:`repro.service.TuningService` over a fixed instance mix,
recording:

* **latency** — client-observed p50/p95/p99;
* **saturation throughput** — completed requests per wall-clock second
  of the closed loop;
* **sweeps and cache-hit ratio** — how much of the load never reached
  a sweep (every instance must be swept exactly once);
* **restart from the store** — a fresh service on the same sweep store
  must answer an instance from disk, without re-sweeping.

The acceptance claims asserted in ``BENCH_service.json``: one sweep per
instance, the restarted service answers from disk, and every
closed-loop request is answered.

::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --smoke

``--smoke`` shrinks the load so CI finishes in seconds; the emitted
``BENCH_service.json`` marks itself accordingly.
"""

import argparse
import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.obs import MetricsRegistry, percentile
from repro.service import TuneRequest, TuningService
from repro.utils.rng import RandomStreams

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_service.json"

FULL = {"clients": 8, "load": 12, "n_dms": (32, 64, 128, 256)}
SMOKE = {"clients": 3, "load": 4, "n_dms": (16, 32)}


def client_loop(service, client, load, n_dms_mix, seed):
    """One closed-loop client; returns its per-request latencies."""
    rng = RandomStreams(seed).python(f"load-{client}")
    latencies = []
    for _ in range(load):
        request = TuneRequest(
            setup="apertif", n_dms=rng.choice(n_dms_mix), device="HD7970"
        )
        started = time.perf_counter()
        service.resolve(request)
        latencies.append(time.perf_counter() - started)
    return latencies


def run_closed_loop(clients, load, n_dms_mix, store_dir):
    """Drive one service to saturation; return the closed-loop row."""
    with TuningService(
        store_dir=store_dir, registry=MetricsRegistry(), max_workers=2
    ) as service:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            futures = [
                pool.submit(
                    client_loop, service, f"client{i}", load, n_dms_mix, i
                )
                for i in range(clients)
            ]
            latencies = sorted(
                lat for future in futures for lat in future.result()
            )
        elapsed = time.perf_counter() - started
        snap = service.snapshot()
    total = clients * load
    return {
        "requests": total,
        "wall_s": round(elapsed, 4),
        "throughput_rps": round(total / elapsed, 2),
        "p50_latency_ms": round(1e3 * percentile(latencies, 0.50), 3),
        "p95_latency_ms": round(1e3 * percentile(latencies, 0.95), 3),
        "p99_latency_ms": round(1e3 * percentile(latencies, 0.99), 3),
        "sweeps": snap.sweeps,
        "one_sweep_per_instance": bool(snap.sweeps == len(n_dms_mix)),
        "cache_hit_ratio": round(snap.hit_rate, 4),
        "all_answered": bool(
            len(latencies) == total and snap.requests == total
        ),
    }


def run_restart(n_dms, store_dir):
    """Tune once, then ask a fresh service on the same store."""
    request = TuneRequest(setup="apertif", n_dms=n_dms, device="HD7970")
    with TuningService(
        store_dir=store_dir, registry=MetricsRegistry()
    ) as first:
        tuned = first.resolve(request)
    with TuningService(
        store_dir=store_dir, registry=MetricsRegistry()
    ) as reborn:
        revived = reborn.resolve(request)
        sweeps = reborn.snapshot().sweeps
    return {
        "n_dms": n_dms,
        "first_source": tuned.source,
        "restart_source": revived.source,
        "restart_sweeps": sweeps,
        "from_disk": bool(
            revived.source == "disk"
            and sweeps == 0
            and revived.best.config == tuned.best.config
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small load for CI; seconds instead of minutes",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    profile = SMOKE if args.smoke else FULL

    with tempfile.TemporaryDirectory(prefix="bench-service-") as store:
        closed_loop = run_closed_loop(
            profile["clients"], profile["load"], profile["n_dms"], store
        )
    with tempfile.TemporaryDirectory(prefix="bench-restart-") as store:
        restart = run_restart(max(profile["n_dms"]), store)

    acceptance = {
        "one_sweep_per_instance_ok": closed_loop["one_sweep_per_instance"],
        "restart_from_store_ok": restart["from_disk"],
        "all_answered_ok": closed_loop["all_answered"],
    }
    acceptance["passed"] = bool(all(acceptance.values()))
    report = {
        "benchmark": "service",
        "smoke": args.smoke,
        "profile": {
            "clients": profile["clients"],
            "requests_per_client": profile["load"],
            "n_dms_mix": list(profile["n_dms"]),
        },
        "closed_loop": closed_loop,
        "restart": restart,
        "acceptance": acceptance,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(
        {k: report[k] for k in ("closed_loop", "restart", "acceptance")},
        indent=2,
    ))
    print(f"wrote {args.out}")
    return 0 if acceptance["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
