"""Benchmark the multi-tenant tuning service under closed-loop load.

A seeded closed-loop load generator (each tenant thread issues its next
request as soon as the previous answer lands) drives one
:class:`repro.service.TuningService` over a fixed instance mix,
recording:

* **latency** — client-observed p50/p95/p99;
* **saturation throughput** — completed requests per wall-clock second
  of the closed loop;
* **sweeps and cache-hit ratio** — how much of the load never reached
  a sweep (every instance must be swept exactly once);
* **restart from the store** — a fresh service on the same sweep store
  must answer an instance from disk, without re-sweeping;
* **fairness** — an aggressor tenant blowing through its token bucket
  must degrade only itself: every victim answer stays authoritative.

The acceptance claims asserted in ``BENCH_service.json``: one sweep per
instance, the restarted service answers from disk, the aggressor is
throttled while no victim is, and every closed-loop request is answered.

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
from repro.service import TenantAdmission, TuneRequest, TuningService
from repro.utils.rng import RandomStreams

DEFAULT_OUT = Path(__file__).resolve().parents[1] / "BENCH_service.json"

FULL = {"tenants": 8, "load": 12, "n_dms": (32, 64, 128, 256)}
SMOKE = {"tenants": 3, "load": 4, "n_dms": (16, 32)}

#: Fairness scenario: same bucket for everyone; only the aggressor's
#: request count exceeds it.
FAIRNESS_BUCKET = 8.0
AGGRESSOR_LOAD = 40
VICTIM_LOAD = 5


def tenant_loop(service, tenant, load, n_dms_mix, seed):
    """One closed-loop tenant; returns its per-request latencies."""
    rng = RandomStreams(seed).python(f"load-{tenant}")
    latencies = []
    for _ in range(load):
        request = TuneRequest(
            setup="apertif",
            n_dms=rng.choice(n_dms_mix),
            device="HD7970",
            tenant=tenant,
        )
        started = time.perf_counter()
        service.resolve(request)
        latencies.append(time.perf_counter() - started)
    return latencies


def run_closed_loop(tenants, load, n_dms_mix, store_dir):
    """Drive one service to saturation; return the closed-loop row."""
    with TuningService(
        store_dir=store_dir, registry=MetricsRegistry(), max_workers=2
    ) as service:
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=tenants) as pool:
            futures = [
                pool.submit(
                    tenant_loop, service, f"tenant{i}", load, n_dms_mix, i
                )
                for i in range(tenants)
            ]
            latencies = sorted(
                lat for future in futures for lat in future.result()
            )
        elapsed = time.perf_counter() - started
        snap = service.snapshot()
    total = tenants * load
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
    request = TuneRequest(
        setup="apertif", n_dms=n_dms, device="HD7970", tenant="seeder"
    )
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


def run_fairness(n_dms_mix):
    """Aggressor vs victims under one shared token-bucket policy."""
    admission = TenantAdmission(capacity=FAIRNESS_BUCKET, refill_per_s=1.0)
    with TuningService(
        admission=admission, registry=MetricsRegistry()
    ) as service:
        # Warm the mix so the scenario measures admission, not sweeps.
        service.warm_up("HD7970", "apertif", n_dms_mix)

        def loop(tenant, load, seed):
            rng = RandomStreams(seed).python("mix")
            return [
                service.resolve(TuneRequest(
                    setup="apertif", n_dms=rng.choice(n_dms_mix),
                    device="HD7970", tenant=tenant,
                ))
                for _ in range(load)
            ]

        with ThreadPoolExecutor(max_workers=3) as pool:
            aggressor = pool.submit(loop, "aggressor", AGGRESSOR_LOAD, 0)
            victims = [
                pool.submit(loop, f"victim{i}", VICTIM_LOAD, i + 1)
                for i in range(2)
            ]
            aggressor_responses = aggressor.result()
            victim_responses = [
                r for future in victims for r in future.result()
            ]
    throttled_by_tenant: dict[str, int] = {}
    for response in aggressor_responses + victim_responses:
        throttled_by_tenant[response.tenant] = throttled_by_tenant.get(
            response.tenant, 0
        ) + (response.source == "degraded-admission")
    aggressor_degraded = sum(r.degraded for r in aggressor_responses)
    victim_degraded = sum(r.degraded for r in victim_responses)
    return {
        "bucket_capacity": FAIRNESS_BUCKET,
        "aggressor_requests": AGGRESSOR_LOAD,
        "victim_requests": len(victim_responses),
        "aggressor_degraded": aggressor_degraded,
        "victim_degraded": victim_degraded,
        "throttled_by_tenant": dict(sorted(throttled_by_tenant.items())),
        "isolated": bool(aggressor_degraded > 0 and victim_degraded == 0),
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
            profile["tenants"], profile["load"], profile["n_dms"], store
        )
    with tempfile.TemporaryDirectory(prefix="bench-restart-") as store:
        restart = run_restart(max(profile["n_dms"]), store)
    fairness = run_fairness(profile["n_dms"])

    acceptance = {
        "one_sweep_per_instance_ok": closed_loop["one_sweep_per_instance"],
        "restart_from_store_ok": restart["from_disk"],
        "fairness_ok": fairness["isolated"],
        "all_answered_ok": closed_loop["all_answered"],
    }
    acceptance["passed"] = bool(all(acceptance.values()))
    report = {
        "benchmark": "service",
        "smoke": args.smoke,
        "profile": {
            "tenants": profile["tenants"],
            "requests_per_tenant": profile["load"],
            "n_dms_mix": list(profile["n_dms"]),
        },
        "closed_loop": closed_loop,
        "restart": restart,
        "fairness": fairness,
        "acceptance": acceptance,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(
        {k: report[k] for k in ("closed_loop", "restart", "fairness",
                                "acceptance")},
        indent=2,
    ))
    print(f"wrote {args.out}")
    return 0 if acceptance["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
