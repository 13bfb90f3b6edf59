"""Serve tuned configurations to many tenants from one shared cache.

A production survey does not re-run the exhaustive sweep for every
pipeline that needs a kernel configuration — it asks a long-lived tuning
service.  This example runs one :class:`~repro.service.TuningService`
through its whole repertoire:

1. **Warm-up** — pre-tune a ladder of instances; each sweep after the
   first is warm-started from its cached neighbour, so most of the
   optimisation space is never simulated.
2. **Concurrent tenants** — nine tenants hammer the service through one
   :class:`~repro.service.ServiceClient` each; every instance was swept
   once, so every authoritative answer comes from the cache.
3. **Admission** — every tenant has its own token bucket; the greedy
   tenant overdraws its own and is answered by the budgeted heuristic
   while the others keep their authoritative answers.
4. **Restart** — a fresh service pointed at the same store directory
   answers from disk without re-sweeping.
5. **Stats** — the counter surface that makes all of the above visible.

Run with::

    python examples/tuning_service.py [store_dir]
"""

import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from repro import DMTrialGrid, apertif
from repro.hardware.catalog import hd7970
from repro.obs import MetricsRegistry
from repro.service import (
    ServiceClient,
    TenantAdmission,
    TuneRequest,
    TuningService,
)
from repro.utils.rng import RandomStreams

INSTANCES = (32, 64, 128, 256, 512)
TENANTS = 8
REQUESTS_PER_TENANT = 10
#: Every tenant's burst allowance; the greedy tenant asks for more.
BUCKET = 16
GREEDY_REQUESTS = 2 * BUCKET


def tenant(service: TuningService, name: str, requests: int) -> list:
    """One simulated science team; returns its responses."""
    client = ServiceClient(service, tenant=name)
    rng = RandomStreams(seed=sum(map(ord, name))).python("load")
    return [
        client.resolve(
            TuneRequest(
                setup="apertif",
                n_dms=DMTrialGrid(rng.choice(INSTANCES)),
                device="HD7970",
            )
        )
        for _ in range(requests)
    ]


def main() -> int:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else None
    scratch = None
    if store_dir is None:
        scratch = tempfile.TemporaryDirectory()
        store_dir = scratch.name

    device, setup = hd7970(), apertif()
    admission = TenantAdmission(capacity=BUCKET, refill_per_s=0.0)
    with TuningService(
        store_dir=store_dir, admission=admission, max_workers=2
    ) as service:
        print("— warm-up (each sweep seeds the next) —")
        for response in service.warm_up(device, setup, INSTANCES):
            print(f"  {response.describe()}")

        loads = {f"team{i}": REQUESTS_PER_TENANT for i in range(TENANTS)}
        loads["greedy"] = GREEDY_REQUESTS
        print(f"\n— {len(loads)} concurrent tenants, one client each —")
        with ThreadPoolExecutor(max_workers=len(loads)) as pool:
            answers = dict(zip(loads, pool.map(
                lambda name: tenant(service, name, loads[name]), loads
            )))
        for name, responses in answers.items():
            slowest = max(r.elapsed_s for r in responses)
            throttled = sum(r.degraded for r in responses)
            print(f"  {name:>6}: {len(responses)} requests, "
                  f"{throttled} throttled, slowest {1e3 * slowest:.2f} ms")

        print("\n— service statistics —")
        print(service.snapshot().render())

    print("\n— restart: a fresh service over the same store —")
    with TuningService(
        store_dir=store_dir, registry=MetricsRegistry()
    ) as reborn:
        client = ServiceClient(reborn, tenant="restart")
        response = client.resolve(
            TuneRequest(
                setup=setup, n_dms=DMTrialGrid(max(INSTANCES)), device=device
            )
        )
        print(f"  {response.describe()}")
        print(f"  sweeps executed after restart: {reborn.snapshot().sweeps}")

    if scratch is not None:
        scratch.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
