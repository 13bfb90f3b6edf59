"""Serve tuned configurations to many clients from one shared cache.

A production survey does not re-run the exhaustive sweep for every
pipeline that needs a kernel configuration — it asks a long-lived tuning
service.  This example runs one :class:`~repro.service.TuningService`
through its whole repertoire:

1. **Warm-up** — pre-tune a ladder of instances; each sweep after the
   first is warm-started from its cached neighbour, so most of the
   optimisation space is never simulated.
2. **Concurrent clients** — eight pipelines ask the service at once;
   every instance was swept once, so every answer comes from the cache.
3. **Restart** — a fresh service pointed at the same store directory
   answers from disk without re-sweeping.
4. **Stats** — the counter surface that makes all of the above visible.

Run with::

    python examples/tuning_service.py [store_dir]
"""

import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from repro import DMTrialGrid, apertif
from repro.hardware.catalog import hd7970
from repro.obs import MetricsRegistry
from repro.service import TuneRequest, TuningService
from repro.utils.rng import RandomStreams

INSTANCES = (32, 64, 128, 256, 512)
CLIENTS = 8
REQUESTS_PER_CLIENT = 10


def client(service: TuningService, index: int) -> list:
    """One simulated pipeline; returns its responses."""
    rng = RandomStreams(seed=index).python("load")
    return [
        service.resolve(
            TuneRequest(
                setup="apertif",
                n_dms=DMTrialGrid(rng.choice(INSTANCES)),
                device="HD7970",
            )
        )
        for _ in range(REQUESTS_PER_CLIENT)
    ]


def main() -> int:
    store_dir = sys.argv[1] if len(sys.argv) > 1 else None
    scratch = None
    if store_dir is None:
        scratch = tempfile.TemporaryDirectory()
        store_dir = scratch.name

    device, setup = hd7970(), apertif()
    with TuningService(store_dir=store_dir, max_workers=2) as service:
        print("— warm-up (each sweep seeds the next) —")
        for response in service.warm_up(device, setup, INSTANCES):
            print(f"  {response.describe()}")

        print(f"\n— {CLIENTS} concurrent clients —")
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            answers = list(pool.map(
                lambda index: client(service, index), range(CLIENTS)
            ))
        for index, responses in enumerate(answers):
            slowest = max(r.elapsed_s for r in responses)
            sources = sorted({r.source for r in responses})
            print(f"  client{index}: {len(responses)} requests from "
                  f"{'/'.join(sources)}, slowest {1e3 * slowest:.2f} ms")

        print("\n— service statistics —")
        print(service.snapshot().render())

    print("\n— restart: a fresh service over the same store —")
    with TuningService(
        store_dir=store_dir, registry=MetricsRegistry()
    ) as reborn:
        response = reborn.resolve(
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
