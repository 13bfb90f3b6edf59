"""Behavioural tests for repro.service.TuningService.

The service's two guarantees:

* a repeated request for the same instance performs exactly one sweep
  (verified by a sweep-invocation counter), and
* a cold miss runs the request's strategy, else the exhaustive sweep,
  whatever other instances the cache holds,

plus in-flight deduplication under real threads, both cache tiers,
stale-entry invalidation, the timeout and full-pool degradation paths,
and the validation of ``timeout_s``.
"""

import json
import math
import threading
import time
from unittest.mock import patch

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.tuner import AutoTuner
from repro.errors import PipelineError, TuningError
from repro.hardware.catalog import hd7970, k20
from repro.service import InstanceKey, TuneRequest, TuningService
from repro.service import service as service_module
from repro.service.service import DEGRADED_BUDGET

DEVICE = hd7970()


def resolve(service, n_dms, strategy=None):
    """Resolve one Apertif request for ``DEVICE``."""
    return service.resolve(
        TuneRequest(
            setup=apertif(), n_dms=n_dms, device=DEVICE, strategy=strategy
        )
    )


def counting_factory(calls: list):
    """Tuner factory that records every tune() invocation."""

    def factory(device, setup):
        class CountingTuner(AutoTuner):
            def tune(self, grid, samples=None):
                calls.append(grid.n_dms)
                return super().tune(grid, samples)

        return CountingTuner(device, setup)

    return factory


def gated_factory(started: threading.Event, release: threading.Event):
    """Tuner factory whose sweeps block until the test releases them."""

    def factory(device, setup):
        class GatedTuner(AutoTuner):
            def tune(self, grid, samples=None):
                started.set()
                assert release.wait(timeout=10.0), "test never released gate"
                return super().tune(grid, samples)

        return GatedTuner(device, setup)

    return factory


def unqueued_service(**kwargs) -> TuningService:
    """A service whose pool lets no sweep wait for a worker."""
    with patch.object(service_module, "QUEUE_LIMIT", 0):
        return TuningService(**kwargs)


def wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


class TestSingleSweepPerInstance:
    def test_repeated_get_performs_exactly_one_sweep(self):
        calls = []
        with TuningService(tuner_factory=counting_factory(calls)) as service:
            responses = [
                resolve(service, 32) for _ in range(5)
            ]
        assert len(calls) == 1
        snap = service.snapshot()
        assert snap.sweeps == 1
        assert snap.hits_memory == 4
        assert responses[0].source == "sweep"
        assert all(r.source == "memory" for r in responses[1:])
        assert len({r.best.config for r in responses}) == 1

    def test_int_and_grid_requests_share_one_entry(self):
        with TuningService() as service:
            first = resolve(service, 16)
            second = resolve(service, DMTrialGrid(16))
        assert second.source == "memory"
        assert first.best.config == second.best.config


class TestColdMiss:
    """A cached neighbouring instance never changes how a miss is tuned."""

    def test_exhaustive_optimum_despite_a_cached_neighbour(self):
        with TuningService() as service:
            service.resolve(
                TuneRequest(setup=apertif(), n_dms=128, device=k20())
            )
            response = service.resolve(
                TuneRequest(setup=apertif(), n_dms=8, device=k20())
            )
        assert response.source == "sweep"
        assert response.best.config.as_tuple() == (800, 1, 1, 8)
        assert round(response.best.gflops, 1) == 129.1

    def test_named_strategy_runs_despite_a_cached_neighbour(self):
        with TuningService() as service:
            resolve(service, 32)
            response = resolve(service, 64, strategy="halving")
        assert response.source == "strategy-halving"
        assert service.snapshot().strategy_searches == 1

    @pytest.mark.parametrize("make_setup", [apertif, lofar])
    def test_warm_up_sweeps_every_instance(self, make_setup):
        setup = make_setup()
        with TuningService() as service:
            responses = service.warm_up(DEVICE, setup, [64, 32])
        assert [r.key.n_dms for r in responses] == [32, 64]
        assert {r.source for r in responses} == {"sweep"}
        cold = AutoTuner(DEVICE, setup).tune(DMTrialGrid(64))
        assert responses[-1].best.config == cold.best.config
        assert service.snapshot().sweeps == 2


class TestDeduplication:
    def test_concurrent_requests_share_one_sweep(self):
        started, release = threading.Event(), threading.Event()
        n_clients = 6
        with TuningService(
            tuner_factory=gated_factory(started, release), max_workers=2
        ) as service:
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(resolve(service, 32))
                )
                for _ in range(n_clients)
            ]
            for t in threads:
                t.start()
            # Every follower registers its deduplicated wait before
            # blocking on the leader's future; only then open the gate.
            assert wait_until(
                lambda: service.snapshot().dedups == n_clients - 1
            ), service.snapshot().render()
            release.set()
            for t in threads:
                t.join(timeout=10)
        snap = service.snapshot()
        assert snap.sweeps == 1
        assert snap.misses == n_clients
        assert snap.dedups == n_clients - 1
        assert len(results) == n_clients
        assert len({r.best.config for r in results}) == 1


class TestDiskTier:
    def test_sweeps_survive_restart(self, tmp_path):
        with TuningService(store_dir=tmp_path) as first:
            original = resolve(first, 32)
        with TuningService(store_dir=tmp_path) as reborn:
            revived = resolve(reborn, 32)
        assert revived.source == "disk"
        assert revived.best.config == original.best.config
        snap = reborn.snapshot()
        assert snap.sweeps == 0
        assert snap.hits_disk == 1

    def test_stale_document_invalidated_and_reswept(self, tmp_path):
        key = InstanceKey.for_instance(DEVICE, apertif(), DMTrialGrid(16))
        with TuningService(store_dir=tmp_path) as first:
            resolve(first, 16)
            path = first.store.path_for(key)
        document = json.loads(path.read_text())
        document["samples"][0]["gflops"] *= 3.0  # simulate model drift
        path.write_text(json.dumps(document))
        with TuningService(store_dir=tmp_path) as reborn:
            response = resolve(reborn, 16)
        assert response.source == "sweep"
        snap = reborn.snapshot()
        assert snap.invalidations == 1
        assert snap.sweeps == 1


class TestDegradation:
    @pytest.mark.parametrize(
        "setup, config, gflops, evaluations",
        [
            (apertif(), (32, 4, 1, 8), 309.891, 28),
            (lofar(), (64, 4, 25, 1), 81.404, 26),
        ],
        ids=["apertif", "lofar"],
    )
    def test_degraded_answer_is_pinned(
        self, setup, config, gflops, evaluations
    ):
        # budgeted_tune at the default budget of 48, seed 0.
        started, release = threading.Event(), threading.Event()
        with TuningService(
            tuner_factory=gated_factory(started, release), timeout_s=0.05
        ) as service:
            degraded = service.resolve(
                TuneRequest(setup=setup, n_dms=32, device=DEVICE)
            )
            release.set()
        assert degraded.source == "degraded-timeout"
        assert degraded.best.config.as_tuple() == config
        assert round(degraded.best.gflops, 3) == gflops
        assert degraded.result.n_configurations == evaluations
        assert service.snapshot().degraded_evaluations == evaluations

    def test_timeout_degrades_and_sweep_completes_in_background(self):
        started, release = threading.Event(), threading.Event()
        with TuningService(
            tuner_factory=gated_factory(started, release),
            timeout_s=0.05,
        ) as service:
            degraded = resolve(service, 32)
            assert degraded.degraded
            assert degraded.source == "degraded-timeout"
            # The heuristic answer is usable but never cached.
            key = InstanceKey.for_instance(
                DEVICE, apertif(), DMTrialGrid(32)
            )
            assert service.cache.get(key) is None
            release.set()
            assert wait_until(lambda: service.cache.get(key) is not None)
            settled = resolve(service, 32)
        assert settled.source == "memory"
        assert not settled.degraded
        # Budgeted heuristic can at best tie the exhaustive optimum.
        assert degraded.best.gflops <= settled.best.gflops + 1e-9
        snap = service.snapshot()
        assert snap.degraded_timeout == 1
        assert snap.sweeps == 1

    def test_admission_rejection_degrades_immediately(self):
        started, release = threading.Event(), threading.Event()
        with unqueued_service(
            tuner_factory=gated_factory(started, release), max_workers=1
        ) as service:
            blocker = threading.Thread(
                target=lambda: resolve(service, 32)
            )
            blocker.start()
            assert started.wait(timeout=10)
            rejected = resolve(service, 64)
            release.set()
            blocker.join(timeout=10)
        assert rejected.degraded
        assert rejected.source == "degraded-admission"
        snap = service.snapshot()
        assert snap.degraded_admission == 1
        assert snap.sweeps == 1  # only the blocker's sweep ran
        key64 = InstanceKey.for_instance(DEVICE, apertif(), DMTrialGrid(64))
        assert service.cache.get(key64) is None

    def test_closed_service_rejects_requests(self):
        service = TuningService()
        service.close()
        with pytest.raises(PipelineError):
            resolve(service, 8)


class TestTimeoutValidation:
    @pytest.mark.parametrize("timeout_s", [-1, -math.inf, math.nan, "fast"])
    def test_rejects_bad_timeout(self, timeout_s):
        with pytest.raises(PipelineError, match="timeout_s"):
            TuningService(timeout_s=timeout_s)

    @pytest.mark.parametrize("timeout_s", [0, 0.0, math.inf, None])
    def test_accepts_zero_inf_and_none(self, timeout_s):
        with TuningService(timeout_s=timeout_s, max_workers=1) as service:
            assert resolve(service, 8).best.gflops > 0


class TestSearchStrategies:
    def test_cold_miss_uses_configured_strategy(self):
        with TuningService() as service:
            response = resolve(service, 32, strategy="model-guided")
            again = resolve(service, 32, strategy="model-guided")
        assert response.source == "strategy-model-guided"
        assert not response.degraded
        assert response.best.gflops > 0
        # The strategy's answer is cached like a sweep's.
        assert again.source == "memory"
        assert again.best.config == response.best.config
        snap = service.snapshot()
        assert snap.strategy_searches == 1
        # The strategy job still counts as the instance's one cold sweep.
        assert snap.sweeps == 1

    def test_strategy_matches_exhaustive_optimum_end_to_end(self):
        with TuningService() as exhaustive_service:
            swept = resolve(exhaustive_service, 64)
        with TuningService() as service:
            guided = resolve(service, 64, strategy="model-guided")
        assert guided.best.gflops >= swept.best.gflops - 1e-9

    def test_strategy_instance_accepted(self):
        from repro.tune import SuccessiveHalving

        with TuningService() as service:
            response = resolve(service, 32, strategy=SuccessiveHalving())
        assert response.source == "strategy-halving"

    def test_unknown_strategy_name_rejected(self):
        with pytest.raises(TuningError):
            TuneRequest(
                setup=apertif(), n_dms=32, device=DEVICE,
                strategy="gradient-descent",
            )

    def test_unknown_strategy_leaks_no_pool_slot(self):
        # The only pool slot must still be free after a bad request.
        with unqueued_service(max_workers=1) as service:
            with pytest.raises(TuningError):
                service.resolve(TuneRequest(
                    setup=apertif(), n_dms=32, device=DEVICE,
                    strategy="bogus",
                ))
            response = resolve(service, 64)
        assert response.source == "sweep"
        assert service.snapshot().degraded_admission == 0

    def test_budgeted_fallback_counts_degraded_evaluations(self):
        started, release = threading.Event(), threading.Event()
        with TuningService(
            tuner_factory=gated_factory(started, release),
            timeout_s=0.05,
        ) as service:
            degraded = resolve(service, 32)
            release.set()
        assert degraded.degraded
        snap = service.snapshot()
        assert 0 < snap.degraded_evaluations <= DEGRADED_BUDGET


@pytest.mark.slow
class TestConcurrencyStress:
    def test_many_clients_many_instances(self):
        instances = (16, 32, 64)
        n_clients, n_requests = 8, 15
        with TuningService(max_workers=2) as service:
            import random

            def client(client_id: int):
                rng = random.Random(client_id)
                return [
                    resolve(service, rng.choice(instances))
                    for _ in range(n_requests)
                ]

            results: dict[int, list] = {}
            threads = [
                threading.Thread(
                    target=lambda i=i: results.update({i: client(i)})
                )
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        snap = service.snapshot()
        assert snap.requests == n_clients * n_requests
        # Each instance was swept exactly once no matter the traffic.
        assert snap.sweeps == len(instances)
        assert snap.degradations == 0
        # Every client saw an identical optimum per instance.
        for n_dms in instances:
            optima = {
                r.best.config
                for worker in results.values()
                for r in worker
                if r.key.n_dms == n_dms
            }
            assert len(optima) == 1
