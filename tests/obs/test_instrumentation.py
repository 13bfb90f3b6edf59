"""Instrumented hot paths emit the documented metric series.

Each test isolates the process-wide registry with ``use_registry`` and
drives one subsystem — tuner sweep, tuning service, streaming pipeline —
then asserts the series the observability docs promise
(``docs/observability.md``) actually appear.
"""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.core.tuner import AutoTuner
from repro.hardware.catalog import hd7970
from repro.obs.registry import use_registry
from repro.run import ExecutionRequest, execute
from repro.service import TuneRequest, TuningService
from tests.conftest import make_chunks

DEVICE = hd7970()
REQUEST = TuneRequest(setup=apertif(), n_dms=16, device=DEVICE)


class TestTunerInstrumentation:
    def test_sweep_emits_counters_gauge_and_span(self):
        with use_registry() as reg:
            result = AutoTuner(DEVICE, apertif()).tune(DMTrialGrid(16))
            labels = {"device": DEVICE.name, "setup": "Apertif"}
            assert reg.counter(
                "repro_tuner_sweeps_total", **labels
            ).value == 1
            evaluated = reg.counter(
                "repro_tuner_configs_evaluated_total", **labels
            ).value
            assert evaluated == result.n_configurations
            assert reg.gauge(
                "repro_tuner_best_gflops", **labels
            ).value == pytest.approx(result.best.gflops)
            assert reg.counter(
                "repro_trace_spans_total", span="tuner.sweep"
            ).value == 1


class TestServiceInstrumentation:
    def test_cache_tiers_and_latency_reach_registry(self):
        with use_registry() as reg:
            with TuningService(warm_start=False) as service:
                service.resolve(REQUEST)
                service.resolve(REQUEST)
                instance = service.stats.instance
            assert reg.counter(
                "repro_service_requests_total", instance=instance
            ).value == 2
            assert reg.counter(
                "repro_service_cache_hits_total",
                instance=instance, tier="memory",
            ).value == 1
            assert reg.counter(
                "repro_service_sweeps_total", instance=instance
            ).value == 1
            latency = reg.get(
                "repro_service_request_latency_seconds", instance=instance
            )
            assert latency is not None and latency.count == 2
            # The executed sweep is traced as a service span.
            assert reg.counter(
                "repro_trace_spans_total", span="service.sweep"
            ).value == 1

    def test_snapshot_and_registry_agree(self):
        with use_registry() as reg:
            with TuningService(warm_start=False) as service:
                service.resolve(REQUEST)
                snap = service.snapshot()
                instance = service.stats.instance
            assert snap.requests == reg.counter(
                "repro_service_requests_total", instance=instance
            ).value


class TestPipelineInstrumentation:
    def test_streaming_chunk_emits_margin_and_span(self, toy_low, toy_grid):
        plan = DedispersionPlan.create(
            toy_low,
            toy_grid,
            DEVICE,
            config=KernelConfiguration(16, 4, 5, 2),
            samples=toy_low.samples_per_second,
        )
        chunks = make_chunks(toy_low, toy_grid, n_chunks=1, seed=9)
        with use_registry() as reg:
            (result,) = execute(
                ExecutionRequest(plan=plan, chunks=chunks)
            ).chunk_results
            labels = {"device": DEVICE.name, "setup": toy_low.name}
            assert reg.counter(
                "repro_pipeline_chunks_total", **labels
            ).value == 1
            margin = reg.gauge(
                "repro_pipeline_realtime_margin",
                stage="dedisperse", **labels,
            ).value
            assert margin == pytest.approx(
                plan.samples / toy_low.samples_per_second
                / result.simulated_seconds
            )
            assert reg.counter(
                "repro_trace_spans_total", span="pipeline.dedisperse"
            ).value == 1
