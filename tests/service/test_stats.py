"""Unit tests for repro.service.stats."""

import threading
from unittest.mock import patch

import pytest

from repro.service import stats as stats_module
from repro.service.stats import ServiceStats, StatsSnapshot


class TestCounters:
    def test_incr_and_snapshot(self):
        stats = ServiceStats()
        stats.incr("hits_memory")
        stats.incr("misses", by=3)
        snap = stats.snapshot()
        assert snap.hits_memory == 1
        assert snap.misses == 3
        assert snap.sweeps == 0

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServiceStats().incr("typo")

    def test_derived_quantities(self):
        stats = ServiceStats()
        stats.incr("requests", by=10)
        stats.incr("hits_memory", by=3)
        stats.incr("hits_disk", by=2)
        stats.incr("degraded_timeout")
        stats.incr("degraded_admission")
        snap = stats.snapshot()
        assert snap.hits == 5
        assert snap.hit_rate == pytest.approx(0.5)
        assert snap.degradations == 2

    def test_hit_rate_zero_when_idle(self):
        assert ServiceStats().snapshot().hit_rate == 0.0

    def test_thread_safety_of_increments(self):
        stats = ServiceStats()

        def spin():
            for _ in range(1000):
                stats.incr("requests")

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.snapshot().requests == 8000


class TestLatencies:
    def test_percentiles_of_known_population(self):
        stats = ServiceStats()
        for ms in range(1, 101):  # 1..100 ms
            stats.record_latency(ms / 1e3)
        snap = stats.snapshot()
        assert snap.p50_latency_s == pytest.approx(0.050, abs=2e-3)
        assert snap.p95_latency_s == pytest.approx(0.095, abs=2e-3)

    def test_empty_reservoir_reports_zero(self):
        snap = ServiceStats().snapshot()
        assert snap.p50_latency_s == 0.0
        assert snap.p95_latency_s == 0.0

    def test_reservoir_is_bounded(self):
        with patch.object(stats_module, "LATENCY_WINDOW", 4):
            stats = ServiceStats()
        for value in (1.0, 1.0, 1.0, 1.0, 0.002, 0.002, 0.002, 0.002):
            stats.record_latency(value)
        # The old 1-second outliers fell out of the window.
        assert stats.snapshot().p95_latency_s == pytest.approx(0.002)


class TestRender:
    def test_render_mentions_every_surface(self):
        stats = ServiceStats()
        stats.incr("requests")
        stats.incr("dedups")
        text = stats.snapshot().render()
        for fragment in (
            "requests", "deduplicated", "sweeps", "strategy",
            "degraded", "hit rate", "latency p50/p95",
        ):
            assert fragment in text

    def test_snapshot_is_frozen(self):
        snap = StatsSnapshot()
        with pytest.raises(Exception):
            snap.requests = 5
