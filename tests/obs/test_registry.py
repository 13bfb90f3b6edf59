"""Unit tests for repro.obs.registry: instruments and the registry."""

import sys
import threading

import pytest

from repro.errors import ValidationError
from repro.obs.registry import (
    DEFAULT_WINDOW,
    Counter,
    Gauge,
    MetricsRegistry,
    get_registry,
    percentile,
    set_registry,
    use_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestPercentile:
    def test_nearest_rank_midpoint(self):
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_extremes(self):
        data = [float(i) for i in range(10)]
        assert percentile(data, 0.0) == 0.0
        assert percentile(data, 1.0) == 9.0

    def test_single_element(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_p95_of_hundred(self):
        # rank = round(0.95 * 99) = 94
        data = [float(i) for i in range(100)]
        assert percentile(data, 0.95) == 94.0

    def test_fraction_clamped(self):
        data = [1.0, 2.0]
        assert percentile(data, -0.5) == 1.0
        assert percentile(data, 1.5) == 2.0


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        c = registry.counter("repro_test_events_total")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self, registry):
        c = registry.counter("repro_test_events_total")
        with pytest.raises(ValidationError, match="cannot decrease"):
            c.inc(-1)

    def test_must_end_in_total(self, registry):
        with pytest.raises(ValidationError, match="_total"):
            registry.counter("repro_test_events")

    def test_get_or_create_returns_same_object(self, registry):
        a = registry.counter("repro_test_events_total", device="HD7970")
        b = registry.counter("repro_test_events_total", device="HD7970")
        assert a is b

    def test_label_values_split_series(self, registry):
        a = registry.counter("repro_test_events_total", device="HD7970")
        b = registry.counter("repro_test_events_total", device="K20")
        assert a is not b
        a.inc()
        assert b.value == 0


class TestGauge:
    def test_set_and_inc(self, registry):
        g = registry.gauge("repro_test_margin_ratio")
        g.set(2.5)
        assert g.value == 2.5
        g.inc(-1.0)
        assert g.value == 1.5

    def test_gauge_must_not_end_in_total(self, registry):
        with pytest.raises(ValidationError, match="reserved for counters"):
            registry.gauge("repro_test_margin_total")


class TestHistogram:
    def test_exact_count_and_sum(self, registry):
        h = registry.histogram("repro_test_latency_seconds")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6.0

    def test_percentiles_over_reservoir(self, registry):
        h = registry.histogram("repro_test_latency_seconds")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0.5) == percentile(
            [float(v) for v in range(1, 101)], 0.5
        )
        q = h.quantiles((0.5, 0.95))
        assert q[0.5] == 50.0  # nearest rank ceil(0.5 * 100) = 50 (1-based)
        assert q[0.95] == 95.0  # nearest rank ceil(0.95 * 100) = 95 (1-based)

    def test_even_length_p50_is_lower_middle(self, registry):
        # Regression: round() (banker's rounding) used to land one rank
        # high on even-length reservoirs; nearest-rank p50 of [1..4] is 2.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([1.0, 2.0], 0.5) == 1.0
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_empty_histogram_percentile_is_zero(self, registry):
        h = registry.histogram("repro_test_latency_seconds")
        assert h.percentile(0.5) == 0.0
        assert h.quantiles((0.5,)) == {0.5: 0.0}

    def test_default_window(self, registry):
        h = registry.histogram("repro_test_latency_seconds")
        assert h.window == DEFAULT_WINDOW

    def test_window_bounds_reservoir_not_totals(self, registry):
        # Satellite: the latency deque has an explicit, documented maxlen.
        # After rollover the percentiles cover only the most recent
        # ``window`` observations while count/sum stay lifetime-exact.
        h = registry.histogram("repro_test_latency_seconds", window=8)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100
        assert h.sum == float(sum(range(100)))
        assert h.values() == [float(v) for v in range(92, 100)]
        assert h.percentile(0.0) == 92.0
        assert h.percentile(1.0) == 99.0
        assert h.percentile(0.5) == percentile(
            [float(v) for v in range(92, 100)], 0.5
        )

    def test_window_must_be_positive(self, registry):
        with pytest.raises(ValidationError, match="window"):
            registry.histogram("repro_test_latency_seconds", window=0)


class TestNamingAndKinds:
    def test_bad_metric_name_rejected(self, registry):
        for bad in ("latency", "repro", "repro_CamelCase", "repro__x",
                    "other_latency_seconds"):
            with pytest.raises(ValidationError):
                registry.gauge(bad)

    def test_bad_label_name_rejected(self, registry):
        with pytest.raises(ValidationError, match="snake_case"):
            registry.counter("repro_test_events_total", **{"Device": "x"})

    def test_kind_conflict_same_labels(self, registry):
        registry.gauge("repro_test_value_ratio")
        with pytest.raises(ValidationError, match="already registered"):
            registry.histogram("repro_test_value_ratio")

    def test_kind_conflict_across_label_sets(self, registry):
        # A family has one kind even for series that don't exist yet.
        registry.gauge("repro_test_margin_ratio", device="HD7970")
        with pytest.raises(ValidationError, match="family"):
            registry.histogram("repro_test_margin_ratio", device="K20")


class TestValidatedOnce:
    """A warm series skips validation; nothing invalid may slip through."""

    @pytest.fixture
    def warm(self, registry):
        for _ in range(2):
            registry.counter("repro_test_events_total", beam=1).inc()
            registry.gauge("repro_test_margin_ratio", beam=1).set(2.0)
        return registry

    def test_second_kind_for_a_warm_name_rejected(self, warm):
        with pytest.raises(ValidationError, match="already registered"):
            warm.histogram("repro_test_margin_ratio", beam=1)
        with pytest.raises(ValidationError, match="family"):
            warm.histogram("repro_test_margin_ratio", beam=2)

    def test_bad_label_name_on_a_warm_name_rejected(self, warm):
        with pytest.raises(ValidationError, match="snake_case"):
            warm.counter("repro_test_events_total", Beam=1)

    def test_gauge_named_like_a_warm_counter_rejected(self, warm):
        with pytest.raises(ValidationError, match="_total"):
            warm.gauge("repro_test_events_total", beam=1)

    def test_value_spellings_stay_distinct_series(self, warm):
        ints = warm.counter("repro_test_events_total", beam=1)
        floats = warm.counter("repro_test_events_total", beam=1.0)
        bools = warm.counter("repro_test_events_total", beam=True)
        assert len({id(ints), id(floats), id(bools)}) == 3
        assert ints.value == 2
        assert floats.value == bools.value == 0
        assert warm.counter("repro_test_events_total", beam=1.0) is floats
        assert warm.counter("repro_test_events_total", beam=True) is bools

    def test_label_order_does_not_split_a_series(self, registry):
        first = registry.counter("repro_test_events_total", a=1, b=2)
        assert registry.counter("repro_test_events_total", b=2, a=1) is first
        assert len(registry) == 1

    def test_reset_forgets_validated_series(self, warm):
        before = warm.counter("repro_test_events_total", beam=1)
        warm.reset()
        after = warm.counter("repro_test_events_total", beam=1)
        assert after is not before
        assert after.value == 0
        assert len(warm) == 1


class TestRegistry:
    def test_get_returns_none_for_missing(self, registry):
        assert registry.get("repro_test_events_total") is None
        registry.counter("repro_test_events_total")
        assert isinstance(
            registry.get("repro_test_events_total"), Counter
        )

    def test_series_sorted_and_len(self, registry):
        registry.counter("repro_b_total")
        registry.gauge("repro_a_ratio")
        names = [i.name for i in registry.series()]
        assert names == ["repro_a_ratio", "repro_b_total"]
        assert len(registry) == 2

    def test_families(self, registry):
        registry.counter("repro_test_events_total")
        registry.histogram("repro_test_latency_seconds")
        assert registry.families() == {
            "repro_test_events_total": "counter",
            "repro_test_latency_seconds": "histogram",
        }

    def test_reset_drops_everything(self, registry):
        registry.counter("repro_test_events_total").inc()
        registry.reset()
        assert len(registry) == 0
        # The name is reusable with a different kind after reset.
        registry.histogram("repro_test_events_seconds")

    def test_describe(self, registry):
        c = registry.counter("repro_test_events_total", tier="disk")
        assert c.describe() == 'repro_test_events_total{tier="disk"}'
        assert isinstance(
            registry.gauge("repro_test_margin_ratio"), Gauge
        )
        assert registry.gauge("repro_test_margin_ratio").describe() == (
            "repro_test_margin_ratio"
        )


class TestGlobalRegistry:
    def test_use_registry_isolates_and_restores(self):
        before = get_registry()
        with use_registry() as reg:
            assert get_registry() is reg
            assert reg is not before
        assert get_registry() is before

    def test_set_registry_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestThreadSafety:
    N_THREADS = 8
    N_OPS = 5000

    def test_concurrent_counter_increments_sum_exactly(self, registry):
        counter = registry.counter("repro_test_events_total")
        barrier = threading.Barrier(self.N_THREADS)

        def work():
            barrier.wait()
            for _ in range(self.N_OPS):
                counter.inc()

        threads = [
            threading.Thread(target=work) for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == self.N_THREADS * self.N_OPS

    def test_concurrent_histogram_observes_count_exactly(self, registry):
        hist = registry.histogram(
            "repro_test_latency_seconds", window=64
        )
        barrier = threading.Barrier(self.N_THREADS)

        def work():
            barrier.wait()
            for _ in range(self.N_OPS):
                hist.observe(1.0)

        threads = [
            threading.Thread(target=work) for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = self.N_THREADS * self.N_OPS
        assert hist.count == total
        assert hist.sum == float(total)
        assert len(hist.values()) == 64

    def test_concurrent_get_or_create_yields_one_instrument(self, registry):
        seen = []
        barrier = threading.Barrier(self.N_THREADS)

        def work():
            barrier.wait()
            seen.append(registry.counter("repro_test_races_total"))

        threads = [
            threading.Thread(target=work) for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(id, seen))) == 1
        assert len(registry) == 1

    def test_concurrent_lookups_lose_no_increments(self, registry):
        # Every increment looks its series up again, racing first
        # validation: a lookup that handed out a second instrument for
        # a series would lose that instrument's increments.
        barrier = threading.Barrier(self.N_THREADS)

        def work():
            barrier.wait(timeout=30)
            for i in range(self.N_OPS):
                registry.counter("repro_test_races_total", beam=i % 4).inc()

        threads = [
            threading.Thread(target=work) for _ in range(self.N_THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(registry) == 4
        assert sum(
            registry.counter("repro_test_races_total", beam=b).value
            for b in range(4)
        ) == self.N_THREADS * self.N_OPS
