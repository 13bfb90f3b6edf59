"""Unit tests for repro.obs.export: formats, round-trips, snapshots."""

import pytest

from repro.errors import ValidationError
from repro.obs.export import (
    EXPORT_QUANTILES,
    default_snapshot_path,
    load_snapshot,
    parse_prometheus,
    registry_from_dict,
    registry_to_dict,
    render_table,
    save_snapshot,
    to_prometheus,
)
from repro.obs.registry import MetricsRegistry, use_registry


@pytest.fixture
def populated():
    reg = MetricsRegistry()
    reg.counter("repro_test_events_total", tier="memory").inc(3)
    reg.counter("repro_test_events_total", tier="disk").inc(1)
    reg.gauge("repro_test_margin_ratio", device="HD7970").set(2.75)
    hist = reg.histogram("repro_test_latency_seconds", window=16)
    for v in range(1, 11):
        hist.observe(v / 10.0)
    return reg


class TestPrometheus:
    def test_type_lines_once_per_family(self, populated):
        text = to_prometheus(populated)
        assert text.count("# TYPE repro_test_events_total counter") == 1
        assert text.count("# TYPE repro_test_margin_ratio gauge") == 1
        assert text.count("# TYPE repro_test_latency_seconds summary") == 1

    def test_round_trip_values(self, populated):
        parsed = parse_prometheus(to_prometheus(populated))
        assert parsed[
            ("repro_test_events_total", (("tier", "memory"),))
        ] == 3
        assert parsed[
            ("repro_test_events_total", (("tier", "disk"),))
        ] == 1
        assert parsed[
            ("repro_test_margin_ratio", (("device", "HD7970"),))
        ] == 2.75
        assert parsed[("repro_test_latency_seconds_count", ())] == 10
        assert parsed[("repro_test_latency_seconds_sum", ())] == (
            pytest.approx(5.5)
        )

    def test_histogram_quantile_labels(self, populated):
        parsed = parse_prometheus(to_prometheus(populated))
        hist = populated.get("repro_test_latency_seconds")
        for q in EXPORT_QUANTILES:
            matches = [
                v for (name, labels), v in parsed.items()
                if name == "repro_test_latency_seconds"
                and labels and labels[0][0] == "quantile"
                and float(labels[0][1]) == q
            ]
            assert matches == [hist.percentile(q)]

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        tricky = 'quote " back \\ newline \n end'
        reg.counter("repro_test_events_total", note=tricky).inc(2)
        parsed = parse_prometheus(to_prometheus(reg))
        assert parsed[
            ("repro_test_events_total", (("note", tricky),))
        ] == 2

    def test_counters_render_as_exact_integers(self, populated):
        text = to_prometheus(populated)
        assert 'repro_test_events_total{tier="memory"} 3\n' in text
        assert 'repro_test_margin_ratio{device="HD7970"} 2.75\n' in text

    def test_empty_registry_exports_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""


class TestDictSnapshot:
    def test_round_trip_identical(self, populated):
        rebuilt = registry_from_dict(registry_to_dict(populated))
        assert registry_to_dict(rebuilt) == registry_to_dict(populated)

    def test_merge_semantics(self, populated):
        # counters add, gauges last-write, histograms union + exact sums
        other = MetricsRegistry()
        other.counter("repro_test_events_total", tier="memory").inc(7)
        other.gauge("repro_test_margin_ratio", device="HD7970").set(9.0)
        other.histogram(
            "repro_test_latency_seconds", window=16
        ).observe(2.0)
        merged = registry_from_dict(
            registry_to_dict(populated), into=other
        )
        assert merged is other
        assert merged.counter(
            "repro_test_events_total", tier="memory"
        ).value == 10
        assert merged.gauge(
            "repro_test_margin_ratio", device="HD7970"
        ).value == 2.75
        hist = merged.get("repro_test_latency_seconds")
        assert hist.count == 11
        assert hist.sum == pytest.approx(7.5)
        assert 2.0 in hist.values()

    def test_unknown_version_rejected(self):
        with pytest.raises(ValidationError, match="version"):
            registry_from_dict({"version": 99, "series": []})

    def test_unknown_kind_rejected(self):
        doc = {
            "version": 1,
            "series": [
                {"name": "repro_x_total", "kind": "meter",
                 "labels": {}, "value": 1},
            ],
        }
        with pytest.raises(ValidationError, match="kind"):
            registry_from_dict(doc)


class TestSnapshotFile:
    def test_env_var_controls_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_PATH", str(tmp_path / "obs.json"))
        assert default_snapshot_path() == tmp_path / "obs.json"

    def test_save_load_round_trip(self, populated, tmp_path):
        target = tmp_path / "snap.json"
        save_snapshot(populated, target)
        loaded = load_snapshot(target)
        assert registry_to_dict(loaded) == registry_to_dict(populated)

    def test_saves_accumulate_across_runs(self, tmp_path):
        # Two CLI runs (two registries) land in one cumulative file.
        target = tmp_path / "snap.json"
        first = MetricsRegistry()
        first.counter("repro_test_events_total").inc(2)
        save_snapshot(first, target)
        second = MetricsRegistry()
        second.counter("repro_test_events_total").inc(5)
        save_snapshot(second, target)
        merged = load_snapshot(target)
        assert merged.counter("repro_test_events_total").value == 7

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_snapshot(tmp_path / "absent.json")


class TestRenderTable:
    def test_empty_placeholder(self):
        assert render_table(MetricsRegistry()) == "(no metrics recorded)"

    def test_rows_cover_every_series(self, populated):
        text = render_table(populated)
        assert len(text.splitlines()) == len(populated)
        assert 'repro_test_events_total{tier="memory"}' in text
        assert "count=10" in text


class TestUseRegistryIntegration:
    def test_exports_see_only_isolated_registry(self):
        with use_registry() as reg:
            reg.counter("repro_test_events_total").inc()
            text = to_prometheus(reg)
        assert "repro_test_events_total 1" in text
