"""Unit tests for repro.obs.tracing: span nesting and registry feed."""

import threading

import pytest

from repro.errors import ValidationError
from repro.obs.registry import use_registry
from repro.obs.tracing import Span, Tracer, get_tracer, span


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with use_registry():
            with tracer.span("pipeline.chunk") as root:
                with tracer.span("pipeline.dedisperse") as inner:
                    assert tracer.current() is inner
                with tracer.span("pipeline.single_pulse"):
                    pass
        assert [c.name for c in root.children] == [
            "pipeline.dedisperse", "pipeline.single_pulse"
        ]
        assert root.children[0].children == []
        assert tracer.finished[-1] is root

    def test_only_roots_land_in_finished(self):
        tracer = Tracer()
        with use_registry():
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        assert [s.name for s in tracer.finished] == ["outer"]

    def test_iter_tree_depth_first(self):
        tracer = Tracer()
        with use_registry():
            with tracer.span("a") as a:
                with tracer.span("b"):
                    with tracer.span("c"):
                        pass
                with tracer.span("d"):
                    pass
        assert [s.name for s in a.iter_tree()] == ["a", "b", "c", "d"]

    def test_durations_nest_consistently(self):
        tracer = Tracer()
        with use_registry():
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    pass
        assert outer.finished and inner.finished
        assert inner.duration_s <= outer.duration_s
        assert outer.child_seconds == pytest.approx(inner.duration_s)
        assert outer.self_seconds == pytest.approx(
            outer.duration_s - inner.duration_s
        )

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with use_registry() as reg:
            with pytest.raises(RuntimeError):
                with tracer.span("doomed"):
                    raise RuntimeError("boom")
        assert tracer.finished[-1].name == "doomed"
        assert tracer.finished[-1].finished
        assert reg.counter(
            "repro_trace_spans_total", span="doomed"
        ).value == 1

    def test_finish_is_idempotent(self):
        s = Span("solo", {})
        s.finish()
        first = s.duration_s
        s.finish()
        assert s.duration_s == first

    def test_invalid_span_name_rejected(self):
        for bad in ("", "Pipeline.Chunk", "a..b", ".a", "a b"):
            with pytest.raises(ValidationError):
                Span(bad, {})


class TestRegistryFeed:
    def test_spans_record_counter_and_histogram(self):
        tracer = Tracer()
        with use_registry() as reg:
            with tracer.span("tuner.sweep"):
                pass
            with tracer.span("tuner.sweep"):
                pass
        assert reg.counter(
            "repro_trace_spans_total", span="tuner.sweep"
        ).value == 2
        hist = reg.get("repro_trace_span_seconds", span="tuner.sweep")
        assert hist.count == 2
        assert hist.sum >= 0.0

    def test_default_tracer_follows_registry_swap(self):
        # The module-level tracer is created at import with registry=None,
        # so it must resolve the *current* process registry at span exit.
        with use_registry() as reg:
            with span("swap.check"):
                pass
        assert reg.counter(
            "repro_trace_spans_total", span="swap.check"
        ).value == 1

    def test_explicit_registry_pins_destination(self):
        from repro.obs.registry import MetricsRegistry

        pinned = MetricsRegistry()
        tracer = Tracer(registry=pinned)
        with use_registry() as ambient:
            with tracer.span("pinned.span"):
                pass
        assert pinned.counter(
            "repro_trace_spans_total", span="pinned.span"
        ).value == 1
        assert ambient.get("repro_trace_spans_total", span="pinned.span") is None


class TestThreadLocalStacks:
    def test_spans_on_other_threads_do_not_nest(self):
        tracer = Tracer()
        opened = threading.Event()
        release = threading.Event()
        with use_registry():
            def other():
                with tracer.span("worker"):
                    opened.set()
                    release.wait(timeout=5.0)

            t = threading.Thread(target=other)
            with tracer.span("main_root") as root:
                t.start()
                assert opened.wait(timeout=5.0)
                # The worker's open span is invisible to this thread.
                assert tracer.current() is root
                release.set()
                t.join()
        assert root.children == []
        names = sorted(s.name for s in tracer.finished)
        assert names == ["main_root", "worker"]


class TestRendering:
    def test_get_tracer_is_singleton(self):
        assert get_tracer() is get_tracer()
