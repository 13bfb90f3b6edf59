"""Lightweight tracing: nested wall-clock spans feeding the registry.

A span measures one named unit of work.  Spans nest per thread — a span
opened while another is active becomes its child — so a pipeline run
yields a tree: ``search.chunk`` containing ``search.rfi`` and
``search.detect``, each with its own wall time.  On exit every
span also lands in the metrics registry as one observation of
``repro_trace_span_seconds{span=<name>}`` plus an increment of
``repro_trace_spans_total{span=<name>}``, so exporters see span timing
without walking trees.

High-cardinality details (DM counts, sequence numbers) belong in span
*attributes*, which stay on the span object; only the span *name*
becomes a metric label.  See ``docs/observability.md``.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ValidationError
from repro.obs.registry import MetricsRegistry, get_registry

#: Span names: dotted snake_case, e.g. ``tuner.sweep``.
SPAN_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")


class Span:
    """One timed unit of work, possibly containing child spans."""

    __slots__ = ("name", "attributes", "children", "_start", "_end")

    def __init__(self, name: str, attributes: dict):
        if not SPAN_NAME_RE.match(name):
            raise ValidationError(
                f"span name {name!r} must be dotted snake_case"
            )
        self.name = name
        self.attributes = attributes
        self.children: list[Span] = []
        self._start = time.perf_counter()
        self._end: float | None = None

    def finish(self) -> None:
        """Stop the clock (idempotent)."""
        if self._end is None:
            self._end = time.perf_counter()

    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self._end is not None

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds from open to close (so far, if still open)."""
        end = self._end if self._end is not None else time.perf_counter()
        return end - self._start

    @property
    def child_seconds(self) -> float:
        """Aggregate wall time spent in direct children."""
        return sum(c.duration_s for c in self.children)

    @property
    def self_seconds(self) -> float:
        """Wall time spent in this span outside its direct children."""
        return max(0.0, self.duration_s - self.child_seconds)

    def iter_tree(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()


class Tracer:
    """Per-thread span stacks plus a bounded log of finished root spans.

    ``registry=None`` (the default) resolves the process-wide registry at
    span-exit time, so a tracer created at import follows later
    :func:`~repro.obs.registry.set_registry` swaps.
    """

    def __init__(self, registry: MetricsRegistry | None = None, keep: int = 256):
        self._registry = registry
        self._local = threading.local()
        self._finished_lock = threading.Lock()
        self.finished: deque[Span] = deque(maxlen=keep)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def registry(self) -> MetricsRegistry:
        """The registry span metrics are recorded into."""
        return self._registry if self._registry is not None else get_registry()

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a span; nested calls on the same thread become children."""
        node = Span(name, dict(attributes))
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(node)
        try:
            yield node
        finally:
            node.finish()
            stack.pop()
            if parent is not None:
                parent.children.append(node)
            else:
                with self._finished_lock:
                    self.finished.append(node)
            registry = self.registry
            registry.counter("repro_trace_spans_total", span=name).inc()
            registry.histogram(
                "repro_trace_span_seconds", span=name
            ).observe(node.duration_s)


#: The default tracer behind the module-level :func:`span` helper.
_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _default_tracer


def span(name: str, **attributes: object):
    """Open a span on the default tracer (the one-import entry point)::

        from repro.obs import span

        with span("pipeline.chunk", beam=3) as s:
            ...
    """
    return _default_tracer.span(name, **attributes)
