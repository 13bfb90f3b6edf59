"""Unified observability: one metrics/tracing API for the whole system.

The paper's argument is measurement — per-configuration GFLOP/s,
statistics of the optimum, real-time margins — and a served deployment
needs the same rigour at run time.  This package is the single surface
every subsystem reports through:

* :class:`MetricsRegistry` — process-wide counters, gauges and
  histograms with labelled series and nearest-rank percentiles
  (:func:`get_registry` returns the default one every instrumented hot
  path records into).
* :class:`Tracer` / :func:`span` — nested wall-clock spans with child
  aggregation; every span also lands in the registry.
* Exporters — Prometheus text (:func:`to_prometheus`) and
  in-memory/file snapshots (:func:`registry_to_dict`,
  :func:`save_snapshot`) behind the ``repro obs`` CLI.

Instrumented out of the box: ``AutoTuner.tune`` (sweep spans, configs
evaluated, best GFLOP/s), ``TuningService`` (cache tiers, dedups,
degradations, request latency), every kernel launch (per-backend
counts and wall time), and every pipeline stage (spans plus real-time
margin gauges).  Conventions live in ``docs/observability.md``.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    MetricsRegistry,
    METRIC_NAME_RE,
    DEFAULT_WINDOW,
    get_registry,
    percentile,
    set_registry,
    use_registry,
)
from repro.obs.tracing import Span, Tracer, get_tracer, span
from repro.obs.export import (
    default_snapshot_path,
    load_snapshot,
    parse_prometheus,
    registry_from_dict,
    registry_to_dict,
    render_table,
    save_snapshot,
    to_prometheus,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "METRIC_NAME_RE",
    "DEFAULT_WINDOW",
    "get_registry",
    "set_registry",
    "use_registry",
    "percentile",
    "Span",
    "Tracer",
    "get_tracer",
    "span",
    "default_snapshot_path",
    "load_snapshot",
    "parse_prometheus",
    "registry_from_dict",
    "registry_to_dict",
    "render_table",
    "save_snapshot",
    "to_prometheus",
]
