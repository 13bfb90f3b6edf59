"""Exporters for the metrics registry.

Two formats, one source of truth:

* **Prometheus text** (:func:`to_prometheus`) — counters and gauges as-is,
  histograms in summary form (``quantile`` labels plus ``_count`` and
  ``_sum``).  :func:`parse_prometheus` round-trips the output back into
  ``{(name, labels): value}`` so tests can assert export fidelity.
* **In-memory snapshot** (:func:`registry_to_dict` /
  :func:`registry_from_dict`) — a plain dict for tests and for the
  cross-process snapshot file behind ``repro obs`` (counters merge by
  sum, gauges by last-write, histograms by reservoir union); lossless,
  since histograms keep their reservoir.

The snapshot file location is ``$REPRO_OBS_PATH`` or ``.repro-obs.json``
in the working directory (:func:`default_snapshot_path`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ValidationError
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: Quantiles emitted for every histogram in every export format.
EXPORT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

#: Environment variable overriding the snapshot file location.
SNAPSHOT_ENV = "REPRO_OBS_PATH"

#: Default snapshot file name (in the current working directory).
SNAPSHOT_DEFAULT = ".repro-obs.json"


def default_snapshot_path() -> Path:
    """Where ``repro`` CLI commands persist/read the registry snapshot."""
    return Path(os.environ.get(SNAPSHOT_ENV, SNAPSHOT_DEFAULT))


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _labels_text(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape(v)}"' for k, v in sorted(merged.items())
    )
    return f"{{{inner}}}"


def _num(value: float) -> str:
    # Integers render without exponent/decimal so counters stay exact.
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in the Prometheus exposition text format."""
    lines: list[str] = []
    typed: set[str] = set()
    for instrument in registry.series():
        name, labels = instrument.name, instrument.labels
        if isinstance(instrument, Counter):
            if name not in typed:
                lines.append(f"# TYPE {name} counter")
                typed.add(name)
            lines.append(f"{name}{_labels_text(labels)} {_num(instrument.value)}")
        elif isinstance(instrument, Gauge):
            if name not in typed:
                lines.append(f"# TYPE {name} gauge")
                typed.add(name)
            lines.append(f"{name}{_labels_text(labels)} {_num(instrument.value)}")
        elif isinstance(instrument, Histogram):
            if name not in typed:
                lines.append(f"# TYPE {name} summary")
                typed.add(name)
            for q, value in instrument.quantiles(EXPORT_QUANTILES).items():
                extra = {"quantile": _num(q)}
                lines.append(
                    f"{name}{_labels_text(labels, extra)} {_num(value)}"
                )
            lines.append(
                f"{name}_count{_labels_text(labels)} {_num(instrument.count)}"
            )
            lines.append(
                f"{name}_sum{_labels_text(labels)} {_num(instrument.sum)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text back into ``{(name, labels): value}``.

    Supports exactly the subset :func:`to_prometheus` emits — enough for
    an export → parse → compare round-trip in tests.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("} ", 1)
            labels = []
            for part in _split_labels(label_text):
                key, quoted = part.split("=", 1)
                value = (
                    quoted[1:-1]
                    .replace(r"\n", "\n")
                    .replace(r"\"", '"')
                    .replace(r"\\", "\\")
                )
                labels.append((key, value))
            out[(name, tuple(sorted(labels)))] = float(value_text)
        else:
            name, value_text = line.rsplit(" ", 1)
            out[(name, ())] = float(value_text)
    return out


def _split_labels(label_text: str) -> list[str]:
    """Split ``k1="v1",k2="v2"`` respecting escaped quotes."""
    parts: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in label_text:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        parts.append("".join(current))
    return parts


# ----------------------------------------------------------------------
# In-memory snapshot (dict) + merge
# ----------------------------------------------------------------------
def _series_doc(instrument) -> dict:
    doc = {
        "name": instrument.name,
        "kind": instrument.kind,
        "labels": instrument.labels,
    }
    if isinstance(instrument, Histogram):
        doc.update(
            count=instrument.count,
            sum=instrument.sum,
            window=instrument.window,
            reservoir=list(instrument.values()),
        )
    else:
        doc["value"] = instrument.value
    return doc


def registry_to_dict(registry: MetricsRegistry) -> dict:
    """A JSON-friendly snapshot of every series."""
    return {
        "version": 1,
        "series": [_series_doc(i) for i in registry.series()],
    }


def registry_from_dict(
    doc: dict, into: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Rebuild (or merge into) a registry from a snapshot document.

    Merging an existing registry: counters add, gauges keep the incoming
    value, histograms union reservoirs and sum their exact totals.
    """
    if doc.get("version") != 1:
        raise ValidationError(
            f"unsupported obs snapshot version {doc.get('version')!r}"
        )
    registry = into if into is not None else MetricsRegistry()
    for series in doc.get("series", ()):
        name = series["name"]
        kind = series["kind"]
        labels = dict(series.get("labels", {}))
        if kind == "counter":
            registry.counter(name, **labels).inc(series["value"])
        elif kind == "gauge":
            registry.gauge(name, **labels).set(series["value"])
        elif kind == "histogram":
            hist = registry.histogram(
                name, window=series.get("window"), **labels
            )
            hist._absorb(
                int(series.get("count", 0)),
                float(series.get("sum", 0.0)),
                series.get("reservoir", []),
            )
        else:
            raise ValidationError(f"unknown series kind {kind!r}")
    return registry


def save_snapshot(
    registry: MetricsRegistry,
    path: str | Path | None = None,
) -> Path:
    """Persist the registry as JSON, merging into any existing snapshot.

    The merge makes the snapshot file cumulative across CLI runs: a
    ``repro service`` run and a ``repro survey`` run land in the same
    file, and ``repro obs export`` sees both.
    """
    target = Path(path) if path is not None else default_snapshot_path()
    if target.exists():
        base = load_snapshot(target)
        merged = registry_from_dict(registry_to_dict(registry), into=base)
    else:
        merged = registry
    target.write_text(json.dumps(registry_to_dict(merged), indent=1))
    return target


def load_snapshot(
    path: str | Path | None = None, into: MetricsRegistry | None = None
) -> MetricsRegistry:
    """Rebuild a registry from a snapshot file written by :func:`save_snapshot`."""
    source = Path(path) if path is not None else default_snapshot_path()
    try:
        doc = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(
            f"cannot read obs snapshot {source}: {exc}"
        ) from exc
    return registry_from_dict(doc, into=into)


# ----------------------------------------------------------------------
# Human-readable dump (CLI)
# ----------------------------------------------------------------------
def render_table(registry: MetricsRegistry) -> str:
    """Aligned text table of every series (the ``repro obs dump`` view)."""
    rows: list[tuple[str, str, str]] = []
    for instrument in registry.series():
        if isinstance(instrument, Histogram):
            q = instrument.quantiles((0.5, 0.95))
            value = (
                f"count={instrument.count} sum={instrument.sum:.6g} "
                f"p50={q[0.5]:.6g} p95={q[0.95]:.6g}"
            )
        else:
            value = _num(instrument.value)
        rows.append((instrument.kind, instrument.describe(), value))
    if not rows:
        return "(no metrics recorded)"
    width = max(len(identity) for _, identity, _ in rows)
    return "\n".join(
        f"{kind:<9} {identity:<{width}} {value}"
        for kind, identity, value in rows
    )
