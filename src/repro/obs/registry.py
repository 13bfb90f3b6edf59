"""The process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every metric series of the process.
A *series* is one (metric name, label set) pair; series sharing a name
form a *family* and must share a kind (counter / gauge / histogram).
Instruments are created on first use and are safe to touch from any
thread::

    reg = get_registry()
    reg.counter("repro_tuner_sweeps_total", device="HD7970").inc()
    reg.histogram("repro_service_request_latency_seconds").observe(0.012)

Naming conventions (enforced here and linted by
``tools/check_metric_names.py``): names match ``repro_<words>`` in
``snake_case``, counters end in ``_total``, and gauges/histograms carry
their unit as the last word (``_seconds``, ``_gflops``, ``_margin``,
...).  See ``docs/observability.md``.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from typing import Iterator

from repro.errors import ValidationError

#: Metric names: ``repro_`` followed by snake_case words.
METRIC_NAME_RE = re.compile(r"^repro(_[a-z0-9]+)+$")
#: Label names: bare snake_case identifiers.
LABEL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Default bounded-reservoir size for histograms (see Histogram.window).
DEFAULT_WINDOW = 2048


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list.

    The single shared implementation behind every percentile in the
    repository (service latency p50/p95, histogram quantile export,
    multi-beam aggregation).  Uses the standard nearest-rank formula
    ``rank = ceil(fraction * n)`` (1-based) — p50 of an even-length
    population is the lower of the two middle values, not the upper one
    Python's banker's-rounding ``round`` used to pick.
    """
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(0, min(len(ordered) - 1, rank - 1))]


def _check_name(name: str) -> str:
    if not METRIC_NAME_RE.match(name):
        raise ValidationError(
            f"metric name {name!r} violates the naming convention "
            f"(expected snake_case starting with 'repro_')"
        )
    return name


def _check_labels(labels: dict) -> tuple[tuple[str, str], ...]:
    """Validate label names and freeze values into a hashable key."""
    frozen = []
    for key in sorted(labels):
        if not LABEL_NAME_RE.match(key):
            raise ValidationError(f"label name {key!r} is not snake_case")
        frozen.append((key, str(labels[key])))
    return tuple(frozen)


class Instrument:
    """Base of all metric series: a name plus a frozen label set."""

    kind = "instrument"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self._labels = labels
        self._lock = threading.Lock()

    @property
    def labels(self) -> dict[str, str]:
        """The series labels as a plain dict (copy)."""
        return dict(self._labels)

    @property
    def key(self) -> tuple[str, tuple[tuple[str, str], ...]]:
        """The registry key identifying this series."""
        return (self.name, self._labels)

    def describe(self) -> str:
        """``name{label="value",...}`` identity string."""
        if not self._labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in self._labels)
        return f"{self.name}{{{inner}}}"


class Counter(Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        super().__init__(name, labels)
        self._value = 0

    def inc(self, by: int | float = 1) -> None:
        """Add ``by`` (must be >= 0) to the counter."""
        if by < 0:
            raise ValidationError(
                f"counter {self.name} cannot decrease (by={by})"
            )
        with self._lock:
            self._value += by

    @property
    def value(self) -> int | float:
        """Current count."""
        with self._lock:
            return self._value


class Gauge(Instrument):
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, by: float = 1.0) -> None:
        """Add ``by`` (may be negative) to the gauge."""
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        """Current gauge value."""
        with self._lock:
            return self._value


class Histogram(Instrument):
    """A distribution: exact totals plus a bounded sliding reservoir.

    ``count`` and ``sum`` are exact over the series lifetime; the
    percentiles are computed over the last :attr:`window` observations
    (an explicit, documented bound — the reservoir never grows past it,
    so long-running processes pay O(window) memory per series and the
    quantiles track recent behaviour rather than the full history).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        window: int = DEFAULT_WINDOW,
    ):
        super().__init__(name, labels)
        if window < 1:
            raise ValidationError(f"histogram window must be >= 1 ({window})")
        self.window = window
        self._reservoir: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        with self._lock:
            self._reservoir.append(v)
            self._count += 1
            self._sum += v

    @property
    def count(self) -> int:
        """Total observations ever recorded (not bounded by the window)."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Total of all observations ever recorded."""
        with self._lock:
            return self._sum

    def values(self) -> list[float]:
        """Sorted copy of the current reservoir."""
        with self._lock:
            return sorted(self._reservoir)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the reservoir (0.0 when empty)."""
        ordered = self.values()
        return percentile(ordered, fraction) if ordered else 0.0

    def quantiles(
        self, fractions: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[float, float]:
        """Several percentiles computed over one consistent snapshot."""
        ordered = self.values()
        if not ordered:
            return {q: 0.0 for q in fractions}
        return {q: percentile(ordered, q) for q in fractions}

    def _absorb(self, count: int, total: float, reservoir: list[float]) -> None:
        """Merge persisted state in (used by snapshot loading)."""
        with self._lock:
            self._count += count
            self._sum += total
            self._reservoir.extend(float(v) for v in reservoir)


class MetricsRegistry:
    """Thread-safe home of every metric series in one process.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call for a (name, labels) pair builds the instrument, later calls
    return the same object.  Registering one name with two different
    kinds is an error — a family has exactly one kind.  A series is
    validated once: later calls with the same kind, name and label
    values skip the checks and return the instrument directly.
    """

    def __init__(self, default_window: int = DEFAULT_WINDOW):
        self._lock = threading.Lock()
        self._series: dict[tuple, Instrument] = {}
        self._kinds: dict[str, str] = {}
        # Series that already passed validation, keyed by the call's
        # kind, name and (label, str(value)) pairs in call order.
        self._validated: dict[tuple, Instrument] = {}
        self.default_window = default_window

    # -- instrument access ---------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        """The counter series for (name, labels), created on first use."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge series for (name, labels), created on first use."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, window: int | None = None, **labels: object
    ) -> Histogram:
        """The histogram series for (name, labels), created on first use.

        ``window`` bounds the percentile reservoir; it applies only at
        creation (the first caller fixes the bound for the series).
        """
        return self._get_or_create(
            Histogram, name, labels,
            window=self.default_window if window is None else window,
        )

    def _get_or_create(self, cls, name: str, labels: dict, **kwargs):
        memo_key = (cls, name, *((k, str(v)) for k, v in labels.items()))
        validated = self._validated.get(memo_key)
        if validated is not None:
            return validated
        _check_name(name)
        if cls is Counter and not name.endswith("_total"):
            raise ValidationError(
                f"counter {name!r} must end in '_total' (convention)"
            )
        if cls is not Counter and name.endswith("_total"):
            raise ValidationError(
                f"{cls.kind} {name!r} must not end in '_total' "
                f"(reserved for counters)"
            )
        key = (name, _check_labels(labels))
        with self._lock:
            existing = self._series.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValidationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                self._validated[memo_key] = existing
                return existing
            registered_kind = self._kinds.get(name)
            if registered_kind is not None and registered_kind != cls.kind:
                raise ValidationError(
                    f"metric family {name!r} is a {registered_kind}; "
                    f"cannot add a {cls.kind} series"
                )
            instrument = cls(name, key[1], **kwargs)
            self._series[key] = instrument
            self._kinds[name] = cls.kind
            self._validated[memo_key] = instrument
            return instrument

    # -- inspection ----------------------------------------------------
    def get(self, name: str, **labels: object) -> Instrument | None:
        """The existing series for (name, labels), or None."""
        key = (name, _check_labels(labels))
        with self._lock:
            return self._series.get(key)

    def series(self) -> Iterator[Instrument]:
        """Every registered series, ordered by (name, labels)."""
        with self._lock:
            items = sorted(self._series)
            return iter([self._series[k] for k in items])

    def families(self) -> dict[str, str]:
        """Mapping of metric name -> kind for every family."""
        with self._lock:
            return dict(self._kinds)

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def reset(self) -> None:
        """Drop every series (testing / ``repro obs reset``)."""
        with self._lock:
            self._series.clear()
            self._kinds.clear()
            self._validated.clear()


# ----------------------------------------------------------------------
# The process-wide default registry.
# ----------------------------------------------------------------------
_default_lock = threading.Lock()
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every instrumented path uses."""
    with _default_lock:
        return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


class use_registry:
    """Context manager installing ``registry`` as the process default.

    The isolation hook for tests::

        with use_registry(MetricsRegistry()) as reg:
            ...  # instrumented code records into `reg` only
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry or MetricsRegistry()
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info) -> None:
        assert self._previous is not None
        set_registry(self._previous)
