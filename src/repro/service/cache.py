"""The two cache tiers of the tuning service.

* :class:`SweepLRUCache` — a thread-safe in-memory LRU over complete
  :class:`~repro.core.tuner.TuningResult` objects.  Hot instances are
  answered in microseconds; the capacity bound keeps a long-lived service
  from accumulating every instance it has ever seen.
* :class:`DiskSweepStore` — the persistent tier, one JSON document per
  instance via :mod:`repro.core.persistence`.  Survives restarts and can
  be shared between hosts; loading re-simulates and verifies, so a drifted
  model turns stale documents into misses, not wrong answers.

Both tiers are keyed by :class:`~repro.service.keys.InstanceKey`, whose
fingerprint component ties every entry to the exact device catalogue and
model revision that produced it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

from repro.core.persistence import load_sweep, save_sweep
from repro.core.tuner import TuningResult
from repro.errors import ReproError, SchemaVersionError
from repro.service.keys import InstanceKey


class SweepLRUCache:
    """Thread-safe least-recently-used map of InstanceKey -> TuningResult."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[InstanceKey, TuningResult] = OrderedDict()

    def get(self, key: InstanceKey) -> TuningResult | None:
        """The cached sweep for ``key`` (refreshes its recency), or None."""
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def put(self, key: InstanceKey, result: TuningResult) -> None:
        """Insert/refresh ``key``, evicting the least recently used."""
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self, key: InstanceKey) -> bool:
        """Drop ``key``; True if it was present."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def keys(self) -> list[InstanceKey]:
        """Current keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: InstanceKey) -> bool:
        with self._lock:
            return key in self._entries


class DiskSweepStore:
    """Persistent sweep documents under one directory, one file per key."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: InstanceKey) -> Path:
        """Where ``key``'s document lives (whether or not it exists)."""
        return self.directory / key.filename()

    def __contains__(self, key: InstanceKey) -> bool:
        return self.path_for(key).exists()

    def save(self, key: InstanceKey, result: TuningResult) -> Path:
        """Persist ``result`` under ``key``; returns the file path."""
        return save_sweep(result, self.path_for(key))

    def load(self, key: InstanceKey) -> TuningResult | None:
        """Load ``key``'s sweep, or None when absent or stale.

        A document that fails verification (model drift, old schema,
        corruption) is deleted so subsequent requests go straight to a
        fresh sweep instead of re-failing the load.  A *newer*-schema
        document is the one exception: the file is valid, this build is
        just too old to read it, so it is preserved and the error
        propagates for the caller (ultimately the CLI) to surface.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            return load_sweep(path)
        except SchemaVersionError:
            raise
        except ReproError:
            path.unlink(missing_ok=True)
            return None

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
