"""Unit tests for repro.service.cache and repro.service.keys."""

import dataclasses
import json

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.core.tuner import AutoTuner
from repro.hardware.catalog import hd7970
from repro.service.cache import DiskSweepStore, SweepLRUCache
from repro.service.keys import InstanceKey


def key_for(n_dms: int, **overrides) -> InstanceKey:
    base = InstanceKey.for_instance(
        hd7970(), apertif(), DMTrialGrid(n_dms)
    )
    return dataclasses.replace(base, **overrides) if overrides else base


class TestInstanceKey:
    def test_same_instance_same_key(self):
        assert key_for(64) == key_for(64)

    def test_grid_roundtrip(self):
        grid = DMTrialGrid(48, first=1.0, step=0.5)
        key = InstanceKey.for_instance(hd7970(), apertif(), grid)
        assert key.grid() == grid

    def test_fingerprint_tracks_catalogue_edits(self):
        edited = dataclasses.replace(hd7970(), issue_efficiency=0.5)
        original = InstanceKey.for_instance(
            hd7970(), apertif(), DMTrialGrid(64)
        )
        recalibrated = InstanceKey.for_instance(
            edited, apertif(), DMTrialGrid(64)
        )
        assert original.fingerprint != recalibrated.fingerprint
        assert original != recalibrated

    def test_filename_is_safe_and_distinct(self):
        a, b = key_for(32).filename(), key_for(64).filename()
        assert a != b
        assert "/" not in a and " " not in a
        assert a.endswith(".json")


class TestSweepLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = SweepLRUCache(capacity=2)
        k1, k2, k3 = key_for(16), key_for(32), key_for(64)
        cache.put(k1, "one")
        cache.put(k2, "two")
        cache.put(k3, "three")  # evicts k1
        assert cache.get(k1) is None
        assert cache.get(k2) == "two"
        assert cache.get(k3) == "three"

    def test_get_refreshes_recency(self):
        cache = SweepLRUCache(capacity=2)
        k1, k2, k3 = key_for(16), key_for(32), key_for(64)
        cache.put(k1, "one")
        cache.put(k2, "two")
        cache.get(k1)  # k2 is now the LRU entry
        cache.put(k3, "three")
        assert cache.get(k2) is None
        assert cache.get(k1) == "one"

    def test_put_refreshes_recency(self):
        cache = SweepLRUCache(capacity=2)
        k1, k2, k3 = key_for(16), key_for(32), key_for(64)
        cache.put(k1, "one")
        cache.put(k2, "two")
        cache.put(k1, "one again")
        cache.put(k3, "three")
        assert cache.get(k2) is None
        assert cache.get(k1) == "one again"

    def test_invalidate(self):
        cache = SweepLRUCache(capacity=4)
        cache.put(key_for(16), "x")
        assert cache.invalidate(key_for(16)) is True
        assert cache.invalidate(key_for(16)) is False
        assert len(cache) == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SweepLRUCache(capacity=0)


class TestDiskSweepStore:
    @pytest.fixture(scope="class")
    def sweep(self):
        return AutoTuner(hd7970(), apertif()).tune(DMTrialGrid(16))

    def test_roundtrip(self, sweep, tmp_path):
        store = DiskSweepStore(tmp_path)
        key = key_for(16)
        store.save(key, sweep)
        assert key in store
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.best.config == sweep.best.config

    def test_absent_key_returns_none(self, tmp_path):
        store = DiskSweepStore(tmp_path)
        assert store.load(key_for(16)) is None
        assert key_for(16) not in store

    def test_stale_document_is_deleted(self, sweep, tmp_path):
        store = DiskSweepStore(tmp_path)
        key = key_for(16)
        path = store.save(key, sweep)
        document = json.loads(path.read_text())
        document["samples"][0]["gflops"] *= 3.0  # model drift
        path.write_text(json.dumps(document))
        assert store.load(key) is None
        assert not path.exists()

    def test_corrupt_document_is_deleted(self, sweep, tmp_path):
        store = DiskSweepStore(tmp_path)
        key = key_for(16)
        path = store.save(key, sweep)
        path.write_text("{not json")
        assert store.load(key) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("device"),
            lambda d: d.update(samples=5),
            lambda d: d.update(fingerprint="0" * 16),
        ],
        ids=["missing-field", "malformed-samples", "foreign-fingerprint"],
    )
    def test_unloadable_document_is_deleted(self, sweep, tmp_path, edit):
        store = DiskSweepStore(tmp_path)
        key = key_for(16)
        path = store.save(key, sweep)
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document))
        assert store.load(key) is None
        assert not path.exists()

    def test_len_counts_documents(self, sweep, tmp_path):
        store = DiskSweepStore(tmp_path)
        assert len(store) == 0
        store.save(key_for(16), sweep)
        assert len(store) == 1
