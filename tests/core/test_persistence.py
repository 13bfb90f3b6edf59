"""Unit tests for repro.core.persistence — sweep save/load."""

import json

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.core.persistence import (
    SCHEMA_VERSION,
    load_sweep,
    model_fingerprint,
    save_sweep,
    sweep_to_document,
)
from repro.core.tuner import AutoTuner
from repro.errors import TuningError, ValidationError
from repro.hardware.catalog import gtx680, hd7970


@pytest.fixture(scope="module")
def sweep():
    return AutoTuner(hd7970(), apertif()).tune(DMTrialGrid(32))


class TestRoundtrip:
    def test_save_load_identical_optimum(self, sweep, tmp_path):
        path = save_sweep(sweep, tmp_path / "sweep.json")
        loaded = load_sweep(path)
        assert loaded.n_configurations == sweep.n_configurations
        assert loaded.best.config == sweep.best.config
        assert loaded.best.gflops == pytest.approx(sweep.best.gflops)

    def test_document_fields(self, sweep):
        document = sweep_to_document(sweep)
        assert document["schema"] == SCHEMA_VERSION
        assert document["device"] == "HD7970"
        assert document["setup"] == "Apertif"
        assert document["grid"]["n_dms"] == 32
        assert len(document["samples"]) == sweep.n_configurations

    def test_creates_directories(self, sweep, tmp_path):
        path = save_sweep(sweep, tmp_path / "nested" / "dir" / "s.json")
        assert path.exists()

    def test_loaded_metrics_are_fresh(self, sweep, tmp_path):
        path = save_sweep(sweep, tmp_path / "sweep.json")
        loaded = load_sweep(path)
        # Metrics were re-simulated, not deserialised: full objects exist.
        assert loaded.best.metrics.bound is sweep.best.metrics.bound


class TestVerification:
    def test_detects_model_drift(self, sweep, tmp_path):
        path = save_sweep(sweep, tmp_path / "sweep.json")
        document = json.loads(path.read_text())
        document["samples"][0]["gflops"] *= 2.0  # simulate drift
        path.write_text(json.dumps(document))
        with pytest.raises(TuningError, match="no longer matches"):
            load_sweep(path)

    def test_rejects_unknown_schema(self, sweep, tmp_path):
        path = save_sweep(sweep, tmp_path / "sweep.json")
        document = json.loads(path.read_text())
        document["schema"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError, match="schema"):
            load_sweep(path)

    def test_rejects_unknown_setup(self, sweep, tmp_path):
        path = save_sweep(sweep, tmp_path / "sweep.json")
        document = json.loads(path.read_text())
        document["setup"] = "SKA"
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError, match="unknown setup"):
            load_sweep(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["grid"].pop("step"), "has no 'step' field"),
            (lambda d: d.update(device="Z80"), "unknown device"),
            (lambda d: d.update(grid=[32]), "is malformed"),
            (lambda d: d.update(samples=5), "is malformed"),
            (lambda d: d["samples"][0].update(config=[1, 2, 3]),
             "is malformed"),
            (lambda d: d["samples"][0].update(gflops="fast"),
             "is malformed"),
        ],
        ids=["missing-key", "unknown-device", "grid-list", "samples-int",
             "short-config", "text-gflops"],
    )
    def test_malformed_document_names_the_path(
        self, sweep, tmp_path, edit, message
    ):
        path = save_sweep(sweep, tmp_path / "sweep.json")
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document))
        with pytest.raises(ValidationError, match=message) as info:
            load_sweep(path)
        assert str(path) in str(info.value)


class TestFingerprint:
    def test_document_carries_fingerprint(self, sweep):
        document = sweep_to_document(sweep)
        assert document["fingerprint"] == model_fingerprint(
            sweep.device, sweep.setup
        )

    def test_fingerprint_is_deterministic(self, sweep):
        assert model_fingerprint(
            sweep.device, sweep.setup
        ) == model_fingerprint(sweep.device, sweep.setup)

    def test_fingerprint_tracks_catalogue_edits(self, sweep):
        import dataclasses

        edited = dataclasses.replace(sweep.device, issue_efficiency=0.99)
        assert model_fingerprint(
            sweep.device, sweep.setup
        ) != model_fingerprint(edited, sweep.setup)

    def test_fingerprint_distinguishes_devices(self, sweep):
        assert model_fingerprint(
            hd7970(), sweep.setup
        ) != model_fingerprint(gtx680(), sweep.setup)

    def test_mismatched_fingerprint_rejected_on_load(self, sweep, tmp_path):
        path = save_sweep(sweep, tmp_path / "sweep.json")
        document = json.loads(path.read_text())
        document["fingerprint"] = "0" * 16
        path.write_text(json.dumps(document))
        with pytest.raises(TuningError, match="fingerprint"):
            load_sweep(path)

    def test_schema_one_documents_still_load(self, sweep, tmp_path):
        # Pre-fingerprint documents fall back to GFLOP/s re-verification.
        path = save_sweep(sweep, tmp_path / "sweep.json")
        document = json.loads(path.read_text())
        document["schema"] = 1
        del document["fingerprint"]
        path.write_text(json.dumps(document))
        loaded = load_sweep(path)
        assert loaded.best.config == sweep.best.config
