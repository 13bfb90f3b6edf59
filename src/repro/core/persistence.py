"""Persistence of tuning sweeps.

A production installation tunes once per (device, setup, instance) and
reuses the result for months — the paper's tuner is explicitly an offline
step.  This module serialises a :class:`~repro.core.tuner.TuningResult`
to a self-describing JSON document and back, so sweeps survive process
restarts and can be shipped between machines.

Reloaded sweeps re-simulate each stored configuration through the local
performance model, then *verify* the stored GFLOP/s against the fresh
numbers — a drifted model (edited catalogue, changed code) is detected
instead of silently trusted.

Every document additionally carries a *model fingerprint*: a digest over
the device specification, the observational setup, and the model revision
that produced the sweep.  The fingerprint makes staleness detectable
*before* the expensive re-simulation (and without it, for callers that
load with ``verify=False``), and it is the cache-key ingredient the
:mod:`repro.service` layer uses so an edited device catalogue invalidates
cached sweeps instead of serving them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup, setup_by_name
from repro.core.config import KernelConfiguration
from repro.core.tuner import ConfigurationSample, TuningResult
from repro.errors import SchemaVersionError, TuningError, ValidationError
from repro.hardware.catalog import device_by_name
from repro.hardware.device import DeviceSpec
from repro.hardware.model import PerformanceModel

#: Format version written into every document.
SCHEMA_VERSION: int = 2

#: Schema versions :func:`load_sweep` still understands.  Version 1
#: documents predate the model fingerprint and fall back to GFLOP/s
#: re-verification only.
SUPPORTED_SCHEMAS: tuple[int, ...] = (1, 2)

#: Revision of the performance-model *code*.  Bump when the model's
#: semantics change so that previously persisted sweeps (and service
#: cache entries) stop matching even for identical catalogue entries.
MODEL_REVISION: int = 1


def model_fingerprint(device: DeviceSpec, setup: ObservationSetup) -> str:
    """Digest of everything that determines a sweep's numbers.

    Covers every field of the device specification (published *and*
    calibrated), the observational setup, and :data:`MODEL_REVISION`.
    Editing any of them — e.g. recalibrating ``issue_efficiency`` in the
    catalogue — changes the fingerprint, which invalidates persisted
    sweeps and service cache entries keyed on it.
    """
    payload = {
        "model_revision": MODEL_REVISION,
        "device": asdict(device),
        "setup": asdict(setup),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    )
    return digest.hexdigest()[:16]


def sweep_to_document(result: TuningResult) -> dict:
    """Serialise a sweep to a JSON-ready dictionary."""
    return {
        "schema": SCHEMA_VERSION,
        "fingerprint": model_fingerprint(result.device, result.setup),
        "device": result.device.name,
        "setup": result.setup.name,
        "grid": {
            "n_dms": result.grid.n_dms,
            "first": result.grid.first,
            "step": result.grid.step,
        },
        "samples": [
            {
                "config": sample.config.as_tuple(),
                "gflops": sample.gflops,
            }
            for sample in result.samples
        ],
    }


def save_sweep(result: TuningResult, path: str | Path) -> Path:
    """Write a sweep document to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(sweep_to_document(result), indent=1))
    return path


def load_sweep(
    path: str | Path,
    verify: bool = True,
    tolerance: float = 1e-6,
) -> TuningResult:
    """Load a sweep document and rebuild the :class:`TuningResult`.

    With ``verify=True`` (default) the document's model fingerprint (when
    present) is checked against the current catalogue/model first — a
    cheap, early staleness test — and then every stored GFLOP/s is checked
    against a fresh simulation; a mismatch beyond ``tolerance`` (relative)
    raises :class:`TuningError` — the guard against loading sweeps
    produced by a different model parameterisation.
    """
    document = json.loads(Path(path).read_text())
    schema = document.get("schema")
    if schema not in SUPPORTED_SCHEMAS:
        if isinstance(schema, int) and schema > max(SUPPORTED_SCHEMAS):
            raise SchemaVersionError(
                f"unsupported sweep schema {schema!r}: this file was "
                f"written by a newer version of repro (this build reads "
                f"schemas up to {max(SUPPORTED_SCHEMAS)}); upgrade repro "
                f"or delete the store entry to re-tune"
            )
        raise ValidationError(f"unsupported sweep schema {schema!r}")
    device = device_by_name(document["device"])
    setup = setup_by_name(document["setup"])
    stored_fingerprint = document.get("fingerprint")
    if verify and stored_fingerprint is not None:
        current = model_fingerprint(device, setup)
        if stored_fingerprint != current:
            raise TuningError(
                f"sweep at {path} was produced by a different model/"
                f"catalogue (fingerprint {stored_fingerprint} != {current}); "
                "re-tune instead of loading"
            )
    grid_doc = document["grid"]
    grid = DMTrialGrid(
        n_dms=grid_doc["n_dms"],
        first=grid_doc["first"],
        step=grid_doc["step"],
    )
    model = PerformanceModel(device, setup, grid)

    samples: list[ConfigurationSample] = []
    for entry in document["samples"]:
        config = KernelConfiguration(*entry["config"])
        metrics = model.simulate(config, validate=False)
        stored = float(entry["gflops"])
        if verify and abs(metrics.gflops - stored) > tolerance * max(
            stored, 1.0
        ):
            raise TuningError(
                f"sweep at {path} no longer matches the model: "
                f"{config.describe()} stored {stored:.3f} GFLOP/s, "
                f"model now gives {metrics.gflops:.3f} "
                "(re-tune instead of loading)"
            )
        samples.append(
            ConfigurationSample(
                config=config, gflops=metrics.gflops, metrics=metrics
            )
        )
    return TuningResult(
        device=device, setup=setup, grid=grid, samples=tuple(samples)
    )
