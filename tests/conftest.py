"""Shared fixtures: laptop-scale setups and devices for functional tests.

The paper-scale setups (1,024 channels x 20,000+ samples) are fine for the
analytic model but too slow for the functional NumPy kernel in unit tests,
so most functional tests run on the toy setups below.  The toy "low" setup
mirrors LOFAR's regime (low frequencies, strong dispersion), the toy
"high" setup mirrors Apertif's (high frequencies, heavy reuse).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.hardware.catalog import (
    gtx680,
    gtx_titan,
    hd7970,
    k20,
    xeon_e5_2620,
    xeon_phi_5110p,
)


@pytest.fixture(autouse=True)
def _obs_snapshot_in_tmp(tmp_path, monkeypatch):
    """Keep CLI observability snapshots out of the working directory."""
    monkeypatch.setenv("REPRO_OBS_PATH", str(tmp_path / "obs-snapshot.json"))


@pytest.fixture
def toy_low() -> ObservationSetup:
    """A small, LOFAR-like setup: low frequencies, strong dispersion."""
    return ObservationSetup(
        name="toy-low",
        channels=16,
        lowest_frequency=140.0,
        channel_bandwidth=0.2,
        samples_per_second=400,
        samples_per_batch=400,
    )


@pytest.fixture
def toy_high() -> ObservationSetup:
    """A small, Apertif-like setup: high frequencies, heavy reuse."""
    return ObservationSetup(
        name="toy-high",
        channels=32,
        lowest_frequency=1420.0,
        channel_bandwidth=2.0,
        samples_per_second=480,
        samples_per_batch=480,
    )


@pytest.fixture
def toy_grid() -> DMTrialGrid:
    """A small DM grid matching the toy setups."""
    return DMTrialGrid(n_dms=8, first=0.0, step=1.0)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible test data."""
    return np.random.default_rng(12345)


@pytest.fixture(params=["hd7970", "xeon_phi", "gtx680", "k20", "titan"])
def any_accelerator(request):
    """Parametrised over the five accelerators of Table I."""
    return {
        "hd7970": hd7970,
        "xeon_phi": xeon_phi_5110p,
        "gtx680": gtx680,
        "k20": k20,
        "titan": gtx_titan,
    }[request.param]()


@pytest.fixture
def cpu_device():
    """The CPU baseline device."""
    return xeon_e5_2620()


def make_input(
    setup: ObservationSetup,
    grid: DMTrialGrid,
    rng: np.random.Generator,
    samples: int | None = None,
) -> np.ndarray:
    """Random channelised input long enough for the grid's maximum DM."""
    from repro.astro.dispersion import max_delay_samples

    s = samples or setup.samples_per_batch
    t = s + max_delay_samples(setup, grid.last)
    return rng.normal(size=(setup.channels, t)).astype(np.float32)


def make_observation(
    setup: ObservationSetup,
    pulsars=(),
    seconds: float = 1.0,
    max_dm: float | None = None,
    seed: int = 0,
    sigma: float = 1.0,
) -> np.ndarray:
    """Seeded noise plus pulsars, composed through the SignalSource API.

    Covers ``seconds`` of data plus, when ``max_dm`` is given, the
    maximum dispersion delay at ``max_dm``, so every output sample of a
    dedispersion up to that DM has valid input.
    """
    from repro.astro.dispersion import max_delay_samples
    from repro.astro.source import CompositeSource, NoiseSource, PulsarSource
    from repro.utils.rng import RandomStreams

    n_samples = int(round(seconds * setup.samples_per_second))
    if max_dm is not None:
        n_samples += max_delay_samples(setup, max_dm)
    source = CompositeSource(
        (NoiseSource(sigma), *(PulsarSource(p) for p in pulsars))
    )
    data, _ = source.generate(setup, n_samples, RandomStreams(seed))
    return data


def run_kernel(kernel, data, table, **kwargs) -> np.ndarray:
    """Dedisperse one batch with ``kernel`` through the facade."""
    from repro.run import ExecutionRequest, execute

    request = ExecutionRequest(
        data=data, kernel=kernel, delay_table=table, mode="kernel", **kwargs
    )
    return execute(request).output


def run_plan(plan, data, **kwargs) -> np.ndarray:
    """Dedisperse one batch with a tuned plan through the facade."""
    from repro.run import ExecutionRequest, execute

    return execute(ExecutionRequest(data=data, plan=plan, **kwargs)).output
