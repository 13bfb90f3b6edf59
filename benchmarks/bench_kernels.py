"""Wall-clock micro-benchmarks of the functional kernel implementations.

Unlike the figure benchmarks (which time the *model* sweeps), these time
actual NumPy dedispersion on laptop-scale data: the sequential reference,
the blocked CPU-style variant, and the tiled work-group executor in
representative configurations.  They demonstrate on real silicon the
paper's qualitative claims about memory-access structure.
"""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.dispersion import delay_table, max_delay_samples
from repro.astro.observation import ObservationSetup
from repro.baselines.cpu_reference import (
    dedisperse_blocked,
    dedisperse_vectorized,
)
from repro.core.config import KernelConfiguration
from repro.opencl_sim.codegen import build_kernel
from repro.run import ExecutionRequest, execute

SETUP = ObservationSetup(
    name="bench",
    channels=64,
    lowest_frequency=300.0,
    channel_bandwidth=0.5,
    samples_per_second=4000,
    samples_per_batch=4000,
)
GRID = DMTrialGrid(n_dms=32, step=0.5)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    t = SETUP.samples_per_batch + max_delay_samples(SETUP, GRID.last)
    return rng.normal(size=(SETUP.channels, t)).astype(np.float32)


@pytest.fixture(scope="module")
def table():
    return delay_table(SETUP, GRID.values)


def test_reference_vectorized(benchmark, data):
    """Sequential Algorithm 1 with vectorised rows (the oracle)."""
    out = benchmark(
        dedisperse_vectorized, data, SETUP, GRID, SETUP.samples_per_batch
    )
    assert out.shape == (GRID.n_dms, SETUP.samples_per_batch)


def test_reference_blocked(benchmark, data):
    """The OpenMP+AVX-style blocked loop structure."""
    out = benchmark(
        dedisperse_blocked, data, SETUP, GRID, SETUP.samples_per_batch
    )
    assert out.shape == (GRID.n_dms, SETUP.samples_per_batch)


@pytest.mark.parametrize(
    "label,config",
    [
        ("light_1dm", KernelConfiguration(100, 1, 4, 1)),
        ("shared_8dm", KernelConfiguration(100, 4, 4, 2)),
        ("heavy_items", KernelConfiguration(25, 2, 20, 4)),
    ],
)
def test_tiled_executor(benchmark, data, table, label, config):
    """The work-group-tiled executor across configuration styles."""
    kernel = build_kernel(config, SETUP.channels, SETUP.samples_per_batch)
    request = ExecutionRequest(data=data, kernel=kernel, delay_table=table)
    out = benchmark(execute, request).output
    assert out.shape == (GRID.n_dms, SETUP.samples_per_batch)


def test_delay_table_generation(benchmark):
    """Delay-table precomputation (Sec. III-A: done in advance)."""
    big_grid = DMTrialGrid(n_dms=4096)
    table = benchmark(delay_table, SETUP, big_grid.values)
    assert table.shape == (4096, SETUP.channels)
