"""Property: detector output is invariant under kernel-backend swap.

The tiled and vectorized executors claim bit-identical outputs; the
search subsystem leans on that claim — a candidate list must not depend
on which backend dedispersed the stream.  Hypothesis drives randomized
observations (noise seed x injected trial DM) through both backends via
the facade and requires the matched-filter results to agree exactly.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.astro.signal_gen import SyntheticPulsar
from repro.core.config import KernelConfiguration
from repro.core.plan import DedispersionPlan
from repro.hardware.catalog import hd7970
from repro.run import ExecutionRequest, execute
from repro.search import MatchedFilterDetector
from tests.conftest import make_chunks

SETUP = ObservationSetup(
    name="prop-toy",
    channels=16,
    lowest_frequency=140.0,
    channel_bandwidth=0.2,
    samples_per_second=400,
    samples_per_batch=400,
)
GRID = DMTrialGrid(n_dms=8, first=0.0, step=1.0)
PLAN = DedispersionPlan.create(
    SETUP, GRID, hd7970(), config=KernelConfiguration(16, 4, 5, 2),
    samples=400,
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    trial=st.integers(min_value=1, max_value=GRID.n_dms - 1),
)
def test_detector_snr_invariant_under_backend_swap(seed, trial):
    pulsar = SyntheticPulsar(
        period_seconds=0.5, dm=float(GRID.values[trial]), amplitude=1.0
    )
    (chunk,) = make_chunks(SETUP, GRID, (pulsar,), n_chunks=1, seed=seed)

    planes = {
        backend: execute(
            ExecutionRequest(
                data=chunk.data[:, : PLAN.required_input_samples],
                plan=PLAN,
                backend=backend,
            )
        ).output
        for backend in ("tiled", "vectorized")
    }
    np.testing.assert_array_equal(planes["tiled"], planes["vectorized"])

    detector = MatchedFilterDetector(snr_threshold=6.0)
    results = {
        backend: detector.best_per_trial(plane)
        for backend, plane in planes.items()
    }
    for tiled_array, fast_array in zip(
        results["tiled"], results["vectorized"]
    ):
        np.testing.assert_array_equal(tiled_array, fast_array)

    tiled_found = detector.detect(planes["tiled"], GRID.values)
    fast_found = detector.detect(planes["vectorized"], GRID.values)
    assert tiled_found == fast_found
