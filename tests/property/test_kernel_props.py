"""Property-based tests for the kernel executors.

The strongest correctness property in the repository: for *any* kernel
configuration that tiles the problem and *any* non-negative delay table
(not just physical ones), the tiled work-group execution must reproduce
the sequential Algorithm 1 bit-for-bit (up to float32 addition order),
and the vectorized fast path must match the tiled executor *exactly*
(float32 bitwise — both add channels in the same order).
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import KernelConfiguration
from repro.opencl_sim import vectorized
from repro.opencl_sim.codegen import build_kernel
from repro.opencl_sim.vectorized import BLOCK_BYTES
from tests.conftest import run_kernel


@st.composite
def problems(draw):
    """(channels, samples, n_dms, config, delays, input) bundles.

    The configuration is drawn from divisors of the problem dimensions so
    the tiling is always exact, mirroring the meaningful-configuration
    rule.
    """
    channels = draw(st.integers(min_value=1, max_value=8))
    # samples = wt * et * k
    wt = draw(st.sampled_from([1, 2, 4, 5, 8]))
    et = draw(st.sampled_from([1, 2, 3, 5]))
    tiles_t = draw(st.integers(min_value=1, max_value=3))
    samples = wt * et * tiles_t
    wd = draw(st.sampled_from([1, 2, 4]))
    ed = draw(st.sampled_from([1, 2]))
    tiles_d = draw(st.integers(min_value=1, max_value=3))
    n_dms = wd * ed * tiles_d
    config = KernelConfiguration(wt, wd, et, ed)
    max_delay = draw(st.integers(min_value=0, max_value=20))
    delays = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=max_delay),
                min_size=channels,
                max_size=channels,
            ),
            min_size=n_dms,
            max_size=n_dms,
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31)))
    data = rng.normal(size=(channels, samples + max_delay)).astype(np.float32)
    return channels, samples, n_dms, config, np.asarray(delays), data


def reference(data, delays, samples):
    """Direct Algorithm 1 on an arbitrary delay table."""
    n_dms, channels = delays.shape
    out = np.zeros((n_dms, samples), dtype=np.float32)
    for dm in range(n_dms):
        for ch in range(channels):
            start = int(delays[dm, ch])
            out[dm] += data[ch, start : start + samples]
    return out


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(problem=problems())
    def test_tiled_execution_matches_reference(self, problem):
        channels, samples, n_dms, config, delays, data = problem
        kernel = build_kernel(config, channels, samples)
        out = run_kernel(kernel, data, delays, backend="tiled")
        expected = reference(data, delays, samples)
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(problem=problems(), one_row_blocks=st.booleans())
    def test_vectorized_bitwise_equals_tiled(self, problem, one_row_blocks):
        # The fast path's contract is *exact* float32 equality, not
        # allclose: both executors add the channels in the same order.
        # The toy launches fit in one DM block; one-row blocks put a
        # seam between every pair of rows.
        channels, samples, n_dms, config, delays, data = problem
        kernel = build_kernel(config, channels, samples)
        tiled = run_kernel(kernel, data, delays, backend="tiled")
        block_bytes = 4 * samples if one_row_blocks else BLOCK_BYTES
        with patch.object(vectorized, "BLOCK_BYTES", block_bytes):
            fast = run_kernel(kernel, data, delays, backend="vectorized")
        np.testing.assert_array_equal(tiled, fast)

    @settings(max_examples=40, deadline=None)
    @given(problem=problems(), choice=st.data())
    def test_dm_slab_equals_rows_of_whole_grid(self, problem, choice):
        # run_fused_chunk launches one tile-multiple DM slab at a time:
        # each slab must reproduce its rows of the whole-grid launch
        # exactly, on both executors.
        channels, samples, n_dms, config, delays, data = problem
        tile = config.tile_dms
        tiles = n_dms // tile
        first = choice.draw(st.integers(min_value=0, max_value=tiles - 1))
        count = choice.draw(st.integers(min_value=1, max_value=tiles - first))
        rows = slice(first * tile, (first + count) * tile)
        kernel = build_kernel(config, channels, samples)
        for backend in ("tiled", "vectorized"):
            whole = run_kernel(kernel, data, delays, backend=backend)
            slab = run_kernel(kernel, data, delays[rows], backend=backend)
            np.testing.assert_array_equal(slab, whole[rows])

    @settings(max_examples=30, deadline=None)
    @given(problem=problems())
    def test_staged_equals_direct(self, problem):
        channels, samples, n_dms, config, delays, data = problem
        staged = build_kernel(config, channels, samples)
        direct = build_kernel(
            config, channels, samples, use_local_staging=False
        )
        np.testing.assert_array_equal(
            run_kernel(staged, data, delays, backend="tiled"),
            run_kernel(direct, data, delays, backend="tiled"),
        )

    @settings(max_examples=30, deadline=None)
    @given(problem=problems(), scale=st.floats(min_value=0.1, max_value=8.0))
    def test_linearity(self, problem, scale):
        # Dedispersion is linear: kernel(a*x) == a*kernel(x).
        channels, samples, n_dms, config, delays, data = problem
        kernel = build_kernel(config, channels, samples)
        base = run_kernel(kernel, data, delays)
        scaled = run_kernel(
            kernel, (data * np.float32(scale)).astype(np.float32), delays
        )
        np.testing.assert_allclose(
            scaled, base * np.float32(scale), rtol=1e-4, atol=1e-4
        )
