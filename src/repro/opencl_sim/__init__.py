"""A miniature OpenCL-like runtime executing kernels functionally.

The paper generates its kernel source at run time from the four tuning
parameters and executes it through OpenCL.  This subpackage mirrors that
pipeline without a GPU: :mod:`~repro.opencl_sim.codegen` renders the
OpenCL C source a configuration would produce (useful for inspection and
for tests over the generated structure), and builds an equivalent NumPy
executor that performs the *same tiled decomposition* a work-group grid
would — so the correctness of every point of the tuning space is testable
against the sequential reference.

Three executors implement each kernel (see
:mod:`~repro.opencl_sim.backend`): the tiled reference, the
bit-identical vectorized fast path of
:mod:`~repro.opencl_sim.vectorized`, and the reuse-tiled channel-block
path of :mod:`~repro.opencl_sim.channel_tile`, selected per launch via
``backend="tiled"|"vectorized"|"channel_tile"|"auto"`` or
``$REPRO_KERNEL_BACKEND``.
"""

from repro.opencl_sim.backend import (
    BACKEND_ENV_VAR,
    KERNEL_BACKENDS,
    normalize_backend,
    resolve_backend,
)
from repro.opencl_sim.ndrange import NDRange, WorkGroup
from repro.opencl_sim.runtime import (
    Buffer,
    CommandQueue,
    Context,
    Event,
    SimDevice,
    SimPlatform,
)
from repro.opencl_sim.codegen import generate_kernel_source, build_kernel
from repro.opencl_sim.kernel import DedispersionKernel
from repro.opencl_sim.batch import (
    BatchedDedispersionKernel,
    build_batched_kernel,
)
from repro.opencl_sim.vectorized import accumulate_channels
from repro.opencl_sim.channel_tile import (
    accumulate_channel_tiles,
    channel_blocks,
    channel_spans,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "KERNEL_BACKENDS",
    "normalize_backend",
    "resolve_backend",
    "accumulate_channels",
    "accumulate_channel_tiles",
    "channel_blocks",
    "channel_spans",
    "NDRange",
    "WorkGroup",
    "Buffer",
    "CommandQueue",
    "Context",
    "Event",
    "SimDevice",
    "SimPlatform",
    "generate_kernel_source",
    "build_kernel",
    "DedispersionKernel",
    "BatchedDedispersionKernel",
    "build_batched_kernel",
]
