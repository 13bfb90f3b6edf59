"""Kernel executor backend selection.

Two functionally identical executors implement a configured kernel:

* ``"tiled"`` — :class:`~repro.opencl_sim.kernel.DedispersionKernel`'s
  work-group replay of the generated OpenCL source, the reference the
  property tests trust;
* ``"vectorized"`` — :mod:`~repro.opencl_sim.vectorized`'s fast path,
  one gather per channel, per DM-row block; bit-identical to the tiled
  executor (float32, exact equality) because both accumulate channels
  in the same order.

``"auto"`` (the default everywhere) resolves the choice at launch time:
the :envvar:`REPRO_KERNEL_BACKEND` environment variable pins a backend
process-wide; otherwise the heuristic keeps the tiled reference for
single-work-group launches (where its Python overhead is negligible)
and picks the vectorized path for everything else.  An explicit
``backend=`` argument always wins over the environment.
"""

from __future__ import annotations

import os

from repro.errors import ValidationError

#: The accepted values of every ``backend=`` parameter.
KERNEL_BACKENDS = ("tiled", "vectorized", "auto")

#: Environment variable pinning the backend for a whole process.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"


def normalize_backend(backend: str | None) -> str:
    """Validate a ``backend=`` value; ``None`` means ``"auto"``."""
    if backend is None:
        return "auto"
    if backend not in KERNEL_BACKENDS:
        raise ValidationError(
            f"unknown kernel backend {backend!r}; expected one of "
            f"{', '.join(KERNEL_BACKENDS)}"
        )
    return backend


def backend_from_env() -> str | None:
    """The :envvar:`REPRO_KERNEL_BACKEND` override, validated, or None."""
    value = os.environ.get(BACKEND_ENV_VAR)
    if value is None or value == "":
        return None
    if value not in KERNEL_BACKENDS:
        raise ValidationError(
            f"${BACKEND_ENV_VAR}={value!r} is not a kernel backend; "
            f"expected one of {', '.join(KERNEL_BACKENDS)}"
        )
    return None if value == "auto" else value


def resolve_backend(backend: str | None, n_work_groups: int) -> str:
    """The executor to run one launch with.

    Resolution order: an explicit argument, then the environment pin,
    then the size heuristic, which keeps the tiled reference for
    single-work-group launches (its per-work-group Python overhead only
    matters when it scales with the launch) and runs everything larger
    on the vectorized path.
    """
    choice = normalize_backend(backend)
    if choice != "auto":
        return choice
    pinned = backend_from_env()
    if pinned is not None:
        return pinned
    return "tiled" if n_work_groups <= 1 else "vectorized"
