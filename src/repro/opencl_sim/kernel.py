"""Functional execution of a configured dedispersion kernel.

:class:`DedispersionKernel` carries two interchangeable executors behind
one ``execute`` call:

* the **tiled** path replays the *same tiled decomposition* the
  generated OpenCL source describes — work-group by work-group, staging
  each channel's shared window, then accumulating each DM row at its own
  shift — using NumPy row operations in place of the per-work-item
  lanes.  Because the decomposition, shifts and accumulation order
  mirror the generated source, a configuration-space bug (wrong offsets
  at tile boundaries, bad staging window, off-by-one shifts) makes the
  output diverge from the sequential reference, which is exactly what
  the property-based tests check across the whole tuning space;
* the **vectorized** path (:mod:`repro.opencl_sim.vectorized`) computes
  every work-group of the launch per channel with whole-array gathers —
  bit-identical output, an order of magnitude faster at realistic
  scales.

Backend choice (``backend="tiled"|"vectorized"|"auto"``, plus the
process-wide :envvar:`REPRO_KERNEL_BACKEND` pin) is resolved per launch
by :func:`repro.opencl_sim.backend.resolve_backend`; every launch lands
in the metrics registry as ``repro_kernel_launches_total{backend=...}``
plus a ``repro_kernel_execute_seconds`` wall-time observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import KernelConfiguration
from repro.errors import ValidationError
from repro.obs import get_registry
from repro.opencl_sim.backend import resolve_backend
from repro.opencl_sim.channel_tile import accumulate_channel_tiles
from repro.opencl_sim.ndrange import NDRange
from repro.opencl_sim.vectorized import accumulate_channels


@dataclass(frozen=True)
class DedispersionKernel:
    """An executable, configured dedispersion kernel.

    Built by :func:`repro.opencl_sim.codegen.build_kernel`; carries the
    generated OpenCL source for inspection alongside the executor.
    ``backend`` is the default executor for :meth:`execute` (overridable
    per launch).
    """

    config: KernelConfiguration
    channels: int
    samples: int
    source: str
    use_local_staging: bool = True
    backend: str = "auto"

    def ndrange(self, n_dms: int) -> NDRange:
        """The launch geometry for ``n_dms`` trial DMs."""
        return NDRange(
            global_time=self.samples,
            global_dm=n_dms,
            tile_samples=self.config.tile_samples,
            tile_dms=self.config.tile_dms,
        )

    # ------------------------------------------------------------------
    def _execute(
        self,
        input_data: np.ndarray,
        delay_table: np.ndarray,
        out: np.ndarray | None = None,
        backend: str | None = None,
    ) -> np.ndarray:
        """Dedisperse ``input_data`` for every DM row of ``delay_table``.

        ``input_data`` has shape ``(channels, t)`` with
        ``t >= samples + max(delay_table)`` so every shifted read is valid;
        ``delay_table`` has shape ``(n_dms, channels)`` (non-negative
        integer shifts).  Returns the ``(n_dms, samples)`` output matrix.

        ``out``, when given, must be a float32 array of the output shape
        (the executors accumulate in float32; any other dtype would
        silently change the arithmetic).  ``backend`` overrides the
        kernel's default executor for this launch.

        This is the body the :mod:`repro.run` facade dispatches to.
        """
        input_data = np.asarray(input_data)
        delay_table = np.asarray(delay_table)
        if input_data.ndim != 2 or input_data.shape[0] != self.channels:
            raise ValidationError(
                f"input must have shape (channels={self.channels}, t), "
                f"got {input_data.shape}"
            )
        if delay_table.ndim != 2 or delay_table.shape[1] != self.channels:
            raise ValidationError(
                f"delay table must have shape (n_dms, {self.channels}), "
                f"got {delay_table.shape}"
            )
        if np.any(delay_table < 0):
            raise ValidationError("delay table must be non-negative")
        n_dms = delay_table.shape[0]
        needed = self.samples + int(delay_table.max(initial=0))
        if input_data.shape[1] < needed:
            raise ValidationError(
                f"input has {input_data.shape[1]} samples; needs {needed} "
                f"(samples + max delay)"
            )
        if out is None:
            out = np.zeros((n_dms, self.samples), dtype=np.float32)
        else:
            check_out(out, (n_dms, self.samples))
            out[...] = 0.0

        ndr = self.ndrange(n_dms)
        reuse_span = (
            int(
                (delay_table.max(axis=0) - delay_table.min(axis=0)).max(
                    initial=0
                )
            )
            if n_dms
            else 0
        )
        choice = resolve_backend(
            self.backend if backend is None else backend,
            ndr.n_work_groups,
            reuse_span=reuse_span,
            samples=self.samples,
        )
        start = time.perf_counter()
        if choice == "vectorized":
            accumulate_channels(input_data, delay_table, out)
        elif choice == "channel_tile":
            accumulate_channel_tiles(input_data, delay_table, out)
        else:
            tile_t = self.config.tile_samples
            for wg in ndr.work_groups():
                self._execute_work_group(
                    input_data, delay_table, out,
                    wg.time_offset, wg.dm_offset, tile_t,
                )
        elapsed = time.perf_counter() - start
        registry = get_registry()
        registry.counter("repro_kernel_launches_total", backend=choice).inc()
        registry.histogram(
            "repro_kernel_execute_seconds", backend=choice
        ).observe(elapsed)
        return out

    # ------------------------------------------------------------------
    def _execute_work_group(
        self,
        input_data: np.ndarray,
        delay_table: np.ndarray,
        out: np.ndarray,
        t0: int,
        d0: int,
        tile_t: int,
    ) -> None:
        """One work-group: stage each channel window, accumulate each row."""
        tile_d = self.config.tile_dms
        accum = np.zeros((tile_d, tile_t), dtype=np.float32)
        for channel in range(self.channels):
            shifts = delay_table[d0 : d0 + tile_d, channel]
            if self.use_local_staging and tile_d > 1:
                # Collaborative load of the union window, then per-row reads
                # at local offsets — the __local staging path.
                first = int(shifts.min())
                window = tile_t + int(shifts.max()) - first
                staged = input_data[channel, t0 + first : t0 + first + window]
                for row in range(tile_d):
                    local = int(shifts[row]) - first
                    accum[row] += staged[local : local + tile_t]
            else:
                for row in range(tile_d):
                    start = t0 + int(shifts[row])
                    accum[row] += input_data[channel, start : start + tile_t]
        out[d0 : d0 + tile_d, t0 : t0 + tile_t] = accum


def check_out(out: np.ndarray, shape: tuple[int, ...]) -> None:
    """Validate a caller-supplied output buffer: shape and float32 dtype.

    Both executors accumulate in float32; writing through a float64 (or
    any other) ``out`` would silently change the arithmetic and break
    the bit-for-bit stitching guarantee of
    sharded execution (:func:`repro.opencl_sim.batch._execute_sharded`).
    """
    if not isinstance(out, np.ndarray) or out.shape != shape:
        raise ValidationError(
            f"out must be an ndarray of shape {shape}, got "
            f"{out.shape if isinstance(out, np.ndarray) else type(out).__name__}"
        )
    if out.dtype != np.float32:
        raise ValidationError(
            f"out must be float32 (the executors accumulate in float32), "
            f"got {out.dtype}"
        )
