"""Matched-filter candidate detection over the DM×time plane.

The scalar machinery of :mod:`repro.astro.snr` scans one trial series at
a time with Python-level loops — fine for offline analysis, far too slow
to sit behind the vectorized kernel backend, which dedisperses an
Apertif-scale batch in tens of milliseconds.  This module re-expresses
the same boxcar matched filter as whole-plane NumPy operations:
:func:`boxcar_snr_plane` normalises and convolves every trial row at
once, and :class:`MatchedFilterDetector` folds a bank of widths into the
per-trial best detections that :func:`repro.astro.candidates.sift`
expects.

The numbers are the point, not just the speed: for any width,
``boxcar_snr_plane(plane, w)[i]`` equals
``repro.astro.snr.boxcar_snr(plane[i], w)`` exactly (same float64
median/MAD normalisation, same cumulative-sum filter), so the detector
inherits the scalar path's test oracle.  The work behind that contract
is kept small:

* The plane is never copied to float64.  Each row's median and MAD come
  from one single-``kth`` partition each, and the median is selected on
  the plane's own float32 values: widening to float64 is exact and
  monotone, so it preserves order statistics.
* The centred rows are written straight into the cumulative-sum buffer,
  and one second buffer holds the absolute deviations and then every
  width's boxcar sums and S/N.  Scratch is those two float64 buffers.
* The width bank runs over row blocks of at most :data:`BLOCK_BYTES` of
  cumulative sums, so each block is re-read from cache once per width
  instead of from memory.

Every per-row statistic here — median/MAD, the centred cumulative sum,
the per-width S/N — depends on that row alone, so the plane can be
processed in DM-tile *slabs* without changing a single bit of the
result.  :meth:`MatchedFilterDetector.detect_slabs` is that spelling:
the fused execution path of :mod:`repro.run.fused` feeds it
freshly-dedispersed DM tiles one at a time, so the full ``(n_dms,
samples)`` plane never exists in memory.  An optional
:class:`~repro.run.peak.MemoryAccount` meters the working set either
way, which is where the ``peak_bytes`` numbers of
``benchmarks/bench_fused.py`` come from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.astro.candidates import Candidate
from repro.errors import ValidationError
from repro.run.peak import charge, release
from repro.utils.intmath import powers_of_two
from repro.utils.validation import require_positive

#: Default boxcar bank: powers of two, matching the widths
#: :func:`repro.astro.snr.best_boxcar_snr` scans for short series.
DEFAULT_WIDTHS = (1, 2, 4, 8, 16, 32)

#: Cumulative-sum bytes per row block of the width loop (at least one
#: row).  A block is re-read once per width, so it should stay resident
#: in a core's L2 cache.
BLOCK_BYTES = 128 * 1024


def _median_rows(values: np.ndarray) -> np.ndarray:
    """Float64 row medians of ``values``, which is partitioned in place.

    Equal to ``np.median(values.astype(np.float64), axis=1)`` bit for
    bit, with one single-``kth`` partition per row instead of
    ``np.median``'s two ``kth`` values plus a NaN sentinel (which fall
    off NumPy's SIMD selection path).  For an even row the lower middle
    value is the largest of the lower partition block.  ``np.median``
    averages the middle values through a sum that starts at +0.0, which
    turns a -0.0 median into +0.0; the same start keeps that sign.
    """
    n = values.shape[1]
    k = n // 2
    values.partition(k, axis=1)
    upper = values[:, k].astype(np.float64)
    if n % 2:
        return 0.0 + upper
    lower = values[:, :k].max(axis=1).astype(np.float64)
    return (0.0 + lower + upper) / 2


def _centred_cumsum(
    slab: np.ndarray, account=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-prefixed cumulative sum of the median-centred rows.

    Returns ``(csum, scratch, sigma)``: ``csum`` is the float64
    ``(rows, samples + 1)`` cumulative sum, ``scratch`` a float64
    ``(rows, samples)`` buffer the caller may overwrite, and ``sigma``
    the per-row noise.  Mirrors :func:`repro.astro.snr._robust_stats`
    exactly, including the fallback chain for degenerate rows: MAD of
    zero falls back to the row's standard deviation, and a zero standard
    deviation falls back to 1.0 (so constant rows yield zero S/N
    instead of NaN).  The two buffers are charged to ``account``; the
    caller releases them.
    """
    rows, samples = slab.shape
    csum = charge(account, np.empty((rows, samples + 1)))
    scratch = charge(account, np.empty((rows, samples)))
    # The slab belongs to the caller, so the median is selected on a
    # copy held in the scratch buffer's memory.  Widening float32 to
    # float64 keeps every order statistic, so float32 input is selected
    # as float32, the faster partition.
    if slab.dtype == np.float32:
        values = scratch.view(np.float32)[:, :samples]
    else:
        values = scratch
    np.copyto(values, slab)
    median = _median_rows(values)
    csum[:, 0] = 0.0
    centred = csum[:, 1:]
    np.subtract(slab, median[:, None], out=centred)
    np.abs(centred, out=scratch)
    mad = _median_rows(scratch)
    np.cumsum(centred, axis=1, out=centred)
    sigma = 1.4826 * mad
    flat = mad <= 0
    if flat.any():
        std = np.std(np.asarray(slab[flat], dtype=np.float64), axis=1)
        std[std == 0.0] = 1.0
        sigma[flat] = std
    return csum, scratch, sigma


def _boxcar_snr(
    csum: np.ndarray, sigma: np.ndarray, width: int, out: np.ndarray
) -> np.ndarray:
    """Boxcar S/N for one width from the cumulative sum, built in ``out``."""
    snr = out[:, : csum.shape[1] - width]
    np.subtract(csum[:, width:], csum[:, :-width], out=snr)
    np.divide(snr, sigma[:, None] * np.sqrt(width), out=snr)
    return snr


def boxcar_snr_plane(dedispersed: np.ndarray, width: int) -> np.ndarray:
    """Boxcar S/N of every trial row at every offset, in one pass.

    ``dedispersed`` is the ``(n_dms, samples)`` output of the kernel;
    the result has shape ``(n_dms, samples - width + 1)`` and matches
    :func:`repro.astro.snr.boxcar_snr` applied row by row, bit for bit.
    A row holding NaN is the one exception: the scalar path turns the
    whole row into NaN, while this one may leave the offsets before the
    first window that reaches the NaN finite.  ``np.argmax`` stops at
    the first NaN, so the detector's best for such a row is
    ``(-inf, 1, 0)`` on both paths.
    """
    plane = np.asarray(dedispersed)
    if plane.ndim != 2:
        raise ValidationError("dedispersed must be (n_dms, samples)")
    if width <= 0 or width > plane.shape[1]:
        raise ValidationError(
            f"width must be in [1, {plane.shape[1]}], got {width}"
        )
    csum, scratch, sigma = _centred_cumsum(plane)
    return _boxcar_snr(csum, sigma, width, scratch)


@dataclass(frozen=True)
class MatchedFilterDetector:
    """A boxcar matched-filter bank over the DM×time plane.

    ``widths`` is the boxcar bank (samples); ``snr_threshold`` the
    detection floor.  Following
    :func:`repro.astro.candidates.find_candidates`, the detector reports
    at most one candidate per DM trial — the trial's best (width,
    offset) match — which keeps the raw list linear in trials and is
    exactly the shape the sifter downstream expects.

    A bank is only meaningful if at least one width fits the plane:
    widths wider than the plane are skipped individually, but a bank
    in which *every* width is wider raises :class:`ValidationError`
    instead of silently detecting nothing — a misconfigured detector
    must fail loudly, not report an empty sky.
    """

    snr_threshold: float = 6.0
    widths: tuple[int, ...] = DEFAULT_WIDTHS

    def __post_init__(self) -> None:
        require_positive(self.snr_threshold, "snr_threshold")
        if not self.widths:
            raise ValidationError("detector needs at least one boxcar width")
        widths = tuple(sorted(set(int(w) for w in self.widths)))
        if widths[0] <= 0:
            raise ValidationError("boxcar widths must be positive")
        object.__setattr__(self, "widths", widths)

    @classmethod
    def for_samples(
        cls, samples: int, snr_threshold: float = 6.0
    ) -> "MatchedFilterDetector":
        """A detector whose bank matches the scalar search's default.

        :func:`repro.astro.snr.best_boxcar_snr` scans powers of two up
        to ``samples // 4``; this builds the same bank, so the two paths
        agree on arbitrary batch lengths.
        """
        limit = max(1, samples // 4)
        return cls(
            snr_threshold=snr_threshold,
            widths=tuple(powers_of_two(1, limit)),
        )

    # ------------------------------------------------------------------
    def _check_bank(self, samples: int) -> None:
        """Reject a plane narrower than every width of the bank."""
        if all(width > samples for width in self.widths):
            raise ValidationError(
                f"every boxcar width of the bank {self.widths} is wider "
                f"than the {samples}-sample plane; detection would "
                f"silently find nothing"
            )

    def best_per_trial(
        self, dedispersed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-trial best ``(snr, width, offset)`` arrays over the bank."""
        plane = np.asarray(dedispersed)
        if plane.ndim != 2:
            raise ValidationError("dedispersed must be (n_dms, samples)")
        return self._best_of_slab(plane)

    def _best_of_slab(
        self, slab: np.ndarray, account=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bank's best per row of one ``(rows, samples)`` slab.

        Row statistics are row-local, so running this over DM-tile
        slabs and concatenating gives bit-identical results to one
        whole-plane call — the property the fused path rests on.  The
        width loop runs over row blocks of at most :data:`BLOCK_BYTES`
        of cumulative sums, and every width of a block builds its S/N
        in the same rows of the scratch buffer.
        """
        n_rows, samples = slab.shape
        self._check_bank(samples)
        widths = [width for width in self.widths if width <= samples]
        best_snr = np.full(n_rows, -np.inf)
        best_width = np.ones(n_rows, dtype=np.int64)
        best_offset = np.zeros(n_rows, dtype=np.int64)
        csum, scratch, sigma = _centred_cumsum(slab, account)
        step = max(1, BLOCK_BYTES // (csum.itemsize * csum.shape[1]))
        for r0 in range(0, n_rows, step):
            block = slice(r0, r0 + step)
            block_snr = best_snr[block]
            block_width = best_width[block]
            block_offset = best_offset[block]
            rows = np.arange(block_snr.size)
            for width in widths:
                snr = _boxcar_snr(
                    csum[block], sigma[block], width, scratch[block]
                )
                offsets = np.argmax(snr, axis=1)
                peaks = snr[rows, offsets]
                better = peaks > block_snr
                block_snr[better] = peaks[better]
                block_width[better] = width
                block_offset[better] = offsets[better]
        release(account, scratch)
        release(account, csum)
        return best_snr, best_width, best_offset

    def _candidates(
        self,
        snrs: np.ndarray,
        widths: np.ndarray,
        offsets: np.ndarray,
        dms: np.ndarray,
        time_offset: int,
        beam: int,
    ) -> list[Candidate]:
        """Threshold the per-trial best arrays into the candidate list."""
        hits = np.flatnonzero(snrs >= self.snr_threshold)
        return [
            Candidate(
                dm_index=int(i),
                dm=float(dms[i]),
                snr=float(snrs[i]),
                time_sample=int(offsets[i]) + int(time_offset),
                width=int(widths[i]),
                beam=int(beam),
            )
            for i in hits
        ]

    def detect(
        self,
        dedispersed: np.ndarray,
        dms: np.ndarray,
        time_offset: int = 0,
        beam: int = 0,
        account=None,
    ) -> list[Candidate]:
        """Super-threshold candidates of one ``(n_dms, samples)`` plane.

        ``time_offset`` shifts every reported ``time_sample`` into a
        global stream timeline (the chunk's first output sample), so
        per-chunk detections from a stream can be sifted together.
        ``beam`` labels every candidate with its telescope beam so
        multi-beam consumers keep provenance through sifting.

        The plane is read in its own dtype and never copied to float64:
        float32 kernel output is widened only where a statistic or sum
        needs it, into the detector's two float64 scratch buffers.
        ``account``, when given, meters those buffers (see
        :mod:`repro.run.peak`); the plane itself belongs to the caller,
        who charges it.
        """
        plane = np.asarray(dedispersed)
        if plane.ndim != 2 or plane.shape[0] != len(dms):
            raise ValidationError(
                "dedispersed must be (n_dms, samples) with one row per "
                "trial DM"
            )
        snrs, widths, offsets = self._best_of_slab(plane, account)
        return self._candidates(
            snrs, widths, offsets, dms, time_offset, beam
        )

    def detect_slabs(
        self,
        slabs,
        dms: np.ndarray,
        time_offset: int = 0,
        beam: int = 0,
        account=None,
    ) -> list[Candidate]:
        """:meth:`detect`, fed DM-tile slabs instead of a whole plane.

        ``slabs`` yields consecutive ``(rows_i, samples)`` arrays
        covering the trial axis in order (``sum(rows_i) == len(dms)``),
        all with the same ``samples``.  Each slab is folded through the
        bank in its own dtype and dropped before the next one is
        requested, so the peak working set is one slab's — not the
        plane's.  The candidate list is bit-identical to a whole-plane
        :meth:`detect` because every per-row statistic is row-local; an
        empty grid fed no slabs detects nothing, as :meth:`detect` does
        on a 0-row plane.
        """
        parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        rows_seen = 0
        samples = None
        for slab in slabs:
            plane = np.asarray(slab)
            if plane.ndim != 2:
                raise ValidationError(
                    "every slab must be 2-D (rows, samples)"
                )
            if samples is None:
                samples = plane.shape[1]
            elif plane.shape[1] != samples:
                raise ValidationError(
                    f"slab {len(parts)} has {plane.shape[1]} samples; "
                    f"the slabs before it had {samples}"
                )
            parts.append(self._best_of_slab(plane, account))
            rows_seen += plane.shape[0]
        if rows_seen != len(dms):
            raise ValidationError(
                f"slabs covered {rows_seen} trial rows; the DM grid has "
                f"{len(dms)}"
            )
        if not parts:
            return []
        snrs = np.concatenate([p[0] for p in parts])
        widths = np.concatenate([p[1] for p in parts])
        offsets = np.concatenate([p[2] for p in parts])
        return self._candidates(
            snrs, widths, offsets, dms, time_offset, beam
        )
