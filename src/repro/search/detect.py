"""Matched-filter candidate detection over the DM×time plane.

The pipeline's one detector.  The scalar filter of :mod:`repro.astro.snr`,
kept as its test oracle, scans one trial series at a time with
Python-level loops — far too slow to sit behind the vectorized kernel
backend, which dedisperses an Apertif-scale batch in tens of
milliseconds.  This module re-expresses the same boxcar matched filter
as whole-plane NumPy operations:
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
* One float64 buffer holds the centred rows and then every width's
  boxcar sums; the other holds the absolute deviations (for the MAD)
  and then the cumulative sums.  Scratch is those two buffers.
* The bank divides once per row, not once per width.  Each width keeps
  only each row's largest boxcar sum and divides it by the row's
  ``sigma * sqrt(width)``, which is exact because correctly rounded
  division by a positive divisor is monotone (a row whose divisor
  overflows to infinity takes its largest quotient instead).  Once
  every width is done, each row writes S/N for its winning width only:
  it divides that width's sums, into its row of the first buffer, and
  takes its offset from the first largest S/N there, as the scalar path
  does.
* The cumulative sum runs as one 1-D ``np.add.accumulate`` per row, from
  the centred row into the cumulative-sum buffer: NumPy holds the
  interpreter lock through a 2-D or an in-place accumulate but releases
  it in a 1-D one whose output does not overlap its input, and the sums
  are the same sequential additions either way.
* A slab's rows are cut into cache blocks of at most
  :data:`repro.utils.rows.BLOCK_BYTES` of cumulative sums, and
  :func:`repro.utils.rows.split_rows` shares the blocks among the
  process's cores.  Each core computes its own rows' median, MAD and
  cumulative sum into its rows of the two buffers, then runs the width
  bank over its blocks, so each block is re-read from cache once per
  width instead of from memory.  A block holds several rows (three at
  the LOFAR scale): each width costs a few small NumPy calls per
  block, and with one-row blocks the cores would spend their time
  handing the interpreter lock back and forth on every call.  The
  kernel's vectorized executor cuts and shares its rows by the same
  rule.

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
from repro.utils.rows import block_rows, split_rows
from repro.utils.validation import require_positive

#: Default boxcar bank: powers of two, matching the widths
#: :func:`repro.astro.snr.best_boxcar_snr` scans for short series.
DEFAULT_WIDTHS = (1, 2, 4, 8, 16, 32)


def _is_width(value) -> bool:
    """True for a Python or NumPy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, bool
    )


def _check_dtype(plane: np.ndarray) -> None:
    """Reject a plane the robust statistics cannot order or sum."""
    if plane.dtype.kind not in "iuf":
        raise ValidationError(
            f"dedispersed planes must hold real integers or floats, got "
            f"dtype {plane.dtype}"
        )


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
    slab: np.ndarray, csum: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Zero-prefixed cumulative sum of the median-centred rows of ``slab``.

    Fills ``csum``, a float64 ``(rows, samples + 1)`` buffer, leaves
    the centred rows in ``scratch``, a float64 ``(rows, samples)``
    buffer the caller may then overwrite, and returns the per-row noise
    ``sigma``.  Mirrors :func:`repro.astro.snr._robust_stats` exactly,
    including the fallback chain for degenerate rows: MAD of zero falls
    back to the row's standard deviation, and a zero standard deviation
    falls back to 1.0 (so constant rows yield zero S/N instead of NaN).
    """
    samples = slab.shape[1]
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
    centred = scratch
    np.subtract(slab, median[:, None], out=centred)
    # The deviations are selected in the cumulative-sum buffer, which
    # the sums then overwrite.
    deviations = csum[:, 1:]
    np.abs(centred, out=deviations)
    mad = _median_rows(deviations)
    csum[:, 0] = 0.0
    # One call per row, into a buffer that does not overlap its input:
    # NumPy holds the interpreter lock through a 2-D or in-place
    # accumulate and releases it in this one.
    for row, sums in zip(centred, deviations):
        np.add.accumulate(row, out=sums)
    sigma = 1.4826 * mad
    flat = mad <= 0
    if flat.any():
        std = np.std(np.asarray(slab[flat], dtype=np.float64), axis=1)
        std[std == 0.0] = 1.0
        sigma[flat] = std
    return sigma


def _boxcar_sums(csum: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """Boxcar sums for one width from the cumulative sum, built in ``out``."""
    sums = out[:, : csum.shape[1] - width]
    np.subtract(csum[:, width:], csum[:, :-width], out=sums)
    return sums


def _boxcar_snr(
    csum: np.ndarray, sigma: np.ndarray, width: int, out: np.ndarray
) -> np.ndarray:
    """Boxcar S/N for one width from the cumulative sum, built in ``out``."""
    snr = _boxcar_sums(csum, width, out)
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
    _check_dtype(plane)
    if not _is_width(width):
        raise ValidationError(f"width must be an integer, got {width!r}")
    if width <= 0 or width > plane.shape[1]:
        raise ValidationError(
            f"width must be in [1, {plane.shape[1]}], got {width}"
        )
    rows, samples = plane.shape
    csum = np.empty((rows, samples + 1))
    scratch = np.empty((rows, samples))
    sigma = _centred_cumsum(plane, csum, scratch)
    return _boxcar_snr(csum, sigma, int(width), scratch)


@dataclass(frozen=True)
class MatchedFilterDetector:
    """A boxcar matched-filter bank over the DM×time plane.

    ``widths`` is the boxcar bank (samples); ``snr_threshold`` the
    detection floor.  The detector reports at most one candidate per DM
    trial — the trial's best (width, offset) match — which keeps the raw
    list linear in trials; a bright event still yields one candidate per
    trial of its bow tie, which :func:`repro.astro.candidates.sift`
    then merges.

    A bank is only meaningful if at least one width fits the plane:
    widths wider than the plane are skipped individually, but a bank
    in which *every* width is wider raises :class:`ValidationError`
    instead of silently detecting nothing — a misconfigured detector
    must fail loudly, not report an empty sky.  For the same reason a
    threshold must be finite and every width an integer: an infinite
    threshold never fires, and a fractional width would be truncated.
    """

    snr_threshold: float = 6.0
    widths: tuple[int, ...] = DEFAULT_WIDTHS

    def __post_init__(self) -> None:
        require_positive(self.snr_threshold, "snr_threshold")
        if not np.isfinite(self.snr_threshold):
            raise ValidationError(
                f"snr_threshold must be finite, got {self.snr_threshold!r}"
            )
        if not self.widths:
            raise ValidationError("detector needs at least one boxcar width")
        for width in self.widths:
            if not _is_width(width):
                raise ValidationError(
                    f"boxcar widths must be integers, got {width!r}"
                )
        widths = tuple(sorted(set(int(w) for w in self.widths)))
        if widths[0] <= 0:
            raise ValidationError("boxcar widths must be positive")
        object.__setattr__(self, "widths", widths)

    @classmethod
    def for_samples(
        cls, samples: int, snr_threshold: float = 6.0
    ) -> "MatchedFilterDetector":
        """A detector whose bank matches the scalar oracle's default.

        :func:`repro.astro.snr.best_boxcar_snr` scans powers of two up
        to ``samples // 4``; this builds the same bank, so the two agree
        on arbitrary batch lengths.
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
        _check_dtype(plane)
        return self._best_of_slab(plane)

    def _best_of_slab(
        self, slab: np.ndarray, account=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bank's best per row of one ``(rows, samples)`` slab.

        Row statistics are row-local, so running this over DM-tile
        slabs and concatenating gives bit-identical results to one
        whole-plane call — the property the fused path rests on — and
        so does sharing the slab's row blocks among the cores
        (:func:`repro.utils.rows.split_rows`).  Each part centres and
        sums its own rows into its rows of the two slab-sized scratch
        buffers, which are charged to ``account`` here, on the caller's
        thread.

        Each width of a block then builds its boxcar sums in the same
        rows of the scratch buffer and keeps only each row's largest
        sum, divided by the row's ``sigma * sqrt(width)``.  Correctly
        rounded division by a positive divisor is monotone, so that is
        the row's peak S/N at that width, bit for bit, and ``max``
        passes a NaN on as ``argmax`` would pick it.  A divisor that
        overflows to infinity is the one exception (``±inf / inf`` is
        NaN), so such a row takes the largest of its quotients instead.
        Once the bank is done, each row with a detection divides its
        winning width's sums, once, and takes its offset and S/N from
        the first largest quotient: the element
        :func:`repro.astro.snr.best_boxcar_snr` picks, ties between
        offsets and the sign of zero included.
        """
        n_rows, samples = slab.shape
        self._check_bank(samples)
        widths = [width for width in self.widths if width <= samples]
        best_snr = np.full(n_rows, -np.inf)
        best_width = np.ones(n_rows, dtype=np.int64)
        best_offset = np.zeros(n_rows, dtype=np.int64)
        csum = charge(account, np.empty((n_rows, samples + 1)))
        scratch = charge(account, np.empty((n_rows, samples)))
        step = block_rows(csum.itemsize * csum.shape[1])

        def search(lo: int, hi: int) -> None:
            part = slice(lo, hi)
            sigma = _centred_cumsum(slab[part], csum[part], scratch[part])
            # Whether some row's divisor overflows at some width: the
            # widest width's is the largest.
            overflow = np.isinf(sigma * np.sqrt(widths[-1])).any()
            for r0 in range(0, hi - lo, step):
                block = slice(lo + r0, lo + r0 + step)
                block_csum = csum[block]
                block_scratch = scratch[block]
                block_sigma = sigma[r0 : r0 + step]
                block_snr = best_snr[block]
                block_width = best_width[block]
                block_offset = best_offset[block]
                for width in widths:
                    sums = _boxcar_sums(block_csum, width, block_scratch)
                    divisor = block_sigma * np.sqrt(width)
                    peaks = sums.max(axis=1) / divisor
                    if overflow:
                        huge = np.isinf(divisor)
                        peaks[huge] = np.max(
                            sums[huge] / divisor[huge, None], axis=1
                        )
                    better = peaks > block_snr
                    block_snr[better] = peaks[better]
                    block_width[better] = width
                # The S/N of each detecting row's winning width, built as
                # _boxcar_snr builds it, one row at a time.
                hits = np.flatnonzero(block_snr > -np.inf)
                hit_widths = block_width[hits]
                divisors = block_sigma[hits] * np.sqrt(hit_widths)
                for row, width, divisor in zip(
                    hits.tolist(), hit_widths.tolist(), divisors.tolist()
                ):
                    snr = block_scratch[row, : samples + 1 - width]
                    np.subtract(
                        block_csum[row, width:],
                        block_csum[row, :-width],
                        out=snr,
                    )
                    np.divide(snr, divisor, out=snr)
                    offset = snr.argmax()
                    block_offset[row] = offset
                    block_snr[row] = snr[offset]

        split_rows(n_rows, step, search)
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
        who charges it.  The plane is :meth:`detect_slabs`' one slab.
        """
        return self.detect_slabs(
            (dedispersed,), dms, time_offset, beam, account
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
                    "dedispersed planes and slabs must be 2-D (rows, "
                    "samples)"
                )
            _check_dtype(plane)
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
                f"n_dms = {len(dms)}, one row per trial DM"
            )
        if not parts:
            return []
        snrs = np.concatenate([p[0] for p in parts])
        widths = np.concatenate([p[1] for p in parts])
        offsets = np.concatenate([p[2] for p in parts])
        return self._candidates(
            snrs, widths, offsets, dms, time_offset, beam
        )
