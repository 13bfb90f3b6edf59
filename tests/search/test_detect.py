"""Unit tests for repro.search.detect — the vectorized matched filter."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.astro.snr import best_boxcar_snr, boxcar_snr
from repro.errors import ValidationError
from repro.search import DEFAULT_WIDTHS, MatchedFilterDetector, boxcar_snr_plane
from repro.utils import rows
from repro.utils.intmath import powers_of_two


def pulse_plane(rng, dtype=np.float32, samples=256):
    plane = rng.normal(size=(6, samples)).astype(dtype)
    # One clean injected pulse: 8 samples of amplitude 10 in row 3.
    plane[3, 100:108] += 10.0
    return plane


@pytest.fixture
def plane(rng):
    return pulse_plane(rng)


def _ties(rng):
    # Small integers: equal samples, equal medians and equal S/N values.
    return rng.integers(-3, 4, size=(6, 256)).astype(np.float32)


def _zero_mad(rng):
    # More than half of every row is one value, so the MAD is zero and
    # sigma falls back to the row's standard deviation.
    plane = np.zeros((6, 256), dtype=np.float32)
    for row in plane:
        row[rng.choice(256, size=20, replace=False)] = rng.normal(size=20)
    return plane


def _constant(rng):
    # MAD and standard deviation both zero: sigma falls back to 1.0.
    return np.repeat(
        np.array([[0.0], [-0.0], [1.5], [-2.0]], dtype=np.float32), 256, 1
    )


def _infinite(rng):
    plane = rng.normal(size=(6, 256))
    plane[0, 50] = np.inf
    plane[1, 0] = -np.inf
    plane[2, -1] = np.inf
    plane[3, [10, 200]] = (np.inf, -np.inf)
    plane[4, :200] = np.inf
    return plane


def _nan(rng):
    plane = rng.normal(size=(5, 256)).astype(np.float32)
    plane[0, 100] = np.nan
    plane[1, 0] = np.nan
    plane[2, -1] = np.nan
    plane[3, :200] = np.nan
    return plane


def _tall(rng):
    # Enough rows for the detector's width loop to span three row blocks.
    rows_per_block = rows.block_rows(8 * 257)
    return rng.normal(size=(2 * rows_per_block + 3, 256)).astype(np.float32)


#: Planes for the scalar-parity tests, one per corner of the robust
#: statistics the vectorized path must reproduce bit for bit.
PARITY_PLANES = {
    "pulse": pulse_plane,
    "float32-odd": lambda rng: pulse_plane(rng, np.float32, 255),
    "float64-even": lambda rng: pulse_plane(rng, np.float64),
    "float64-odd": lambda rng: pulse_plane(rng, np.float64, 257),
    "ties": _ties,
    "zero-mad": _zero_mad,
    "constant": _constant,
    "inf": _infinite,
    "nan": _nan,
    "tall": _tall,
}

#: ``(kind, width)`` cases of the plane-level parity test.  NaN rows are
#: left out: ``boxcar_snr_plane`` may leave the offsets before the NaN
#: finite where the scalar path gives NaN (see its docstring).  The
#: pulse plane's cases keep width-only ids, so their names stay stable.
PLANE_PARITY_CASES = [
    pytest.param(
        kind, width, id=str(width) if kind == "pulse" else f"{kind}-{width}"
    )
    for kind in PARITY_PLANES
    if kind != "nan"
    for width in DEFAULT_WIDTHS
]


def _divide_every_width(plane, widths):
    """The bank as a scan of every width's full S/N, strict > ascending."""
    best = [(-np.inf, 1, 0)] * plane.shape[0]
    for width in widths:
        snr = boxcar_snr_plane(plane, width)
        for row, series in enumerate(snr):
            offset = int(np.argmax(series))
            if series[offset] > best[row][0]:
                best[row] = (series[offset], width, offset)
    snrs, widths, offsets = zip(*best)
    return np.array(snrs), np.array(widths), np.array(offsets)


class TestPlaneParity:
    """The whole-plane filter matches the scalar oracle bit for bit."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind, width", PLANE_PARITY_CASES)
    def test_rows_match_scalar_boxcar(self, rng, kind, width):
        plane = PARITY_PLANES[kind](rng)
        vector = boxcar_snr_plane(plane, width)
        for row in range(plane.shape[0]):
            np.testing.assert_array_equal(
                vector[row], boxcar_snr(plane[row], width)
            )

    def test_constant_rows_yield_zero_snr(self):
        flat = np.ones((2, 64), dtype=np.float32)
        snr = boxcar_snr_plane(flat, 4)
        assert np.all(snr == 0.0)
        assert not np.any(np.isnan(snr))

    def test_output_shape(self, plane):
        assert boxcar_snr_plane(plane, 16).shape == (6, 256 - 16 + 1)

    def test_rejects_1d_input(self):
        with pytest.raises(ValidationError, match="n_dms"):
            boxcar_snr_plane(np.zeros(16), 2)

    @pytest.mark.parametrize("width", [0, -1, 300])
    def test_rejects_bad_widths(self, plane, width):
        with pytest.raises(ValidationError, match="width"):
            boxcar_snr_plane(plane, width)


class TestDetectorConstruction:
    def test_widths_sorted_and_deduplicated(self):
        detector = MatchedFilterDetector(widths=(8, 2, 8, 1))
        assert detector.widths == (1, 2, 8)

    def test_rejects_empty_bank(self):
        with pytest.raises(ValidationError, match="width"):
            MatchedFilterDetector(widths=())

    def test_rejects_non_positive_widths(self):
        with pytest.raises(ValidationError, match="positive"):
            MatchedFilterDetector(widths=(0, 2))

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValidationError):
            MatchedFilterDetector(snr_threshold=0.0)

    def test_for_samples_matches_scalar_bank(self):
        detector = MatchedFilterDetector.for_samples(256)
        assert detector.widths == tuple(powers_of_two(1, 64))


class TestDetection:
    def test_recovers_injected_pulse(self, plane):
        detector = MatchedFilterDetector(snr_threshold=6.0)
        dms = np.arange(6, dtype=np.float64)
        found = detector.detect(plane, dms)
        assert found, "injected pulse not detected"
        best = max(found, key=lambda c: c.snr)
        assert best.dm_index == 3
        assert best.width == 8
        assert 92 <= best.time_sample <= 108

    def test_one_candidate_per_trial_at_most(self, plane):
        detector = MatchedFilterDetector(snr_threshold=1.0)
        found = detector.detect(plane, np.arange(6, dtype=np.float64))
        assert len(found) <= 6
        assert len({c.dm_index for c in found}) == len(found)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", PARITY_PLANES)
    def test_agrees_with_scalar_best_boxcar(self, rng, kind):
        plane = PARITY_PLANES[kind](rng)
        detector = MatchedFilterDetector.for_samples(plane.shape[1])
        snrs, widths, offsets = detector.best_per_trial(plane)
        scalar_snrs, scalar_widths, scalar_offsets = zip(
            *(best_boxcar_snr(row) for row in plane)
        )
        # Bit for bit: the constant plane has a -0.0 best, the inf
        # plane a +inf best and rows with no detection.
        np.testing.assert_array_equal(
            snrs.view(np.uint64), np.array(scalar_snrs).view(np.uint64)
        )
        assert widths.tolist() == list(scalar_widths)
        assert offsets.tolist() == list(scalar_offsets)
        if kind == "nan":
            # Every row holding a NaN reports no detection.
            assert snrs[:4].tolist() == [-np.inf] * 4
            assert widths[:4].tolist() == [1] * 4
            assert offsets[:4].tolist() == [0] * 4

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_divisor_matches_dividing_every_width(self):
        # More than half the row is 0, so the MAD is 0 and sigma falls
        # back to the standard deviation, whose squares overflow to
        # +inf.  The width-2 and width-4 sums reach -1e308 - 1e308 =
        # -inf, and -inf / inf is NaN: the largest sum, divided, would
        # read 0 and detect where dividing every sum does not.
        row = np.zeros(256)
        row[10:13] = (1e308, -1e308, -1e308)
        plane = row[None, :]
        bank = (2, 4)
        assert np.isnan(boxcar_snr_plane(plane, 2)).any(), (
            "overflow construction drifted"
        )
        got = MatchedFilterDetector(widths=bank).best_per_trial(plane)
        expected = _divide_every_width(plane, bank)
        assert (expected[0][0], expected[1][0]) == (-np.inf, 1)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(
                g.view(np.uint64), e.view(np.uint64)
            )

    def test_time_offset_shifts_reports(self, plane):
        detector = MatchedFilterDetector(snr_threshold=6.0)
        dms = np.arange(6, dtype=np.float64)
        base = detector.detect(plane, dms)
        shifted = detector.detect(plane, dms, time_offset=1000)
        assert [c.time_sample + 1000 for c in base] == [
            c.time_sample for c in shifted
        ]

    def test_widths_wider_than_plane_skipped(self, rng):
        narrow = rng.normal(size=(2, 4)).astype(np.float32)
        detector = MatchedFilterDetector(snr_threshold=1.0, widths=(2, 64))
        found = detector.detect(narrow, np.arange(2, dtype=np.float64))
        assert all(c.width == 2 for c in found)

    def test_rejects_mismatched_dms(self, plane):
        detector = MatchedFilterDetector()
        with pytest.raises(ValidationError, match="n_dms"):
            detector.detect(plane, np.arange(5, dtype=np.float64))


class TestTieBreaking:
    def test_equal_snr_ties_break_to_smaller_width_like_scalar(self):
        # An exact float64 tie: a lone spike of 4 gives the width-1
        # filter sum 4 -> S/N 4/sigma; four 2's give the width-4 filter
        # sum 8 -> S/N 8/(2*sigma), and 8/(2*sigma) == 4/sigma exactly
        # in IEEE arithmetic (the divisor differs by a power of two).
        # Both scanners walk widths ascending with a strict >, so the
        # smaller width must win in both.
        row = np.zeros(256, dtype=np.float64)
        row[10] = 4.0
        row[50:54] = 2.0
        snr1 = boxcar_snr(row, 1)
        snr4 = boxcar_snr(row, 4)
        assert snr1[10] == snr4[50], "tie construction drifted"

        scalar_snr, scalar_width, scalar_offset = best_boxcar_snr(row)
        detector = MatchedFilterDetector.for_samples(row.size)
        snrs, widths, offsets = detector.best_per_trial(row[None, :])
        assert widths[0] == scalar_width == 1
        assert offsets[0] == scalar_offset == 10
        assert snrs[0] == scalar_snr

    def test_parity_with_scalar_on_tie_heavy_plane(self, rng):
        # Sparse integer planes generate many exact ties; the
        # vectorized path must agree with the scalar oracle on all of
        # them, widths and offsets included.
        plane = np.zeros((8, 128), dtype=np.float64)
        positions = rng.integers(0, 120, size=(8, 3))
        for row, cols in enumerate(positions):
            plane[row, cols] = 4.0
        detector = MatchedFilterDetector.for_samples(128)
        snrs, widths, offsets = detector.best_per_trial(plane)
        for row in range(8):
            snr, width, offset = best_boxcar_snr(plane[row])
            assert snrs[row] == snr
            assert widths[row] == width
            assert offsets[row] == offset

    def test_equal_quotients_of_unequal_sums_break_to_first_offset(self):
        # Median 0 and MAD 1 (sigma 1.4826), so the width-1 sums are the
        # samples.  The sum 12 at offset 10 is one ulp below the sum at
        # offset 100, yet both divide to the same S/N.  The first
        # largest S/N wins, so the offset comes from the quotients, not
        # from the larger of the undivided sums.
        row = np.where(np.arange(256) % 2 == 0, 1.0, -1.0)
        row[10], row[11] = 12.0, -12.0
        row[100] = np.nextafter(12.0, np.inf)
        snr1 = boxcar_snr(row, 1)
        assert row[10] < row[100], "tie construction drifted"
        assert snr1[10] == snr1[100], "tie construction drifted"

        scalar_snr, scalar_width, scalar_offset = best_boxcar_snr(row)
        detector = MatchedFilterDetector.for_samples(row.size)
        snrs, widths, offsets = detector.best_per_trial(row[None, :])
        assert widths[0] == scalar_width == 1
        assert offsets[0] == scalar_offset == 10
        assert snrs[0] == scalar_snr


class TestDegenerateBank:
    def test_all_widths_wider_than_plane_raises(self, rng):
        # A bank no width of which fits would silently detect nothing;
        # that is a misconfiguration, not an empty sky.
        narrow = rng.normal(size=(2, 4)).astype(np.float32)
        detector = MatchedFilterDetector(widths=(8, 64))
        with pytest.raises(ValidationError, match="wider"):
            detector.detect(narrow, np.arange(2, dtype=np.float64))

    def test_best_per_trial_raises_too(self, rng):
        narrow = rng.normal(size=(2, 4)).astype(np.float32)
        with pytest.raises(ValidationError, match="wider"):
            MatchedFilterDetector(widths=(64,)).best_per_trial(narrow)

    def test_partial_fit_still_detects(self, rng):
        # Only the bank-wide degenerate case raises; individual
        # too-wide widths are still skipped.
        narrow = rng.normal(size=(2, 4)).astype(np.float32)
        detector = MatchedFilterDetector(snr_threshold=1.0, widths=(2, 64))
        found = detector.detect(narrow, np.arange(2, dtype=np.float64))
        assert all(c.width == 2 for c in found)


def _mixed_parts(rng):
    # 20 000-sample rows give three-row blocks, so 16 rows are six
    # blocks and five workers get one each (the last two).  Each part
    # holds a different corner: NaN, +inf, -inf, zero-MAD, constant.
    plane = rng.normal(size=(16, 20_000)).astype(np.float32)
    plane[0, 500] = np.nan
    plane[4, 9_000] = np.inf
    plane[7, :100] = -np.inf
    plane[10, :15_000] = 0.0
    plane[12:] = 2.5
    plane[14, 7] = 4.0
    return plane


class TestSplitAcrossWorkers:
    """Sharing a slab's blocks among threads changes no bit."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["tall", "mixed"])
    def test_best_per_trial_equals_one_worker(self, rng, kind, workers):
        plane = _tall(rng) if kind == "tall" else _mixed_parts(rng)
        detector = MatchedFilterDetector.for_samples(256)
        step = rows.block_rows(8 * (plane.shape[1] + 1))
        with patch.object(rows, "WORKERS", 1):
            expected = detector.best_per_trial(plane)
        with patch.object(rows, "WORKERS", workers):
            assert len(rows.row_ranges(plane.shape[0], step)) > 1
            got = detector.best_per_trial(plane)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    def test_mixed_plane_corners_land_in_different_parts(self, rng):
        plane = _mixed_parts(rng)
        step = rows.block_rows(8 * (plane.shape[1] + 1))
        with patch.object(rows, "WORKERS", 5):
            ranges = rows.row_ranges(plane.shape[0], step)
        corners = (0, 4, 7, 10, 12)
        owners = [
            next(i for i, (lo, hi) in enumerate(ranges) if lo <= r < hi)
            for r in corners
        ]
        assert owners == [0, 1, 2, 3, 4]


class TestBoundaryValidation:
    """Input the detector would truncate or choke on fails up front."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda p: MatchedFilterDetector(widths=(2.5,)),
                id="init-fractional-width",
            ),
            pytest.param(
                lambda p: MatchedFilterDetector(widths=("4",)),
                id="init-string-width",
            ),
            pytest.param(
                lambda p: MatchedFilterDetector(widths=(True,)),
                id="init-bool-width",
            ),
            pytest.param(
                lambda p: MatchedFilterDetector(snr_threshold=np.inf),
                id="init-infinite-threshold",
            ),
            pytest.param(
                lambda p: MatchedFilterDetector().detect(
                    p.astype(np.complex64), np.arange(6.0)
                ),
                id="detect-complex",
            ),
            pytest.param(
                lambda p: MatchedFilterDetector().detect(
                    p.astype(object), np.arange(6.0)
                ),
                id="detect-object",
            ),
            pytest.param(
                lambda p: MatchedFilterDetector().detect_slabs(
                    (p[:3], p[3:].astype(np.complex128)), np.arange(6.0)
                ),
                id="detect_slabs-complex",
            ),
            pytest.param(
                lambda p: MatchedFilterDetector().best_per_trial(
                    p.astype(np.complex64)
                ),
                id="best_per_trial-complex",
            ),
            pytest.param(
                lambda p: boxcar_snr_plane(p, 2.5), id="plane-fractional-width"
            ),
            pytest.param(
                lambda p: boxcar_snr_plane(p.astype(np.complex64), 2),
                id="plane-complex",
            ),
        ],
    )
    def test_rejected(self, plane, call):
        with pytest.raises(ValidationError):
            call(plane)

    def test_numpy_integers_and_integer_planes_accepted(self, plane):
        detector = MatchedFilterDetector(widths=(np.int64(8), np.int32(2)))
        assert detector.widths == (2, 8)
        assert all(type(w) is int for w in detector.widths)
        counts = np.rint(plane * 10).astype(np.int16)
        found = detector.detect(counts, np.arange(6.0))
        assert max(found, key=lambda c: c.snr).dm_index == 3
        assert boxcar_snr_plane(counts, np.int64(4)).shape == (6, 253)


class TestSlabDetection:
    def test_slabs_bit_identical_to_whole_plane(self, plane):
        detector = MatchedFilterDetector(snr_threshold=3.0)
        dms = np.arange(plane.shape[0], dtype=np.float64)
        whole = detector.detect(plane, dms, time_offset=7, beam=2)
        slabbed = detector.detect_slabs(
            (plane[0:2], plane[2:5], plane[5:6]),
            dms,
            time_offset=7,
            beam=2,
        )
        assert slabbed == whole

    def test_slab_row_count_must_cover_grid(self, plane):
        detector = MatchedFilterDetector()
        dms = np.arange(plane.shape[0], dtype=np.float64)
        with pytest.raises(ValidationError, match="covered"):
            detector.detect_slabs((plane[0:2],), dms)

    def test_empty_grid_without_slabs_detects_nothing(self, plane):
        detector = MatchedFilterDetector()
        no_dms = np.arange(0, dtype=np.float64)
        assert detector.detect(plane[:0], no_dms) == []
        assert detector.detect_slabs((), no_dms) == []

    def test_slabs_must_share_sample_count(self, plane, rng):
        detector = MatchedFilterDetector()
        dms = np.arange(4, dtype=np.float64)
        other = rng.normal(size=(2, 200)).astype(np.float32)
        with pytest.raises(ValidationError, match="200 samples.*256"):
            detector.detect_slabs((plane[0:2], other), dms)

    def test_slab_peak_below_whole_plane_peak(self, plane):
        from repro.run.peak import MemoryAccount

        detector = MatchedFilterDetector()
        dms = np.arange(plane.shape[0], dtype=np.float64)
        whole_account = MemoryAccount()
        detector.detect(plane, dms, account=whole_account)
        slab_account = MemoryAccount()
        detector.detect_slabs(
            (plane[i : i + 1] for i in range(plane.shape[0])),
            dms,
            account=slab_account,
        )
        assert slab_account.peak_bytes < whole_account.peak_bytes
