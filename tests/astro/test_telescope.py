"""Unit tests for repro.astro.telescope."""

import numpy as np
import pytest

from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.telescope import Beam, StreamChunk, Telescope
from repro.errors import ValidationError


class TestBeam:
    def test_default_label(self):
        assert Beam(index=7).label == "beam-007"

    def test_custom_label(self):
        assert Beam(index=0, label="B0329+54").label == "B0329+54"

    def test_rejects_negative_index(self):
        with pytest.raises(ValidationError):
            Beam(index=-1)


class TestStreamChunk:
    def test_shape_enforced(self):
        with pytest.raises(ValidationError):
            StreamChunk(
                beam_index=0,
                sequence=0,
                data=np.zeros((4, 100), dtype=np.float32),
                samples=90,
                overlap=20,  # 90 + 20 != 100
            )


class TestTelescope:
    def test_add_beam_assigns_indices(self, toy_low):
        scope = Telescope(setup=toy_low)
        b0 = scope.add_beam()
        b1 = scope.add_beam()
        assert (b0.index, b1.index) == (0, 1)

    def test_overlap_matches_max_delay(self, toy_low, toy_grid):
        from repro.astro.dispersion import max_delay_samples

        scope = Telescope(setup=toy_low)
        assert scope.overlap_samples(toy_grid) == max_delay_samples(
            toy_low, toy_grid.last
        )

    def test_stream_chunk_geometry(self, toy_low, toy_grid):
        scope = Telescope(setup=toy_low)
        beam = scope.add_beam()
        chunks = list(scope.stream(beam, 3, toy_grid))
        assert len(chunks) == 3
        overlap = scope.overlap_samples(toy_grid)
        for i, chunk in enumerate(chunks):
            assert chunk.sequence == i
            assert chunk.samples == toy_low.samples_per_second
            assert chunk.overlap == overlap
            assert chunk.data.shape == (
                toy_low.channels,
                chunk.samples + overlap,
            )

    def test_consecutive_chunks_overlap_consistently(self, toy_low, toy_grid):
        # The head of chunk i+1 must equal the tail overlap of chunk i:
        # both are cut from the same underlying observation.
        scope = Telescope(setup=toy_low)
        beam = scope.add_beam()
        c0, c1 = list(scope.stream(beam, 2, toy_grid))
        overlap = c0.overlap
        assert np.array_equal(
            c0.data[:, c0.samples : c0.samples + overlap],
            c1.data[:, :overlap],
        )

    def test_beams_get_independent_noise(self, toy_low, toy_grid):
        scope = Telescope(setup=toy_low)
        b0, b1 = scope.add_beam(), scope.add_beam()
        c0 = next(iter(scope.stream(b0, 1, toy_grid)))
        c1 = next(iter(scope.stream(b1, 1, toy_grid)))
        assert not np.array_equal(c0.data, c1.data)

    def test_beam_pulsar_visible(self, toy_low, toy_grid):
        scope = Telescope(setup=toy_low, noise_sigma=0.0)
        beam = scope.add_beam(
            pulsars=(SyntheticPulsar(period_seconds=0.2, dm=1.0),)
        )
        chunk = next(iter(scope.stream(beam, 1, toy_grid)))
        assert chunk.data.max() > 0.5

    def test_rejects_zero_chunks(self, toy_low, toy_grid):
        scope = Telescope(setup=toy_low)
        beam = scope.add_beam()
        with pytest.raises(ValidationError):
            list(scope.stream(beam, 0, toy_grid))
