"""Unit tests for repro.astro.filterbank (SIGPROC .fil I/O)."""

import numpy as np
import pytest

from repro.astro.filterbank import (
    read_filterbank,
    write_filterbank,
)
from repro.errors import ValidationError
from tests.conftest import best_trial, make_observation


@pytest.fixture
def observation(toy_low, rng):
    return rng.normal(size=(toy_low.channels, 600)).astype(np.float32)


class TestRoundtrip:
    def test_float32_bit_exact(self, toy_low, observation, tmp_path):
        path = tmp_path / "obs.fil"
        write_filterbank(path, observation, toy_low, nbits=32)
        header, data = read_filterbank(path)
        assert header.nchans == toy_low.channels
        assert header.nbits == 32
        np.testing.assert_array_equal(data, observation)

    def test_8bit_lossy_but_close(self, toy_low, observation, tmp_path):
        path = tmp_path / "obs8.fil"
        write_filterbank(path, observation, toy_low, nbits=8)
        header, data = read_filterbank(path)
        assert header.nbits == 8
        # Raw uint8 codes come back; the *structure* (correlation with the
        # original after affine rescale) must be preserved.
        corr = np.corrcoef(data.ravel(), observation.ravel())[0, 1]
        assert corr > 0.99

    def test_header_fields(self, toy_low, observation, tmp_path):
        path = tmp_path / "obs.fil"
        written = write_filterbank(
            path, observation, toy_low, source_name="J0000+00",
            tstart_mjd=58000.5,
        )
        header, _ = read_filterbank(path)
        assert header.source_name == "J0000+00"
        assert header.tstart_mjd == pytest.approx(58000.5)
        assert header.tsamp_s == pytest.approx(1.0 / toy_low.samples_per_second)
        assert header.nsamples == 600
        assert written.fch1_mhz == pytest.approx(
            float(toy_low.channel_frequencies[-1])
        )
        assert header.foff_mhz < 0  # SIGPROC: highest frequency first


class TestSetupReconstruction:
    def test_to_setup_matches_original(self, toy_low, observation, tmp_path):
        path = tmp_path / "obs.fil"
        write_filterbank(path, observation, toy_low)
        header, _ = read_filterbank(path)
        setup = header.to_setup()
        assert setup.channels == toy_low.channels
        assert setup.samples_per_second == toy_low.samples_per_second
        assert setup.lowest_frequency == pytest.approx(
            toy_low.lowest_frequency, abs=0.01
        )
        assert setup.channel_bandwidth == pytest.approx(
            toy_low.channel_bandwidth, abs=1e-9
        )

    def test_channel_frequencies_roundtrip(self, toy_low, observation, tmp_path):
        path = tmp_path / "obs.fil"
        write_filterbank(path, observation, toy_low)
        header, _ = read_filterbank(path)
        rebuilt = header.to_setup().channel_frequencies
        np.testing.assert_allclose(
            rebuilt, toy_low.channel_frequencies, atol=1e-6
        )


class TestPipelineIntegration:
    def test_dedisperse_from_file(self, toy_low, tmp_path):
        # Export a synthetic pulsar observation, read it back, rebuild the
        # setup from the header alone, dedisperse, detect.
        from repro.astro.dm_trials import DMTrialGrid
        from repro.astro.signal_gen import SyntheticPulsar
        from repro.baselines.cpu_reference import dedisperse_vectorized

        grid = DMTrialGrid(16, step=1.0)
        data = make_observation(
            toy_low,
            [SyntheticPulsar(0.25, dm=7.0, amplitude=1.5)],
            max_dm=grid.last,
            seed=2,
        )
        path = tmp_path / "pulsar.fil"
        write_filterbank(path, data, toy_low)

        header, loaded = read_filterbank(path)
        setup = header.to_setup()
        out = dedisperse_vectorized(loaded, setup, grid, 400)
        detection = best_trial(out, grid.values)
        assert abs(detection.dm - 7.0) <= 1.0


class TestValidation:
    def test_rejects_wrong_shape(self, toy_low, tmp_path):
        with pytest.raises(ValidationError):
            write_filterbank(
                tmp_path / "x.fil",
                np.zeros((3, 10), dtype=np.float32),
                toy_low,
            )

    def test_rejects_bad_nbits(self, toy_low, observation, tmp_path):
        with pytest.raises(ValidationError):
            write_filterbank(tmp_path / "x.fil", observation, toy_low, nbits=16)

    def test_rejects_non_filterbank(self, tmp_path):
        path = tmp_path / "junk.fil"
        path.write_bytes(b"\x07\x00\x00\x00NOTAFIL" + b"\x00" * 32)
        with pytest.raises(ValidationError):
            read_filterbank(path)

    def test_rejects_truncated_payload(self, toy_low, observation, tmp_path):
        path = tmp_path / "trunc.fil"
        write_filterbank(path, observation, toy_low)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])  # break the sample alignment
        with pytest.raises(ValidationError, match="multiple"):
            read_filterbank(path)
