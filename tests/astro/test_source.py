"""The unified SignalSource API."""

import numpy as np
import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.source import (
    BroadbandRFISource,
    BurstSource,
    BurstTrainSource,
    CompositeSource,
    NarrowbandRFISource,
    NoiseSource,
    PulsarSource,
    SignalTruth,
    stream_chunks,
)
from repro.errors import ValidationError
from repro.utils.rng import RandomStreams

SETUP = ObservationSetup(
    name="source-test",
    channels=8,
    lowest_frequency=140.0,
    channel_bandwidth=0.2,
    samples_per_second=200,
    samples_per_batch=200,
)
GRID = DMTrialGrid(n_dms=8, first=1.0, step=1.0)


def _generate(source, n_samples=400, seed=0):
    return source.generate(SETUP, n_samples, RandomStreams(seed))


class TestNoiseSource:
    def test_shape_dtype_and_determinism(self):
        a, truth = _generate(NoiseSource(sigma=1.0))
        b, _ = _generate(NoiseSource(sigma=1.0))
        assert a.shape == (SETUP.channels, 400)
        assert a.dtype == np.float32
        assert np.array_equal(a, b)
        assert truth.components[0].kind == "noise"

    def test_zero_sigma_is_silent(self):
        data, _ = _generate(NoiseSource(sigma=0.0))
        assert not data.any()

    def test_named_stream_decouples_sources(self):
        a, _ = _generate(NoiseSource(stream="a"))
        b, _ = _generate(NoiseSource(stream="b"))
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            NoiseSource(sigma=-1.0)


class TestBurstSource:
    def test_truth_records_event_time(self):
        source = BurstSource(
            dm=4.0, time_seconds=1.0, width_seconds=0.01
        )
        data, truth = _generate(source)
        component = truth.components[0]
        assert component.kind == "burst"
        assert component.dm == 4.0
        assert component.time_samples == (200,)
        # The reference (highest-frequency, last) channel peaks at t0;
        # lower channels peak later per the cold-plasma delay.
        assert abs(int(np.argmax(data[-1])) - 200) <= 1
        assert int(np.argmax(data[0])) > int(np.argmax(data[-1]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            BurstSource(dm=1.0, time_seconds=0.5, width_seconds=0.0)


class TestBurstTrainSource:
    def _train(self, **kwargs):
        defaults = dict(
            dm=4.0, period_seconds=0.5, width_seconds=0.01, amplitude=2.0
        )
        defaults.update(kwargs)
        return BurstTrainSource(**defaults)

    def test_steady_train_emits_every_period(self):
        _, truth = _generate(self._train())
        emitted = truth.components[0].time_samples
        assert len(emitted) == 4  # start 0.25s, period 0.5s, 2s span
        assert np.all(np.diff(emitted) == 100)

    def test_nulling_spares_pulse_zero(self):
        for seed in range(10):
            _, truth = _generate(
                self._train(null_probability=0.9, stream="n"), seed=seed
            )
            emitted = truth.components[0].time_samples
            assert emitted and emitted[0] == 50

    def test_nulling_removes_pulses(self):
        _, steady = _generate(self._train())
        _, nulled = _generate(self._train(null_probability=0.5))
        assert len(nulled.components[0].time_samples) < len(
            steady.components[0].time_samples
        )

    def test_scintillation_preserves_positions(self):
        a, steady = _generate(self._train())
        b, scint = _generate(self._train(modulation_depth=0.8))
        assert (
            steady.components[0].time_samples
            == scint.components[0].time_samples
        )
        assert not np.array_equal(a, b)

    def test_giant_pulses_boost_amplitude(self):
        quiet, _ = _generate(self._train(amplitude=0.5))
        giants, _ = _generate(
            self._train(
                amplitude=0.5, giant_probability=1.0, giant_factor=6.0
            )
        )
        assert giants.max() > 4 * quiet.max()

    def test_draws_are_order_independent(self):
        # Burying the train inside a composite with extra stochastic
        # children must not move any pulse's null/scint/giant fate.
        train = self._train(null_probability=0.5, stream="fate")
        _, alone = _generate(CompositeSource((train,)))
        _, buried = _generate(
            CompositeSource((NoiseSource(sigma=1.0), train))
        )
        assert (
            alone.of_kind("burst_train")[0].time_samples
            == buried.of_kind("burst_train")[0].time_samples
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            self._train(modulation_depth=1.5)
        with pytest.raises(ValidationError):
            self._train(null_probability=1.0)


class TestRFISources:
    def test_broadband_truth_lists_positions(self):
        data, truth = _generate(BroadbandRFISource(n_events=4))
        component = truth.components[0]
        assert component.kind == "rfi_broadband"
        assert component.dm == 0.0
        for position in component.time_samples:
            assert data[:, position].min() > 0

    def test_narrowband_truth_lists_channels(self):
        data, truth = _generate(NarrowbandRFISource(n_channels=2))
        component = truth.components[0]
        assert component.kind == "rfi_narrowband"
        assert len(component.channels) == 2
        quiet = [
            c for c in range(SETUP.channels)
            if c not in component.channels
        ]
        assert np.abs(data[quiet]).max() == 0


class TestCompositeSource:
    def test_sums_children_and_merges_truth(self):
        noise = NoiseSource(sigma=1.0)
        pulsar = PulsarSource(
            SyntheticPulsar(period_seconds=0.5, dm=4.0, amplitude=2.0)
        )
        alone_n, _ = _generate(noise)
        alone_p, _ = _generate(pulsar)
        combined, truth = _generate(CompositeSource((noise, pulsar)))
        assert np.allclose(combined, alone_n + alone_p, atol=1e-6)
        assert [c.kind for c in truth.components] == ["noise", "pulsar"]
        assert truth.dms == (4.0,)

    def test_needs_children(self):
        with pytest.raises(ValidationError):
            CompositeSource(())


class TestSignalTruth:
    def test_merge_and_queries(self):
        _, truth = _generate(
            CompositeSource((
                NoiseSource(),
                BurstSource(dm=3.0, time_seconds=1.0, width_seconds=0.01),
            ))
        )
        assert isinstance(truth, SignalTruth)
        assert truth.of_kind("burst")[0].dm == 3.0
        assert truth.dms == (3.0,)

    def test_as_dict_omits_none(self):
        _, truth = _generate(NoiseSource())
        doc = truth.as_dict()["components"][0]
        assert "dm" not in doc and doc["kind"] == "noise"


class TestStreamChunks:
    def test_chunks_tile_one_observation(self):
        source = NoiseSource(sigma=1.0)
        chunks, _ = stream_chunks(
            source, SETUP, GRID, 3, RandomStreams(0)
        )
        assert [c.sequence for c in chunks] == [0, 1, 2]
        samples = SETUP.samples_per_batch
        overlap = chunks[0].overlap
        assert chunks[0].data.shape == (SETUP.channels, samples + overlap)
        # Consecutive chunks share the overlap region.
        assert np.array_equal(
            chunks[0].data[:, samples:samples + 1],
            chunks[1].data[:, 0:1],
        )

    def test_burst_spanning_boundary_is_consistent(self):
        source = CompositeSource((
            NoiseSource(sigma=0.0),
            BurstSource(dm=4.0, time_seconds=1.0, width_seconds=0.01),
        ))
        chunks, _ = stream_chunks(
            source, SETUP, GRID, 2, RandomStreams(0)
        )
        stitched = np.concatenate(
            [c.data[:, :c.samples] for c in chunks], axis=1
        )
        whole, _ = source.generate(
            SETUP,
            stitched.shape[1] + chunks[0].overlap,
            RandomStreams(0),
        )
        assert np.array_equal(stitched, whole[:, :stitched.shape[1]])


class TestPulsarSource:
    def test_equals_injection_body(self):
        # PulsarSource wraps the classic injection physics byte for byte.
        from repro.astro.signal_gen import _inject_pulse

        pulsar = SyntheticPulsar(
            period_seconds=0.5, dm=4.0, amplitude=2.0
        )
        direct = np.zeros((SETUP.channels, 400), dtype=np.float32)
        _inject_pulse(direct, SETUP, pulsar)
        data, _ = _generate(
            CompositeSource((NoiseSource(sigma=0.0), PulsarSource(pulsar)))
        )
        assert np.array_equal(data, direct)
