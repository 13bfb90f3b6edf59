"""The unified seeded signal-generation API: :class:`SignalSource`.

Every injector in :mod:`repro.astro` sits behind one contract::

    data, truth = source.generate(setup, n_samples, streams)

* every source draws randomness **only** from named
  :class:`~repro.utils.rng.RandomStreams` children, so a fixed
  ``(seed, setup, n_samples)`` triple is byte-deterministic;
* every source returns a :class:`SignalTruth` describing each injected
  component (kind, DM, amplitude, event positions) — the machine-checkable
  ground truth the :mod:`repro.scenarios` matrix scores against;
* sources compose: :class:`CompositeSource` sums any number of children
  into one observation and merges their truths;
* :func:`stream_chunks` cuts one source-generated observation into the
  overlapped :class:`StreamChunk` objects that every pipeline consumes.

The injection physics lives in the private bodies of
:mod:`repro.astro.signal_gen` and :mod:`repro.astro.rfi`, which the
sources wrap.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.astro.dispersion import delay_table, max_delay_samples
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.astro.signal_gen import SyntheticPulsar, _inject_pulse
from repro.astro.rfi import _inject_broadband_rfi, _inject_narrowband_rfi
from repro.errors import ValidationError
from repro.utils.rng import RandomStreams
from repro.utils.validation import (
    require_non_negative,
    require_positive,
    require_positive_int,
)


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SignalComponent:
    """One injected ingredient of an observation, machine-checkable.

    ``kind`` names the component class (``noise``, ``pulsar``, ``burst``,
    ``burst_train``, ``rfi_broadband``, ``rfi_narrowband``); the optional
    fields record whatever that kind pins down — the true DM and
    amplitude of an astrophysical signal, the reference-frame sample
    positions of impulsive events, the carrier channels of narrowband
    RFI.
    """

    kind: str
    dm: float | None = None
    amplitude: float | None = None
    period_seconds: float | None = None
    time_samples: tuple[int, ...] = ()
    channels: tuple[int, ...] = ()
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-ready representation (``None`` fields omitted)."""
        doc: dict = {"kind": self.kind}
        if self.dm is not None:
            doc["dm"] = float(self.dm)
        if self.amplitude is not None:
            doc["amplitude"] = float(self.amplitude)
        if self.period_seconds is not None:
            doc["period_seconds"] = float(self.period_seconds)
        if self.time_samples:
            doc["time_samples"] = [int(t) for t in self.time_samples]
        if self.channels:
            doc["channels"] = [int(c) for c in self.channels]
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass(frozen=True)
class SignalTruth:
    """Everything a :class:`SignalSource` injected, component by component."""

    components: tuple[SignalComponent, ...] = ()

    def merge(self, other: "SignalTruth") -> "SignalTruth":
        """Union of two truths (composition order preserved)."""
        return SignalTruth(components=self.components + other.components)

    @property
    def dms(self) -> tuple[float, ...]:
        """True DMs of the dispersed components, in composition order."""
        return tuple(
            c.dm for c in self.components
            if c.dm is not None and c.kind not in ("noise",)
        )

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {"components": [c.as_dict() for c in self.components]}


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class SignalSource(abc.ABC):
    """One seeded producer of channelised signal plus its ground truth.

    Subclasses implement :meth:`add_to` (inject into an existing matrix,
    returning the truth); :meth:`generate` is the blessed entrypoint that
    allocates a zeroed ``(channels, n_samples)`` float32 matrix and
    delegates.  All randomness must come from named children of the
    supplied :class:`~repro.utils.rng.RandomStreams` — never module-level
    generators — so generation is byte-deterministic and
    order-independent across compositions.
    """

    def generate(
        self,
        setup: ObservationSetup,
        n_samples: int,
        streams: RandomStreams,
    ) -> tuple[np.ndarray, SignalTruth]:
        """Produce ``(data, truth)`` for ``n_samples`` of ``setup`` data."""
        require_positive_int(n_samples, "n_samples")
        data = np.zeros((setup.channels, n_samples), dtype=np.float32)
        truth = self.add_to(data, setup, streams)
        return data, truth

    @abc.abstractmethod
    def add_to(
        self,
        data: np.ndarray,
        setup: ObservationSetup,
        streams: RandomStreams,
    ) -> SignalTruth:
        """Inject this source into ``data`` in place; returns its truth."""


# ----------------------------------------------------------------------
# Concrete sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NoiseSource(SignalSource):
    """Gaussian radiometer noise, drawn from the ``source.<stream>`` child."""

    sigma: float = 1.0
    stream: str = "noise"

    def __post_init__(self) -> None:
        require_non_negative(self.sigma, "sigma")

    def add_to(self, data, setup, streams) -> SignalTruth:
        if self.sigma > 0:
            rng = streams.numpy(f"source.{self.stream}")
            data += rng.normal(
                0.0, self.sigma, size=data.shape
            ).astype(np.float32)
        return SignalTruth(
            (SignalComponent(kind="noise", amplitude=self.sigma),)
        )


@dataclass(frozen=True)
class PulsarSource(SignalSource):
    """A periodic dispersed pulsar (wraps the classic injection physics)."""

    pulsar: SyntheticPulsar
    smear: bool = True

    def add_to(self, data, setup, streams) -> SignalTruth:
        _inject_pulse(data, setup, self.pulsar, smear=self.smear)
        return SignalTruth((
            SignalComponent(
                kind="pulsar",
                dm=self.pulsar.dm,
                amplitude=self.pulsar.amplitude,
                period_seconds=self.pulsar.period_seconds,
            ),
        ))


def _dispersed_burst(
    data: np.ndarray,
    shifts: np.ndarray,
    t0: float,
    width_samples: float,
    amplitude: float,
) -> None:
    """Add one dispersed Gaussian burst (reference-frame time ``t0``)."""
    t = np.arange(data.shape[1], dtype=np.float64)
    d = t[None, :] - (t0 + shifts[:, None])
    data += (
        amplitude * np.exp(-0.5 * (d / width_samples) ** 2)
    ).astype(np.float32)


@dataclass(frozen=True)
class BurstSource(SignalSource):
    """One dispersed Gaussian burst (an FRB-like single event).

    The burst peaks at ``time_seconds`` in the highest-frequency
    (reference) channel and arrives later in lower channels according to
    the cold-plasma delay of its ``dm`` — exactly the integer delay
    table the kernel undoes, so dedispersion at the matching trial
    realigns it sample-exactly.
    """

    dm: float
    time_seconds: float
    width_seconds: float
    amplitude: float = 2.0

    def __post_init__(self) -> None:
        require_non_negative(self.dm, "dm")
        require_non_negative(self.time_seconds, "time_seconds")
        require_positive(self.width_seconds, "width_seconds")
        require_positive(self.amplitude, "amplitude")

    def add_to(self, data, setup, streams) -> SignalTruth:
        shifts = delay_table(setup, np.asarray([self.dm]))[0]
        t0 = self.time_seconds * setup.samples_per_second
        width = max(self.width_seconds * setup.samples_per_second, 0.5)
        _dispersed_burst(data, shifts, t0, width, self.amplitude)
        return SignalTruth((
            SignalComponent(
                kind="burst",
                dm=self.dm,
                amplitude=self.amplitude,
                time_samples=(int(round(t0)),),
            ),
        ))


@dataclass(frozen=True)
class BurstTrainSource(SignalSource):
    """A train of dispersed bursts with per-pulse amplitude modulation.

    This is the single-pulse view of a pulsar: one burst per rotation,
    each independently modulated.  Three knobs cover the classic
    phenomenology:

    * ``modulation_depth`` — scintillation: per-pulse amplitude factor
      drawn uniformly from ``[1 - depth, 1 + depth]``;
    * ``null_probability`` — nulling: a pulse vanishes entirely with
      this probability (pulse 0 is always emitted so the train is never
      empty);
    * ``giant_probability`` / ``giant_factor`` — giant pulses: with this
      probability a pulse is boosted by ``giant_factor`` (the
      Crab-pulsar regime where the *mean* pulse is undetectable and only
      giants cross the threshold).

    Per-pulse draws use order-independent coordinates
    (``streams.uniform(...)``), so adding unrelated draws elsewhere
    never moves a pulse's fate.
    """

    dm: float
    period_seconds: float
    width_seconds: float
    amplitude: float = 2.0
    start_seconds: float = 0.25
    modulation_depth: float = 0.0
    null_probability: float = 0.0
    giant_probability: float = 0.0
    giant_factor: float = 5.0
    stream: str = "bursts"

    def __post_init__(self) -> None:
        require_non_negative(self.dm, "dm")
        require_positive(self.period_seconds, "period_seconds")
        require_positive(self.width_seconds, "width_seconds")
        require_positive(self.amplitude, "amplitude")
        require_non_negative(self.start_seconds, "start_seconds")
        if not 0.0 <= self.modulation_depth <= 1.0:
            raise ValidationError("modulation_depth must be in [0, 1]")
        if not 0.0 <= self.null_probability < 1.0:
            raise ValidationError("null_probability must be in [0, 1)")
        if not 0.0 <= self.giant_probability <= 1.0:
            raise ValidationError("giant_probability must be in [0, 1]")
        require_positive(self.giant_factor, "giant_factor")

    def add_to(self, data, setup, streams) -> SignalTruth:
        shifts = delay_table(setup, np.asarray([self.dm]))[0]
        sps = setup.samples_per_second
        width = max(self.width_seconds * sps, 0.5)
        period_samples = self.period_seconds * sps
        emitted: list[int] = []
        t0 = self.start_seconds * sps
        k = 0
        while t0 < data.shape[1]:
            nulled = (
                k > 0
                and self.null_probability > 0.0
                and streams.uniform("source", self.stream, "null", k)
                < self.null_probability
            )
            if not nulled:
                amp = self.amplitude
                if self.modulation_depth > 0.0:
                    u = streams.uniform("source", self.stream, "scint", k)
                    amp *= 1.0 - self.modulation_depth + 2.0 * self.modulation_depth * u
                if (
                    self.giant_probability > 0.0
                    and streams.uniform("source", self.stream, "giant", k)
                    < self.giant_probability
                ):
                    amp *= self.giant_factor
                _dispersed_burst(data, shifts, t0, width, amp)
                emitted.append(int(round(t0)))
            t0 += period_samples
            k += 1
        return SignalTruth((
            SignalComponent(
                kind="burst_train",
                dm=self.dm,
                amplitude=self.amplitude,
                period_seconds=self.period_seconds,
                time_samples=tuple(emitted),
            ),
        ))


@dataclass(frozen=True)
class BroadbandRFISource(SignalSource):
    """Impulsive undispersed RFI at seeded random sample positions."""

    n_events: int = 4
    amplitude: float = 6.0
    width: int = 2
    stream: str = "rfi_broadband"

    def __post_init__(self) -> None:
        require_positive_int(self.n_events, "n_events")
        require_positive(self.amplitude, "amplitude")
        require_positive_int(self.width, "width")

    def add_to(self, data, setup, streams) -> SignalTruth:
        rng = streams.numpy(f"source.{self.stream}")
        span = max(data.shape[1] - self.width, 1)
        positions = np.unique(rng.integers(0, span, size=self.n_events))
        _inject_broadband_rfi(
            data, positions, amplitude=self.amplitude, width=self.width
        )
        return SignalTruth((
            SignalComponent(
                kind="rfi_broadband",
                dm=0.0,
                amplitude=self.amplitude,
                time_samples=tuple(int(p) for p in positions),
            ),
        ))


@dataclass(frozen=True)
class NarrowbandRFISource(SignalSource):
    """Persistent noisy carriers in seeded random channels."""

    n_channels: int = 2
    amplitude: float = 4.0
    stream: str = "rfi_narrowband"

    def __post_init__(self) -> None:
        require_positive_int(self.n_channels, "n_channels")
        require_positive(self.amplitude, "amplitude")

    def add_to(self, data, setup, streams) -> SignalTruth:
        rng = streams.numpy(f"source.{self.stream}")
        n = min(self.n_channels, setup.channels)
        channels = np.sort(
            rng.choice(setup.channels, size=n, replace=False)
        )
        _inject_narrowband_rfi(
            data, channels, amplitude=self.amplitude, rng=rng
        )
        return SignalTruth((
            SignalComponent(
                kind="rfi_narrowband",
                amplitude=self.amplitude,
                channels=tuple(int(c) for c in channels),
            ),
        ))


@dataclass(frozen=True)
class ScaledSource(SignalSource):
    """A child source attenuated by a constant factor.

    The multi-beam realization of :mod:`repro.survey` uses this for beam
    response: the same astrophysical source — same seeded draws, same
    event times — appears in adjacent beams at reduced amplitude.  The
    child is generated into a scratch buffer and added scaled, so its
    stream draws are identical to the unscaled source's; the reported
    truth carries the *scaled* amplitudes.
    """

    source: SignalSource
    factor: float = 1.0

    def __post_init__(self) -> None:
        require_positive(self.factor, "factor")

    def add_to(self, data, setup, streams) -> SignalTruth:
        buffer = np.zeros_like(data)
        truth = self.source.add_to(buffer, setup, streams)
        data += np.float32(self.factor) * buffer
        return SignalTruth(tuple(
            component
            if component.amplitude is None
            else SignalComponent(
                kind=component.kind,
                dm=component.dm,
                amplitude=component.amplitude * self.factor,
                period_seconds=component.period_seconds,
                time_samples=component.time_samples,
                channels=component.channels,
                detail=component.detail,
            )
            for component in truth.components
        ))


@dataclass(frozen=True)
class CompositeSource(SignalSource):
    """The sum of child sources; truths merge in composition order."""

    sources: tuple[SignalSource, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.sources:
            raise ValidationError("a CompositeSource needs at least one child")

    def add_to(self, data, setup, streams) -> SignalTruth:
        truth = SignalTruth()
        for child in self.sources:
            truth = truth.merge(child.add_to(data, setup, streams))
        return truth


# ----------------------------------------------------------------------
# Chunked streaming on top of a source
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamChunk:
    """One second-scale block of channelised data from one beam.

    ``data`` has shape ``(channels, samples + overlap)``: the trailing
    ``overlap`` samples duplicate the head of the next chunk so that the
    final output samples of this chunk can be dedispersed at the highest
    trial DM without waiting for future data.
    """

    beam_index: int
    sequence: int
    data: np.ndarray
    samples: int
    overlap: int

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValidationError("chunk data must be 2-D (channels, time)")
        if self.data.shape[1] != self.samples + self.overlap:
            raise ValidationError(
                f"chunk time dimension {self.data.shape[1]} != "
                f"samples {self.samples} + overlap {self.overlap}"
            )


def stream_chunks(
    source: SignalSource,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    n_chunks: int,
    streams: RandomStreams,
    chunk_samples: int | None = None,
    beam_index: int = 0,
) -> tuple[tuple[StreamChunk, ...], SignalTruth]:
    """Cut one long source-generated observation into overlapped chunks.

    A single contiguous observation (``n_chunks * chunk_samples`` output
    samples plus the maximum dispersion delay at ``grid.last``) is
    generated once and sliced, so signals spanning chunk boundaries are
    reproduced consistently and the overlap region lets every chunk be
    dedispersed at the highest trial DM without future data.
    """
    require_positive_int(n_chunks, "n_chunks")
    samples = (
        setup.samples_per_batch if chunk_samples is None else chunk_samples
    )
    require_positive_int(samples, "chunk_samples")
    overlap = max_delay_samples(setup, grid.last)
    total = n_chunks * samples + overlap
    data, truth = source.generate(setup, total, streams)
    chunks = tuple(
        StreamChunk(
            beam_index=beam_index,
            sequence=i,
            data=data[:, i * samples:(i + 1) * samples + overlap],
            samples=samples,
            overlap=overlap,
        )
        for i in range(n_chunks)
    )
    return chunks, truth


__all__ = [
    "SignalComponent",
    "SignalTruth",
    "SignalSource",
    "NoiseSource",
    "PulsarSource",
    "BurstSource",
    "BurstTrainSource",
    "BroadbandRFISource",
    "NarrowbandRFISource",
    "ScaledSource",
    "CompositeSource",
    "StreamChunk",
    "stream_chunks",
]
