"""The scenario catalogue: seeded hostile-input generators with truth.

Each :class:`Scenario` composes :mod:`repro.astro.source` generators
under :class:`~repro.utils.rng.RandomStreams` and, when realized against
a concrete (setup, grid) pair, yields overlapped
:class:`~repro.astro.source.StreamChunk` data plus a
:class:`~repro.scenarios.truth.GroundTruth`.  Realization is
byte-deterministic: the stream seed is derived from
``(seed, "scenario", name, setup.name)``, so the same cell always
produces the same bytes — the property the golden regression harness
(:mod:`repro.scenarios.regression`) and its hypothesis tests rely on.

The catalogue covers the hostile-input envelope of a real deployment
(Sclocco et al. 2016): a clean control pulse, an RFI storm under
mitigation, scintillating / nulling / giant-pulse emission, a DM-smeared
wideband burst, input-stream faults (dropped + duplicated chunks, reusing
:class:`~repro.sched.faults.FaultProfile`), a pure noise floor, and a
hostile tuning configuration that drives the bounded queue into
deterministic backpressure.

Scenario sifting policy
-----------------------
Scenarios cluster with ``dm_radius`` spanning the whole trial grid and
the broadband veto disabled (``broadband_veto_fraction=1.0``): a bright
dispersed pulse is legitimately detected across a wide cone of trials,
and time-coincidence clustering folds that cone into one candidate per
physical event.  RFI rejection comes from upstream mitigation (channel
masking + zero-DM filter) and the zero-DM veto, which scenarios keep on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.astro.pulse import gaussian_profile
from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.source import (
    BroadbandRFISource,
    BurstSource,
    BurstTrainSource,
    CompositeSource,
    NarrowbandRFISource,
    NoiseSource,
    PulsarSource,
    SignalSource,
    SignalTruth,
    StreamChunk,
    stream_chunks,
)
from repro.errors import ValidationError
from repro.scenarios.truth import ExpectedCandidate, GroundTruth
from repro.search.sift import SiftPolicy
from repro.search.stream import SearchConfig
from repro.sched.faults import FaultProfile
from repro.utils.rng import RandomStreams, derive_seed

#: Component kinds that owe the search a recoverable candidate.
_SIGNAL_KINDS = ("pulsar", "burst", "burst_train")


@dataclass(frozen=True)
class RealizedScenario:
    """One scenario rendered against a concrete (setup, grid) pair."""

    name: str
    setup: ObservationSetup
    grid: DMTrialGrid
    seed: int
    chunks: tuple[StreamChunk, ...]
    truth: GroundTruth
    signal_truth: SignalTruth
    search_config: SearchConfig

    @property
    def n_chunks(self) -> int:
        """Chunks actually delivered (after input-stream faults)."""
        return len(self.chunks)


@dataclass(frozen=True)
class Scenario:
    """A named, seeded scenario generator.

    ``build`` maps ``(setup, grid, streams)`` to the
    :class:`~repro.astro.source.SignalSource` the scenario observes;
    the expected candidates are derived automatically from the source's
    :class:`~repro.astro.source.SignalTruth` (every dispersed component
    becomes one :class:`~repro.scenarios.truth.ExpectedCandidate` at its
    grid trial).  ``faults`` injects input-stream chunk faults the way
    :mod:`repro.sched` injects shard faults: ``crashes`` chunks are
    dropped from the stream, ``stragglers`` chunks are delivered twice
    (a re-sent network packet), never sequence 0 and drawn from the
    scenario's own seeded stream.
    """

    name: str
    description: str
    build: Callable[
        [ObservationSetup, DMTrialGrid, RandomStreams], SignalSource
    ]
    n_chunks: int = 4
    seed: int = 0
    rfi_mitigation: bool = False
    queue_capacity: int = 4
    service_floor_cadences: float = 0.0
    faults: FaultProfile = FaultProfile.none()
    expect_empty: bool = False
    expected_verdict: str | None = None
    trial_tolerance: int = 2
    min_snr: float = 6.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("a scenario needs a name")
        if self.n_chunks < 1:
            raise ValidationError("n_chunks must be >= 1")

    # ------------------------------------------------------------------
    def sift_policy(self, grid: DMTrialGrid) -> SiftPolicy:
        """The scenario clustering policy (module docstring rationale)."""
        return SiftPolicy(
            dm_radius=float(grid.last - grid.first),
            time_slack=16,
            zero_dm_veto=True,
            broadband_veto_fraction=1.0,
        )

    def search_config(
        self, setup: ObservationSetup, grid: DMTrialGrid
    ) -> SearchConfig:
        """The :class:`~repro.search.stream.SearchConfig` of this scenario."""
        chunk_seconds = setup.samples_per_batch / setup.samples_per_second
        return SearchConfig(
            sift_policy=self.sift_policy(grid),
            rfi_mitigation=self.rfi_mitigation,
            queue_capacity=self.queue_capacity,
            min_service_seconds=self.service_floor_cadences * chunk_seconds,
        )

    # ------------------------------------------------------------------
    def realize(
        self,
        setup: ObservationSetup,
        grid: DMTrialGrid,
        seed: int | None = None,
    ) -> RealizedScenario:
        """Render data + truth for one (setup, grid) cell."""
        root = self.seed if seed is None else seed
        streams = RandomStreams(
            derive_seed(root, "scenario", self.name, setup.name)
        )
        source = self.build(setup, grid, streams.spawn("build"))
        chunks, signal_truth = stream_chunks(
            source, setup, grid, self.n_chunks, streams.spawn("signal")
        )
        chunks, missing, duplicates = _apply_chunk_faults(
            chunks, self.faults, streams.spawn("faults")
        )
        truth = GroundTruth(
            expected=self._expected(grid, signal_truth),
            expect_empty=self.expect_empty,
            expected_verdict=self.expected_verdict,
        ).with_faults(missing, duplicates)
        return RealizedScenario(
            name=self.name,
            setup=setup,
            grid=grid,
            seed=root,
            chunks=chunks,
            truth=truth,
            signal_truth=signal_truth,
            search_config=self.search_config(setup, grid),
        )

    def _expected(
        self, grid: DMTrialGrid, signal_truth: SignalTruth
    ) -> tuple[ExpectedCandidate, ...]:
        if self.expect_empty:
            return ()
        return tuple(
            ExpectedCandidate(
                dm=component.dm,
                trial=grid.index_of(component.dm),
                time_samples=component.time_samples,
                trial_tolerance=self.trial_tolerance,
                min_snr=self.min_snr,
            )
            for component in signal_truth.components
            if component.kind in _SIGNAL_KINDS and component.dm is not None
        )


def _apply_chunk_faults(
    chunks: tuple[StreamChunk, ...],
    faults: FaultProfile,
    streams: RandomStreams,
) -> tuple[tuple[StreamChunk, ...], tuple[int, ...], tuple[int, ...]]:
    """Drop / duplicate chunks per the fault profile, never sequence 0.

    Reuses the scheduler's fault vocabulary: ``crashes`` upstream links
    lose their chunk entirely, ``stragglers`` re-deliver theirs (the
    duplicate arrives immediately after the original, as a retransmit
    does).  Draws come from the scenario's own seeded stream, so the
    fault pattern is part of the scenario's identity.
    """
    if faults.is_benign or len(chunks) < 2:
        return chunks, (), ()
    rng = streams.numpy("chunk-faults")
    eligible = np.arange(1, len(chunks))
    n_drop = min(faults.crashes, len(eligible) - 1)
    dropped = set()
    if n_drop > 0:
        dropped = set(
            int(s) for s in rng.choice(eligible, size=n_drop, replace=False)
        )
    survivors = np.asarray(
        [s for s in eligible if s not in dropped], dtype=np.int64
    )
    n_dup = min(faults.stragglers, len(survivors))
    duplicated = set()
    if n_dup > 0:
        duplicated = set(
            int(s) for s in rng.choice(survivors, size=n_dup, replace=False)
        )
    out: list[StreamChunk] = []
    for chunk in chunks:
        if chunk.sequence in dropped:
            continue
        out.append(chunk)
        if chunk.sequence in duplicated:
            out.append(chunk)
    return tuple(out), tuple(sorted(dropped)), tuple(sorted(duplicated))


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------
def _mid_dm(grid: DMTrialGrid) -> float:
    """The central trial DM — every setup-agnostic scenario injects here."""
    return float(grid.values[grid.n_dms // 2])


def _narrow_pulsar(
    grid: DMTrialGrid, period: float, amplitude: float
) -> PulsarSource:
    """A narrow-profile pulsar (sharp DM discrimination on toy setups)."""
    return PulsarSource(
        SyntheticPulsar(
            period_seconds=period,
            dm=_mid_dm(grid),
            amplitude=amplitude,
            profile=gaussian_profile(width=0.008),
        )
    )


def _build_clean_pulse(setup, grid, streams) -> SignalSource:
    return CompositeSource(
        (NoiseSource(sigma=1.0), _narrow_pulsar(grid, 1.3, 2.0))
    )


def _build_rfi_storm(setup, grid, streams) -> SignalSource:
    return CompositeSource((
        NoiseSource(sigma=1.0),
        _narrow_pulsar(grid, 1.1, 3.0),
        BroadbandRFISource(n_events=5, amplitude=6.0, width=2),
        NarrowbandRFISource(n_channels=2, amplitude=4.0),
    ))


def _build_scintillating(setup, grid, streams) -> SignalSource:
    return CompositeSource((
        NoiseSource(sigma=1.0),
        BurstTrainSource(
            dm=_mid_dm(grid),
            period_seconds=0.9,
            width_seconds=0.01,
            amplitude=3.0,
            modulation_depth=0.8,
            stream="scint",
        ),
    ))


def _build_nulling(setup, grid, streams) -> SignalSource:
    return CompositeSource((
        NoiseSource(sigma=1.0),
        BurstTrainSource(
            dm=_mid_dm(grid),
            period_seconds=0.7,
            width_seconds=0.01,
            amplitude=2.5,
            null_probability=0.5,
            stream="nulling",
        ),
    ))


def _build_giant_pulses(setup, grid, streams) -> SignalSource:
    # Mean pulse sits barely above threshold; only giants are bright.
    return CompositeSource((
        NoiseSource(sigma=1.0),
        BurstTrainSource(
            dm=_mid_dm(grid),
            period_seconds=0.45,
            width_seconds=0.008,
            amplitude=0.8,
            giant_probability=0.35,
            giant_factor=6.0,
            stream="giants",
        ),
    ))


def _build_dm_smeared(setup, grid, streams) -> SignalSource:
    # A wide burst near the top of the grid: maximal intra-channel
    # smearing, the regime where trial discrimination is weakest.
    return CompositeSource((
        NoiseSource(sigma=1.0),
        BurstSource(
            dm=float(grid.values[-2]),
            time_seconds=1.7,
            width_seconds=0.03,
            amplitude=2.0,
        ),
    ))


def _build_steady_train(setup, grid, streams) -> SignalSource:
    return CompositeSource((
        NoiseSource(sigma=1.0),
        BurstTrainSource(
            dm=_mid_dm(grid),
            period_seconds=0.8,
            width_seconds=0.01,
            amplitude=2.5,
            stream="steady",
        ),
    ))


def _build_noise(setup, grid, streams) -> SignalSource:
    return NoiseSource(sigma=1.0)


def scenario_catalog() -> tuple[Scenario, ...]:
    """The full catalogue, documentation order."""
    return (
        Scenario(
            name="clean_pulse",
            description="control: one narrow periodic pulse at the central "
            "trial DM in clean Gaussian noise",
            build=_build_clean_pulse,
        ),
        Scenario(
            name="rfi_storm",
            description="narrowband carriers + impulsive broadband RFI over "
            "a pulsar, searched with mitigation on",
            build=_build_rfi_storm,
            rfi_mitigation=True,
        ),
        Scenario(
            name="scintillating_pulsar",
            description="burst train with deep per-pulse amplitude "
            "scintillation (factor 0.2-1.8)",
            build=_build_scintillating,
        ),
        Scenario(
            name="nulling_pulsar",
            description="burst train nulled pulse-by-pulse with "
            "probability 0.5 (pulse 0 always emitted)",
            build=_build_nulling,
        ),
        Scenario(
            name="giant_pulse_train",
            description="weak train whose giant pulses (x6, p=0.35) carry "
            "the detection",
            build=_build_giant_pulses,
        ),
        Scenario(
            name="dm_smeared_wideband",
            description="wide single burst near the top of the DM grid "
            "(maximal smearing, weakest trial discrimination)",
            build=_build_dm_smeared,
        ),
        Scenario(
            name="dropped_chunks",
            description="steady burst train with one chunk lost and one "
            "delivered twice (FaultProfile crashes=1, stragglers=1)",
            build=_build_steady_train,
            faults=FaultProfile(crashes=1, stragglers=1),
        ),
        Scenario(
            name="noise_floor",
            description="pure Gaussian noise: nothing may survive the sift",
            build=_build_noise,
            expect_empty=True,
            expected_verdict="realtime_sustained",
        ),
        Scenario(
            name="hostile_tuning",
            description="noise searched with a hostile tuning: queue "
            "capacity 1 and a service floor of 2.5 cadences force "
            "deterministic backpressure drops",
            build=_build_noise,
            n_chunks=6,
            queue_capacity=1,
            service_floor_cadences=2.5,
            expect_empty=True,
            expected_verdict="degraded",
        ),
    )


def scenario_by_name(name: str) -> Scenario:
    """Look a scenario up by name; raises on unknown names."""
    for scenario in scenario_catalog():
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in scenario_catalog())
    raise ValidationError(
        f"unknown scenario {name!r}; known scenarios: {known}"
    )
