"""Beam-correlated realization of a multi-beam observation.

A real multi-beam receiver sees *one* sky through many primary beams,
so the per-beam data streams are correlated in exactly the way the
cross-beam coincidence stage (:mod:`repro.survey.coincidence`) exploits:

* **noise** is independent receiver noise — decorrelated per beam by
  renaming each :class:`~repro.astro.source.NoiseSource`'s stream;
* **RFI** enters through the sidelobes, which every beam shares — the
  RFI sources are injected *verbatim* into every beam, and because every
  beam draws from the same derived seed the events land at identical
  times with identical amplitudes (the all-beam signature the broadband
  veto keys on);
* **signal** enters through the primary beam pattern — the scenario's
  astrophysical components are injected only into the neighbourhood
  ``plan.signal_beams()`` around the centre beam, attenuated by
  ``adjacent_attenuation ** distance`` via
  :class:`~repro.astro.source.ScaledSource`.

Every survey sky is a catalogue scenario: :func:`realize_survey`
*decomposes* the scenario's composite source into those three
populations, so any catalogue scenario becomes a multi-beam survey
without a parallel catalogue.  The per-beam search runs with the
scenario's own search configuration, but with RFI mitigation and the
zero-DM veto OFF —
per-beam defenses would eat the broadband RFI before the coincidencer
ever saw it, and the whole point of the survey stage is that the
cross-beam veto replaces them.

Determinism: everything derives from
``derive_seed(plan.seed, "survey", scenario, setup)``; same plan, same
bytes — the property the survey ledger's byte-identical resume rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.astro.source import (
    BroadbandRFISource,
    CompositeSource,
    NarrowbandRFISource,
    NoiseSource,
    ScaledSource,
    SignalSource,
    SignalTruth,
    StreamChunk,
    stream_chunks,
)
from repro.scenarios.catalog import (
    _SIGNAL_KINDS,
    _apply_chunk_faults,
    scenario_by_name,
)
from repro.scenarios.truth import ExpectedCandidate
from repro.search.stream import SearchConfig
from repro.utils.rng import RandomStreams, derive_seed

#: Sources every beam shares verbatim (sidelobe RFI).
_RFI_SOURCES = (BroadbandRFISource, NarrowbandRFISource)


@dataclass(frozen=True)
class BeamObservation:
    """One beam's realized stream plus what was injected into it."""

    beam: int
    chunks: tuple[StreamChunk, ...]
    signal_truth: SignalTruth


@dataclass(frozen=True)
class SurveyExpectation:
    """One injected signal and the beams that carry it."""

    expected: ExpectedCandidate
    beams: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "beams", tuple(self.beams))


@dataclass(frozen=True)
class SurveyTruth:
    """Everything a survey run is scored against."""

    n_beams: int
    expectations: tuple[SurveyExpectation, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "expectations", tuple(self.expectations)
        )


@dataclass(frozen=True)
class MultiBeamObservation:
    """A realized multi-beam observation, ready to search."""

    setup: ObservationSetup
    grid: DMTrialGrid
    beams: tuple[BeamObservation, ...]
    truth: SurveyTruth
    search_config: SearchConfig

    @property
    def n_beams(self) -> int:
        return len(self.beams)

    @property
    def chunk_seconds(self) -> float:
        """The stream cadence (one chunk's span of sky time)."""
        return self.setup.samples_per_batch / self.setup.samples_per_second


def _beam_variant(
    child: SignalSource,
    beam: int,
    centre: int,
    signal_beams: tuple[int, ...],
    attenuation: float,
) -> SignalSource | None:
    """What one scenario component looks like from one beam."""
    if isinstance(child, NoiseSource):
        # Independent receiver noise: same statistics, different draws.
        return replace(child, stream=f"{child.stream}.b{beam:03d}")
    if isinstance(child, _RFI_SOURCES):
        # Sidelobe RFI: identical in every beam (same stream, same seed).
        return child
    if beam not in signal_beams:
        return None
    factor = attenuation ** abs(beam - centre)
    return child if factor == 1.0 else ScaledSource(child, factor)


def realize_survey(plan) -> MultiBeamObservation:
    """Realize a :class:`~repro.survey.plan.SurveyPlan` into beam streams.

    Decomposes the catalogue scenario's source composition beam-by-beam
    (module docstring).
    """
    column = plan.column()
    setup, grid = column.setup, column.grid
    scenario = scenario_by_name(plan.scenario)
    n_chunks = plan.n_chunks or scenario.n_chunks
    root = derive_seed(plan.seed, "survey", scenario.name, setup.name)
    source = scenario.build(
        setup, grid, RandomStreams(root).spawn("build")
    )
    children = (
        source.sources
        if isinstance(source, CompositeSource)
        else (source,)
    )
    signal_beams = plan.signal_beams()
    centre = plan.n_beams // 2
    beams = []
    centre_truth = SignalTruth(())
    for b in range(plan.n_beams):
        variants = tuple(
            variant
            for child in children
            if (
                variant := _beam_variant(
                    child,
                    b,
                    centre,
                    signal_beams,
                    plan.adjacent_attenuation,
                )
            )
            is not None
        )
        if not variants:
            # Degenerate scenario (signal only, beam outside the
            # neighbourhood): an empty sky still has receiver noise.
            variants = (
                NoiseSource(sigma=1.0, stream=f"survey-floor.b{b:03d}"),
            )
        beam_source = (
            variants[0]
            if len(variants) == 1
            else CompositeSource(variants)
        )
        # Same derived seed for every beam: the shared-sky draws (RFI
        # event times, per-pulse modulation) are cross-beam identical,
        # while the renamed noise streams decorrelate the noise.
        chunks, signal_truth = stream_chunks(
            beam_source,
            setup,
            grid,
            n_chunks,
            RandomStreams(derive_seed(root, "signal")),
            beam_index=b,
        )
        chunks, _, _ = _apply_chunk_faults(
            chunks,
            scenario.faults,
            RandomStreams(derive_seed(root, "chunk-faults", b)),
        )
        if b == centre:
            centre_truth = signal_truth
        beams.append(
            BeamObservation(
                beam=b, chunks=chunks, signal_truth=signal_truth
            )
        )
    expectations = tuple(
        SurveyExpectation(
            expected=ExpectedCandidate(
                dm=component.dm,
                trial=grid.index_of(component.dm),
                time_samples=component.time_samples,
                trial_tolerance=scenario.trial_tolerance,
                min_snr=scenario.min_snr,
            ),
            beams=signal_beams,
        )
        for component in centre_truth.components
        if component.kind in _SIGNAL_KINDS and component.dm is not None
    )
    base = scenario.search_config(setup, grid)
    config = replace(
        base,
        rfi_mitigation=False,
        sift_policy=replace(base.sift_policy, zero_dm_veto=False),
    )
    return MultiBeamObservation(
        setup=setup,
        grid=grid,
        beams=tuple(beams),
        truth=SurveyTruth(
            n_beams=plan.n_beams, expectations=expectations
        ),
        search_config=config,
    )
