"""The benchmark's workloads: realized inputs and one search pass each.

Every workload is a closed loop in one process: one stream at a time, no
worker threads, chunks fed as fast as the pipeline takes them.  A
workload builds its inputs from the benchmark seed, and the program only
ever receives the generated chunks.

``BENCHMARK.json`` lists ``lofar_rfi`` and ``survey_storm``; between
them they drive every layer the per-layer breakdown names.
``apertif_giant`` (the kernel-dominated Apertif regime) runs the same
way from the command line but is not in the listed set: the listed runs
must fit a fixed time budget, and on a shared host each run needs about
40 timed seconds before its medians repeat within the bounds.

Two inputs are realized per invocation:

* the *timed* input, from ``--seed``: warm-up and timed passes run on it,
  and every pass must reproduce the same candidate digest (the survey's
  timed input is a rotation of seeds derived from ``--seed``; each pass
  must match the earlier passes on the same seed);
* the *reference* input, from the scenario catalogue's own fixed seed:
  the quality metrics (``recall``, ``false_positives``) are scored on it,
  and the fused-vs-staged parity check runs on it.  Scoring a fixed input
  keeps those counts identical across benchmark seeds, so they guard
  against behaviour changes instead of reporting seed noise.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Callable

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup, apertif, lofar
from repro.core.plan import DedispersionPlan
from repro.hardware.catalog import hd7970
from repro.obs import MetricsRegistry, Span, get_tracer, use_registry
from repro.scenarios.catalog import RealizedScenario, scenario_by_name
from repro.scenarios.truth import score_report
from repro.search.stream import StreamingSearch
from repro.survey import SurveyPlan, SurveyRunReport, run_survey
from repro.survey import driver as survey_driver
from repro.survey.driver import cluster_doc

#: Backend both sides of the fused-vs-staged parity check run on.
PARITY_BACKEND = "vectorized"


def stamped(chunks, sink: list):
    """Yield ``chunks``, appending a clock stamp at every pull.

    The final stamp is taken when the consumer asks for the chunk after
    the last one, so consecutive stamps bracket exactly one chunk's
    processing.
    """
    for chunk in chunks:
        sink.append(time.perf_counter())
        yield chunk
    sink.append(time.perf_counter())


def chunk_seconds_from(stamp_lists: list[list[float]]) -> list[float]:
    """Per-chunk host seconds: the gaps between consecutive pull stamps."""
    return [
        later - earlier
        for stamps in stamp_lists
        for earlier, later in zip(stamps, stamps[1:])
    ]


def pass_span(trace: bool):
    """The ``bench.pass`` root span of a traced pass; nothing otherwise.

    The program's own spans of earlier passes are dropped first, so every
    pass starts from the same tracer state.
    """
    tracer = get_tracer()
    tracer.finished.clear()
    return tracer.span("bench.pass") if trace else nullcontext()


def digest(*parts) -> str:
    """A stable hash of candidate lists and scores (``repr`` is exact)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _sift_docs(result) -> tuple[list, list]:
    accepted = [cluster_doc(c) for c in result.accepted]
    vetoed = [
        {"reason": v.reason, "cluster": cluster_doc(v.cluster)}
        for v in result.vetoed
    ]
    return accepted, vetoed


@dataclass
class PassResult:
    """What one search pass produced, as the harness scores it."""

    wall_s: float
    sky_s: float
    chunk_s: list[float]
    #: Names the input the pass ran on; equal inputs give equal digests.
    input_key: str
    digest: str
    recall: float
    false_positives: int
    peak_bytes: int
    attempted: int
    failed: int
    verdict: str
    modelled_rt_margin: float
    #: The fresh registry the pass recorded into.
    registry: MetricsRegistry
    #: The ``bench.pass`` span around the timed region (traced passes).
    span: Span | None = None

    @property
    def realtime_factor(self) -> float:
        """Sky seconds searched per host wall second."""
        return self.sky_s / self.wall_s


# ----------------------------------------------------------------------
# Single-beam stream workloads
# ----------------------------------------------------------------------
@dataclass
class StreamState:
    """A stream workload's plan and its two realized inputs."""

    plan: DedispersionPlan
    timed: RealizedScenario
    reference: RealizedScenario


@dataclass(frozen=True)
class StreamWorkload:
    """One telescope stream through the tuned kernel, detector and sift.

    Scenario realization is input generation: it happens once, before
    any timing, and gets its own traced number only on the survey.  One
    warm-up pass on the timed input is excluded from the timed medians.
    ``queue_capacity`` is raised to the chunk count so a slow host can
    never shed chunks: the search's virtual clock adds measured host
    detect seconds to the modelled kernel seconds, and candidates must
    not depend on host speed.
    """

    name: str
    why: str
    setup_factory: Callable[[int], ObservationSetup]
    samples: int
    n_dms: int
    dm_first: float
    dm_step: float
    scenario: str
    n_chunks: int
    rfi_mitigation: bool

    def setup(self) -> DedispersionPlan:
        """Cold plan construction: auto-tune sweep, kernel, delay table."""
        grid = DMTrialGrid(
            n_dms=self.n_dms, first=self.dm_first, step=self.dm_step
        )
        return DedispersionPlan.create(
            self.setup_factory(self.samples), grid, hd7970()
        )

    def _realize(self, plan: DedispersionPlan, seed: int | None):
        scenario = replace(
            scenario_by_name(self.scenario),
            n_chunks=self.n_chunks,
            rfi_mitigation=self.rfi_mitigation,
        )
        return scenario.realize(plan.setup, plan.grid, seed=seed)

    def prepare(self, plan: DedispersionPlan, seed: int) -> StreamState:
        """Realize the timed input (from ``seed``) and the reference one."""
        return StreamState(
            plan=plan,
            timed=self._realize(plan, seed),
            reference=self._realize(plan, None),
        )

    def run_pass(
        self,
        state: StreamState,
        reference: bool = False,
        backend: str | None = None,
        fused: bool = True,
        trace: bool = False,
    ) -> PassResult:
        """One stream from first chunk in to sifted candidates out."""
        realized = state.reference if reference else state.timed
        plan = state.plan
        config = replace(
            realized.search_config,
            queue_capacity=max(
                self.n_chunks, realized.search_config.queue_capacity
            ),
            fused=fused,
        )
        stamps: list[float] = []
        with use_registry(MetricsRegistry()) as registry:
            search = StreamingSearch(plan, config, backend=backend)
            with pass_span(trace) as root:
                start = time.perf_counter()
                report = search.run(stamped(realized.chunks, stamps))
                wall = time.perf_counter() - start
        score = score_report(realized.name, realized.truth, report)
        chunk_seconds = search.chunk_seconds
        return PassResult(
            wall_s=wall,
            sky_s=len(realized.chunks) * chunk_seconds,
            chunk_s=chunk_seconds_from([stamps]),
            input_key="reference" if reference else "timed",
            digest=digest(
                *_sift_docs(report.result),
                score.recall,
                score.n_false_positive,
            ),
            recall=score.recall,
            false_positives=score.n_false_positive,
            peak_bytes=report.peak_bytes,
            attempted=len(report.records),
            failed=report.chunks_dropped,
            verdict=report.verdict,
            modelled_rt_margin=chunk_seconds / plan.predict().seconds,
            registry=registry,
            span=root,
        )


# ----------------------------------------------------------------------
# The multi-beam survey workload
# ----------------------------------------------------------------------
#: Timed survey plans per invocation, taken in turn by successive passes.
#: The RFI of a survey enters every beam alike, so how much work a
#: survey makes depends on its seed (about +-6% on ``survey_storm``);
#: rotating through several seeds keeps that out of a run's medians.
SURVEY_SEEDS = 4


@dataclass
class SurveyState:
    """The timed survey plans (derived from one seed) and the reference."""

    timed: tuple[SurveyPlan, ...]
    reference: SurveyPlan
    #: Timed passes run so far; selects the next plan in the rotation.
    turn: int = 0

    def next_timed(self) -> SurveyPlan:
        plan = self.timed[self.turn % len(self.timed)]
        self.turn += 1
        return plan


@contextmanager
def patched(module, name: str, value):
    """Temporarily replace one module attribute; restored on exit."""
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def _stamping_search(sink: list[list[float]]):
    """A :class:`StreamingSearch` that stamps every beam's chunk pulls."""

    class StampingSearch(StreamingSearch):
        def run(self, chunks):
            beam: list[float] = []
            sink.append(beam)
            return super().run(stamped(chunks, beam))

    return StampingSearch


def _staged_realization(realize):
    """Wrap ``realize_survey`` so every beam searches on the staged path."""

    def realize_staged(plan):
        observation = realize(plan)
        return replace(
            observation,
            search_config=replace(observation.search_config, fused=False),
        )

    return realize_staged


@dataclass(frozen=True)
class SurveyWorkload:
    """``run_survey`` over many beams: per-beam search, fleet, coincidence.

    The survey realizes its beams inside ``run_survey``, so realization
    is part of the timed pass here (the traced run reports it as
    ``scenarios.realize_s``).  No ledger file is written.  Successive
    passes on the timed input rotate through ``SURVEY_SEEDS`` plans
    derived from the benchmark seed; the first, a warm-up pass, is
    excluded from the timed medians.  Chunks
    are one sky second each against millisecond service times, so the
    default queue never sheds them.
    """

    name: str
    why: str
    scenario: str
    setup_key: str
    n_beams: int
    n_chunks: int

    def _plan(self, seed: int) -> SurveyPlan:
        return SurveyPlan(
            scenario=self.scenario,
            setup=self.setup_key,
            n_beams=self.n_beams,
            n_chunks=self.n_chunks,
            seed=seed,
        )

    def setup(self):
        """Cold plan construction of the survey's benchmark column."""
        return self._plan(0).column().plan()

    def prepare(self, plan, seed: int) -> SurveyState:
        """The timed plans (from ``seed``) and the reference plan."""
        return SurveyState(
            timed=tuple(
                self._plan(seed * SURVEY_SEEDS + i)
                for i in range(SURVEY_SEEDS)
            ),
            reference=self._plan(SurveyPlan().seed),
        )

    def run_pass(
        self,
        state: SurveyState,
        reference: bool = False,
        backend: str | None = None,
        fused: bool = True,
        trace: bool = False,
    ) -> PassResult:
        """One ``run_survey`` call, beams realized and searched inside."""
        plan = state.reference if reference else state.next_timed()
        input_key = "reference" if reference else f"seed {plan.seed}"
        if backend is not None:
            plan = replace(plan, backend=backend)
        stamp_lists: list[list[float]] = []
        with ExitStack() as stack:
            registry = stack.enter_context(use_registry(MetricsRegistry()))
            stack.enter_context(
                patched(
                    survey_driver,
                    "StreamingSearch",
                    _stamping_search(stamp_lists),
                )
            )
            if not fused:
                stack.enter_context(
                    patched(
                        survey_driver,
                        "realize_survey",
                        _staged_realization(survey_driver.realize_survey),
                    )
                )
            root = stack.enter_context(pass_span(trace))
            start = time.perf_counter()
            report = run_survey(plan)
            wall = time.perf_counter() - start
        peaks = [
            value
            for path in ("fused", "staged")
            if (series := registry.get("repro_run_peak_bytes", path=path))
            for value in series.values()
        ]
        column = plan.column()
        chunk_seconds = (
            column.setup.samples_per_batch / column.setup.samples_per_second
        )
        return PassResult(
            wall_s=wall,
            sky_s=self.n_beams * self.n_chunks * chunk_seconds,
            chunk_s=chunk_seconds_from(stamp_lists),
            input_key=input_key,
            digest=_survey_digest(report),
            recall=report.score.recall,
            false_positives=(
                report.score.pre_false_positives
                + report.score.post_false_positives
            ),
            peak_bytes=int(max(peaks, default=0)),
            attempted=self.n_beams * self.n_chunks,
            failed=sum(
                r.verdict["chunks_dropped"] for r in report.beams
            ),
            verdict=report.verdict,
            modelled_rt_margin=self.n_chunks * chunk_seconds
            / report.makespan_s,
            registry=registry,
            span=root,
        )


def _survey_digest(report: SurveyRunReport) -> str:
    groups = [
        (g.classification, [cluster_doc(m) for m in g.members])
        for g in report.coincidence.groups
    ]
    beams = [(r.beam, r.accepted, r.vetoed) for r in report.beams]
    return digest(beams, groups, report.score.as_dict())


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------
WORKLOADS = {
    w.name: w
    for w in (
        StreamWorkload(
            name="apertif_giant",
            why="Apertif scale, 1024 channels, high data reuse: the kernel "
            "dominates host time, so a kernel change shows here first",
            setup_factory=apertif,
            samples=2_000,
            n_dms=256,
            dm_first=0.25,
            dm_step=0.25,
            scenario="giant_pulse_train",
            n_chunks=12,
            rfi_mitigation=False,
        ),
        StreamWorkload(
            name="lofar_rfi",
            why="LOFAR scale, 32 channels, almost no reuse: the detector "
            "dominates, and RFI masking and the sift vetoes run",
            setup_factory=lofar,
            samples=20_000,
            n_dms=64,
            dm_first=0.01,
            dm_step=0.01,
            scenario="rfi_storm",
            n_chunks=30,
            rfi_mitigation=True,
        ),
        SurveyWorkload(
            name="survey_storm",
            why="32 beams x 32 tiny chunks: per-call overhead, fleet and "
            "cross-beam coincidence dominate instead of bulk compute",
            scenario="rfi_storm",
            setup_key="high",
            n_beams=32,
            n_chunks=32,
        ),
    )
}

#: Smoke-size variants for the benchmark's own tests: same layers and
#: scenarios, a fraction of the data.
SMOKE_WORKLOADS = {
    "apertif_giant": replace(
        WORKLOADS["apertif_giant"], n_dms=32, n_chunks=6
    ),
    "lofar_rfi": replace(
        WORKLOADS["lofar_rfi"], n_chunks=16
    ),
    "survey_storm": replace(
        WORKLOADS["survey_storm"], n_beams=8, n_chunks=4
    ),
}
