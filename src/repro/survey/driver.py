"""The survey driver: one resumable command from stream to candidates.

:class:`SurveyRun` composes the existing layers end to end — the
scenario catalogue realized beam-correlated
(:mod:`repro.survey.observation`), one
:class:`~repro.search.stream.StreamingSearch` per beam under the shared
virtual clock, the simulated accelerator fleet of
:class:`~repro.sched.ExecutionEngine` (with fault injection) sizing the
survey's makespan, and the cross-beam coincidence stage
(:mod:`repro.survey.coincidence`) — checkpointing through the
append-only :class:`~repro.sched.ledger.SurveyLedger`.

Resume contract
---------------
Every per-beam record is deterministic (no wall-clock fields) and every
ledger line canonical JSON, so interrupting a survey and resuming it
(``repro survey --ledger L --resume``) converges to a ledger file
byte-identical to an uninterrupted run's, and to the same
:class:`SurveyRunReport`.  The coincidence stage always consumes the
*serialised* ledger records — never in-memory cluster objects — so live
and resumed beams feed it literally the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.astro.candidates import Candidate, SiftedCandidate
from repro.errors import LedgerError, PipelineError
from repro.hardware import device_by_name
from repro.obs import get_registry, span
from repro.sched import ExecutionEngine, RunReport
from repro.sched.ledger import (
    SurveyBeamRecord,
    SurveyLedger,
    load_survey_ledger,
)
from repro.search.stream import StreamingSearch
from repro.survey.coincidence import (
    CoincidenceResult,
    SurveyScore,
    coincide,
    score_survey,
)
from repro.survey.observation import realize_survey
from repro.survey.plan import SurveyPlan

#: Memory per simulated fleet device (matches the multi-beam planner).
DEFAULT_DEVICE_MEMORY = 3 * 1024**3

#: Devices in the simulated fleet a survey dispatches its beams to.
FLEET_UNITS = 3


# ----------------------------------------------------------------------
# Candidate serde: ledger lines are the coincidence stage's only input
# ----------------------------------------------------------------------
def candidate_doc(candidate: Candidate) -> dict:
    """One candidate as a JSON-ready dict (beam provenance included)."""
    return {
        "dm_index": int(candidate.dm_index),
        "dm": float(candidate.dm),
        "snr": float(candidate.snr),
        "time_sample": int(candidate.time_sample),
        "width": int(candidate.width),
        "beam": int(candidate.beam),
    }


def candidate_from_doc(doc: dict) -> Candidate:
    """Rebuild a candidate from its ledger rendering."""
    return Candidate(
        dm_index=int(doc["dm_index"]),
        dm=float(doc["dm"]),
        snr=float(doc["snr"]),
        time_sample=int(doc["time_sample"]),
        width=int(doc["width"]),
        beam=int(doc.get("beam", 0)),
    )


def cluster_doc(cluster: SiftedCandidate) -> dict:
    """One sifted cluster as a JSON-ready dict."""
    return {
        "best": candidate_doc(cluster.best),
        "n_members": int(cluster.n_members),
        "dm_extent": float(cluster.dm_extent),
        "members": [candidate_doc(m) for m in cluster.members],
    }


def cluster_from_doc(doc: dict) -> SiftedCandidate:
    """Rebuild a sifted cluster from its ledger rendering."""
    members = tuple(candidate_from_doc(m) for m in doc["members"])
    return SiftedCandidate(
        best=candidate_from_doc(doc["best"]), members=members
    )


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SurveyRunReport:
    """Everything one survey run produced."""

    scenario: str
    setup_key: str
    backend: str
    n_beams: int
    n_dms: int
    beams: tuple[SurveyBeamRecord, ...]
    resumed_beams: tuple[int, ...]
    coincidence: CoincidenceResult
    score: SurveyScore
    fleet: RunReport
    recovered_truncation: bool = False

    @property
    def beam_verdicts(self) -> tuple[str, ...]:
        """Per-beam stream verdicts, beam order."""
        return tuple(r.verdict["verdict"] for r in self.beams)

    @property
    def realtime(self) -> bool:
        """Every beam sustained real time and so did the fleet."""
        return (
            all(v == "realtime_sustained" for v in self.beam_verdicts)
            and self.fleet.realtime_sustained
        )

    @property
    def degraded(self) -> bool:
        """Any beam shed chunks, or the fleet lost shards."""
        return (
            any(v == "degraded" for v in self.beam_verdicts)
            or not self.fleet.complete
        )

    @property
    def verdict(self) -> str:
        """``realtime_sustained`` | ``complete`` | ``degraded``."""
        if self.degraded:
            return "degraded"
        if self.realtime:
            return "realtime_sustained"
        return "complete"

    @property
    def makespan_s(self) -> float:
        """The fleet-dispatch makespan of the whole survey."""
        return self.fleet.makespan_s

    def as_dict(self) -> dict:
        """JSON-ready representation (what the benchmark records)."""
        return {
            "scenario": self.scenario,
            "setup": self.setup_key,
            "backend": self.backend,
            "n_beams": int(self.n_beams),
            "n_dms": int(self.n_dms),
            "verdict": self.verdict,
            "realtime": self.realtime,
            "beam_verdicts": list(self.beam_verdicts),
            "resumed_beams": [int(b) for b in self.resumed_beams],
            "recovered_truncation": self.recovered_truncation,
            "makespan_s": float(self.makespan_s),
            "fleet": {
                "makespan_s": float(self.fleet.makespan_s),
                "throughput": float(self.fleet.throughput),
                "complete": self.fleet.complete,
                "degraded": self.fleet.degraded,
                "realtime_sustained": self.fleet.realtime_sustained,
            },
            "score": self.score.as_dict(),
        }

    def summary(self) -> str:
        """Multi-line, human-readable report."""
        lines = [
            f"survey: {self.scenario} on setup {self.setup_key!r}, "
            f"{self.n_beams} beams x {self.n_dms} trial DMs "
            f"({self.backend} backend) — {self.verdict}",
            f"  beams: {len(self.beams)} done"
            + (
                f" ({len(self.resumed_beams)} resumed from ledger"
                + (
                    ", truncated tail recovered)"
                    if self.recovered_truncation
                    else ")"
                )
                if self.resumed_beams
                else ""
            ),
            f"  fleet: makespan {self.fleet.makespan_s:.3f} s, "
            f"throughput {self.fleet.throughput:.2f} beam-seconds/s, "
            f"real time "
            f"{'SUSTAINED' if self.fleet.realtime_sustained else 'NOT sustained'}",
            f"  fleet faults: {len(self.fleet.crashed_workers)} crashed "
            f"worker(s), {self.fleet.retries} retries, "
            f"{self.fleet.requeues} requeues, {self.fleet.steals} steals",
            f"  coincidence: {self.score.pre_clusters} per-beam clusters "
            f"-> {self.score.post_groups} kept groups "
            f"({self.score.n_vetoed} vetoed broadband, "
            f"{self.score.n_promoted} promoted localized)",
            f"  truth: recall {self.score.recall:.2f} "
            f"({self.score.n_matched}/{self.score.n_expected}), false "
            f"positives {self.score.pre_false_positives} pre -> "
            f"{self.score.post_false_positives} post",
        ]
        for group in self.coincidence.kept[:5]:
            best = group.best
            lines.append(
                f"    [{group.classification}] DM {best.dm:.2f} "
                f"(trial {best.dm_index}) S/N {best.snr:.1f} "
                f"t={best.time_sample} beams {list(group.beams)}"
            )
        for group in self.coincidence.vetoed[:3]:
            best = group.best
            lines.append(
                f"    vetoed[broadband] DM {best.dm:.2f} "
                f"S/N {best.snr:.1f} in {group.n_beams} beams"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class SurveyRun:
    """One survey execution: realize, search per beam, coincidence.

    ``ledger_path`` enables checkpointing (one appended line per
    completed beam); ``resume=True`` loads that ledger first and skips
    its completed beams (a missing file starts fresh — the first run of
    a checkpointed survey).  ``crash_after=N`` injects a crash after N
    newly-searched beams: a partial line is written (as a real crash
    mid-append would leave) and :class:`~repro.errors.PipelineError`
    raised — the acceptance hook for the resume byte-identity test.
    """

    def __init__(
        self,
        plan: SurveyPlan,
        ledger_path: str | Path | None = None,
        resume: bool = False,
        crash_after: int | None = None,
    ):
        self.plan = plan
        self.ledger_path = Path(ledger_path) if ledger_path else None
        self.resume = resume
        self.crash_after = crash_after
        if resume and self.ledger_path is None:
            raise LedgerError("resume needs a ledger path to resume from")
        if crash_after is not None and self.ledger_path is None:
            raise LedgerError(
                "crash injection needs a ledger path to half-write"
            )

    # ------------------------------------------------------------------
    def _load_or_start(self) -> SurveyLedger:
        identity = self.plan.identity()
        if (
            self.resume
            and self.ledger_path is not None
            and self.ledger_path.exists()
        ):
            ledger = load_survey_ledger(self.ledger_path)
            if not ledger.matches(identity):
                raise LedgerError(
                    f"ledger at {self.ledger_path} records a different "
                    f"survey ({ledger.identity}) than this plan "
                    f"({identity}); refusing to mix"
                )
            return ledger
        return SurveyLedger(identity)

    def run(self) -> SurveyRunReport:
        """Drive the survey to completion; returns the report."""
        plan = self.plan
        registry = get_registry()
        column = plan.column()
        labels = {"scenario": plan.scenario, "setup": column.key}
        with span(
            "survey.run", n_beams=plan.n_beams, **labels
        ) as run_span:
            observation = realize_survey(plan)
            ledger = self._load_or_start()
            recovered = ledger.truncated
            resumed = tuple(sorted(ledger.completed_beams()))
            if self.ledger_path is not None:
                # Rewriting the prefix drops any truncated tail, so the
                # file converges to the uninterrupted run's bytes.
                ledger.start(self.ledger_path)
            search = StreamingSearch(
                column.plan(),
                observation.search_config,
                backend=plan.backend,
            )
            searched = 0
            for beam_obs in observation.beams:
                beam = beam_obs.beam
                if beam in ledger.completed_beams():
                    registry.counter(
                        "repro_survey_beams_total",
                        outcome="resumed",
                        **labels,
                    ).inc()
                    continue
                if (
                    self.crash_after is not None
                    and searched >= self.crash_after
                ):
                    with self.ledger_path.open("a") as handle:
                        handle.write(f'{{"beam":{beam},"verdic')
                    raise PipelineError(
                        f"injected survey crash while appending "
                        f"beam {beam}"
                    )
                with span("survey.beam", beam=beam, **labels):
                    report = search.run(iter(beam_obs.chunks))
                record = SurveyBeamRecord(
                    beam=beam,
                    verdict=report.verdict_payload(),
                    accepted=[
                        cluster_doc(c) for c in report.result.accepted
                    ],
                    vetoed=[
                        {
                            "reason": v.reason,
                            "cluster": cluster_doc(v.cluster),
                        }
                        for v in report.result.vetoed
                    ],
                )
                if self.ledger_path is not None:
                    ledger.append_beam(self.ledger_path, record)
                else:
                    ledger.record_beam(record)
                searched += 1
                registry.counter(
                    "repro_survey_beams_total",
                    outcome="searched",
                    **labels,
                ).inc()

            fleet = self._dispatch_fleet(observation)

            with span("survey.coincidence", **labels) as co_span:
                # Deserialize from the ledger for live AND resumed
                # beams: the coincidence input is the serialized form,
                # so resume cannot diverge from a straight-through run.
                clusters = [
                    cluster_from_doc(doc)
                    for record in ledger.beam_records()
                    for doc in record.accepted
                ]
                result = coincide(clusters, plan.n_beams)
                score = score_survey(observation.truth, clusters, result)
                co_span.attributes["groups"] = len(result.groups)
                co_span.attributes["vetoed"] = len(result.vetoed)

            report = SurveyRunReport(
                scenario=labels["scenario"],
                setup_key=column.key,
                backend=plan.backend or "auto",
                n_beams=plan.n_beams,
                n_dms=column.grid.n_dms,
                beams=ledger.beam_records(),
                resumed_beams=resumed,
                coincidence=result,
                score=score,
                fleet=fleet,
                recovered_truncation=recovered,
            )
            self._record_metrics(registry, labels, report)
            run_span.attributes["verdict"] = report.verdict
            run_span.attributes["recall"] = round(score.recall, 4)
        return report

    # ------------------------------------------------------------------
    def _dispatch_fleet(self, observation) -> RunReport:
        """Run the beams through the simulated accelerator fleet."""
        plan = self.plan
        column = plan.column()
        duration_s = (
            max(len(b.chunks) for b in observation.beams)
            * observation.chunk_seconds
        )
        with span("survey.fleet", setup=column.key):
            engine = ExecutionEngine(
                [
                    (
                        device_by_name(column.device_name),
                        FLEET_UNITS,
                        DEFAULT_DEVICE_MEMORY,
                    )
                ],
                observation.setup,
                observation.grid,
                plan.n_beams,
                duration_s=duration_s,
                seed=plan.seed,
                faults=plan.faults,
            )
            return engine.run()

    def _record_metrics(self, registry, labels, report) -> None:
        registry.counter(
            "repro_survey_runs_total", outcome=report.verdict, **labels
        ).inc()
        for stage, count in (
            ("pre", report.score.pre_clusters),
            ("kept", report.score.post_groups),
            ("vetoed", report.score.n_vetoed),
            ("promoted", report.score.n_promoted),
        ):
            registry.counter(
                "repro_survey_candidates_total", stage=stage, **labels
            ).inc(count)
        for stage, count in (
            ("pre", report.score.pre_false_positives),
            ("post", report.score.post_false_positives),
        ):
            registry.counter(
                "repro_survey_false_positives_total",
                stage=stage,
                **labels,
            ).inc(count)
        registry.histogram(
            "repro_survey_recall_ratio", **labels
        ).observe(report.score.recall)
        registry.histogram(
            "repro_survey_makespan_seconds", **labels
        ).observe(report.makespan_s)


def run_survey(
    plan: SurveyPlan,
    ledger_path: str | Path | None = None,
    resume: bool = False,
    crash_after: int | None = None,
) -> SurveyRunReport:
    """Convenience wrapper: build a :class:`SurveyRun` and run it."""
    return SurveyRun(
        plan,
        ledger_path=ledger_path,
        resume=resume,
        crash_after=crash_after,
    ).run()
