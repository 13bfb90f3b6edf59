"""Integration tests for repro.survey.driver — the resumable survey run.

The acceptance criteria live here: at 8 beams the two headline
scenarios must hit recall >= 0.95 with the coincidence stage never
adding false positives (and strictly removing them on ``rfi_storm``),
and an injected crash plus resume must reproduce the uninterrupted
ledger byte for byte.
"""

import pytest

from repro.astro.candidates import Candidate, SiftedCandidate
from repro.errors import LedgerError, PipelineError
from repro.obs import use_registry
from repro.sched.ledger import load_survey_ledger
from repro.survey import (
    SurveyPlan,
    SurveyRun,
    candidate_doc,
    candidate_from_doc,
    cluster_doc,
    cluster_from_doc,
    run_survey,
)


@pytest.fixture(scope="module")
def storm_report():
    return run_survey(SurveyPlan(scenario="rfi_storm", n_beams=8))


class TestAcceptance:
    def test_rfi_storm_recall_and_strict_fp_reduction(self, storm_report):
        score = storm_report.score
        assert score.recall >= 0.95
        assert score.post_false_positives < score.pre_false_positives
        assert score.n_vetoed > 0

    def test_giant_pulse_train_recall(self):
        report = run_survey(
            SurveyPlan(scenario="giant_pulse_train", n_beams=8)
        )
        assert report.score.recall >= 0.95
        assert report.score.fp_reduced

    def test_report_carries_fleet_and_verdicts(self, storm_report):
        assert storm_report.n_beams == 8
        assert len(storm_report.beams) == 8
        assert storm_report.fleet.complete
        assert storm_report.verdict in (
            "complete", "realtime_sustained", "degraded"
        )
        doc = storm_report.as_dict()
        assert doc["scenario"] == "rfi_storm"
        assert doc["score"]["recall"] >= 0.95
        assert len(doc["beam_verdicts"]) == 8
        assert "survey: rfi_storm" in storm_report.summary()

    def test_runs_are_deterministic(self):
        plan = SurveyPlan(scenario="giant_pulse_train", n_beams=2)
        a = run_survey(plan)
        b = run_survey(plan)
        assert a.as_dict() == b.as_dict()

    def test_records_survey_metrics(self):
        with use_registry() as registry:
            run_survey(SurveyPlan(scenario="giant_pulse_train", n_beams=2))
            names = {series.name for series in registry.series()}
        assert "repro_survey_runs_total" in names
        assert "repro_survey_beams_total" in names
        assert "repro_survey_recall_ratio" in names


#: (classification, beams, best (beam, dm_index, time_sample, width),
#: member clusters) of every group of the pinned 32-beam storm survey.
ALL_BEAMS = tuple(range(32))
PINNED_STORM_GROUPS = [
    ("broadband", ALL_BEAMS, (16, 0, 3435, 16), 32),
    ("localized", (15, 16, 17), (16, 6, 1844, 8), 3),
    ("localized", (15, 16, 17), (16, 4, 259, 16), 3),
    ("broadband", ALL_BEAMS, (16, 6, 785, 16), 34),
    ("localized", (15, 16, 17), (16, 3, 1316, 16), 3),
    (
        "broadband",
        tuple(b for b in ALL_BEAMS if b not in (16, 25)),
        (19, 0, 2196, 2),
        30,
    ),
    ("localized", (15, 16, 17), (16, 2, 2901, 16), 3),
    (
        "scattered",
        (0, 1, 3, 5, 6, 7, 9, 10, 13, 14, 19, 20, 21, 22, 24, 25, 28, 30),
        (25, 0, 2084, 2),
        18,
    ),
    (
        "broadband",
        tuple(b for b in ALL_BEAMS if b != 16),
        (8, 0, 3315, 2),
        31,
    ),
    ("localized", (15, 16, 17), (16, 7, 2368, 16), 3),
]


class TestPinnedCoincidence:
    def test_storm_survey_groups_are_pinned(self):
        # A realized survey at the benchmark's beam count: any change to
        # grouping order, matching reach or classification shows here.
        report = run_survey(
            SurveyPlan(
                scenario="rfi_storm", setup="high", n_beams=32,
                n_chunks=8, seed=1,
            )
        )
        groups = [
            (
                g.classification,
                g.beams,
                (g.best.beam, g.best.dm_index, g.best.time_sample,
                 g.best.width),
                len(g.members),
            )
            for g in report.coincidence.groups
        ]
        assert groups == PINNED_STORM_GROUPS
        assert report.score.as_dict() == {
            "recall": 1.0,
            "n_expected": 1,
            "n_matched": 1,
            "pre_clusters": 160,
            "pre_false_positives": 12,
            "post_groups": 6,
            "post_false_positives": 0,
            "n_vetoed": 4,
            "n_promoted": 5,
        }


class TestResume:
    def test_resume_requires_a_ledger_path(self):
        with pytest.raises(LedgerError, match="resume"):
            SurveyRun(SurveyPlan(), resume=True)

    def test_crash_injection_requires_a_ledger_path(self):
        with pytest.raises(LedgerError, match="crash injection"):
            SurveyRun(SurveyPlan(), crash_after=1)

    def test_crash_then_resume_is_byte_identical(self, tmp_path):
        plan = SurveyPlan(scenario="rfi_storm", n_beams=4)
        straight = tmp_path / "straight.jsonl"
        straight_report = SurveyRun(plan, ledger_path=straight).run()

        crashed = tmp_path / "crashed.jsonl"
        with pytest.raises(PipelineError, match="injected survey crash"):
            SurveyRun(plan, ledger_path=crashed, crash_after=2).run()
        partial = load_survey_ledger(crashed)
        assert partial.truncated
        assert partial.completed_beams() == {0, 1}

        resumed_report = SurveyRun(
            plan, ledger_path=crashed, resume=True
        ).run()
        assert crashed.read_bytes() == straight.read_bytes()
        assert resumed_report.resumed_beams == (0, 1)
        assert resumed_report.recovered_truncation
        assert (
            resumed_report.score.as_dict()
            == straight_report.score.as_dict()
        )

    def test_resume_refuses_a_different_plan(self, tmp_path):
        ledger = tmp_path / "survey.jsonl"
        plan = SurveyPlan(scenario="giant_pulse_train", n_beams=2)
        SurveyRun(plan, ledger_path=ledger).run()
        other = SurveyPlan(scenario="rfi_storm", n_beams=2)
        with pytest.raises(LedgerError, match="different survey"):
            SurveyRun(other, ledger_path=ledger, resume=True).run()

    def test_resume_without_existing_file_runs_fresh(self, tmp_path):
        ledger = tmp_path / "fresh.jsonl"
        plan = SurveyPlan(scenario="giant_pulse_train", n_beams=2)
        report = SurveyRun(plan, ledger_path=ledger, resume=True).run()
        assert report.resumed_beams == ()
        assert ledger.exists()

    def test_finished_ledger_resumes_as_noop(self, tmp_path):
        ledger = tmp_path / "done.jsonl"
        plan = SurveyPlan(scenario="giant_pulse_train", n_beams=2)
        first = SurveyRun(plan, ledger_path=ledger).run()
        before = ledger.read_bytes()
        again = SurveyRun(plan, ledger_path=ledger, resume=True).run()
        assert again.resumed_beams == (0, 1)
        assert ledger.read_bytes() == before
        assert again.score.as_dict() == first.score.as_dict()


class TestSerde:
    def test_candidate_round_trip(self):
        candidate = Candidate(
            dm_index=3, dm=4.0, snr=11.5, time_sample=200, width=8, beam=5
        )
        assert candidate_from_doc(candidate_doc(candidate)) == candidate

    def test_candidate_doc_defaults_beam_to_zero(self):
        doc = candidate_doc(
            Candidate(dm_index=1, dm=2.0, snr=7.0, time_sample=10, width=2)
        )
        del doc["beam"]
        assert candidate_from_doc(doc).beam == 0

    def test_cluster_round_trip(self):
        best = Candidate(
            dm_index=3, dm=4.0, snr=11.5, time_sample=200, width=8, beam=2
        )
        other = Candidate(
            dm_index=4, dm=5.0, snr=8.0, time_sample=204, width=4, beam=2
        )
        cluster = SiftedCandidate(best=best, members=(best, other))
        assert cluster_from_doc(cluster_doc(cluster)) == cluster
