"""repro.survey: survey-in-a-box — stream to coincidence-vetoed candidates.

One resumable driver from a multi-beam telescope stream to cross-beam
coincidence-vetoed candidates, composing every layer below it:

* :class:`SurveyPlan` (:mod:`repro.survey.plan`) — the pure-value
  configuration: scenario, benchmark setup, beam count, DM range, seed,
  beam-correlation knobs and fleet fault injection;
* :func:`realize_survey` (:mod:`repro.survey.observation`) — the
  beam-correlated realization: signal into a localized neighbourhood of
  beams, RFI identically into all beams, noise independent per beam;
* :class:`SurveyRun` / :func:`run_survey` (:mod:`repro.survey.driver`)
  — per-beam :class:`~repro.search.stream.StreamingSearch` under one
  virtual clock, fleet dispatch through
  :class:`~repro.sched.ExecutionEngine` (fault injection included),
  checkpointed in the append-only
  :class:`~repro.sched.SurveyLedger` so ``--resume`` skips completed
  beams byte-identically;
* :func:`coincide` (:mod:`repro.survey.coincidence`) — the cross-beam
  stage: all-beam broadband groups vetoed, adjacent-beam localized
  groups promoted, everything truth-scored
  (:func:`score_survey`).

Typical use::

    from repro.survey import SurveyPlan, run_survey

    report = run_survey(
        SurveyPlan(scenario="rfi_storm", n_beams=8),
        ledger_path="survey.jsonl",
    )
    print(report.summary())

or, from the command line, ``repro survey --scenario rfi_storm
--beams 8 --ledger survey.jsonl`` (add ``--resume`` after an
interruption).  See ``docs/survey.md``.
"""

from repro.survey.coincidence import (
    CLASSIFICATIONS,
    CoincidenceGroup,
    CoincidencePolicy,
    CoincidenceResult,
    SurveyScore,
    coincide,
    score_survey,
)
from repro.survey.driver import (
    DEFAULT_DEVICE_MEMORY,
    SurveyRun,
    SurveyRunReport,
    candidate_doc,
    candidate_from_doc,
    cluster_doc,
    cluster_from_doc,
    run_survey,
)
from repro.survey.observation import (
    BeamObservation,
    MultiBeamObservation,
    SurveyExpectation,
    SurveyTruth,
    realize_survey,
)
from repro.survey.plan import SurveyPlan

__all__ = [
    "CLASSIFICATIONS",
    "DEFAULT_DEVICE_MEMORY",
    "BeamObservation",
    "CoincidenceGroup",
    "CoincidencePolicy",
    "CoincidenceResult",
    "MultiBeamObservation",
    "SurveyExpectation",
    "SurveyPlan",
    "SurveyRun",
    "SurveyRunReport",
    "SurveyScore",
    "SurveyTruth",
    "candidate_doc",
    "candidate_from_doc",
    "cluster_doc",
    "cluster_from_doc",
    "coincide",
    "realize_survey",
    "run_survey",
    "score_survey",
]
