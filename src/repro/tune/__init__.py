"""Model-guided search and ablation: retiring the exhaustive sweep.

The paper's auto-tuner measures every meaningful configuration.  This
package finds the same optimum at a few percent of that cost:

* :mod:`repro.tune.strategy` — the :class:`SearchStrategy` interface and
  its implementations (:class:`ExhaustiveSearch`,
  :class:`SuccessiveHalving`, :class:`ModelGuidedSearch`), plus the
  budgeted heuristics (:func:`random_search`, :func:`hill_climb`,
  :func:`simulated_annealing`, :func:`budgeted_tune`);
* :mod:`repro.tune.study` — declarative studies (:class:`StudyConfig`
  with ``kwargs`` + ``kwargs_ranges``), executed by :func:`run_study`
  and persisted as schema-versioned JSON;
* :mod:`repro.tune.ablation` — the component-toggle driver behind
  ``repro ablate``.

``benchmarks/bench_tune.py`` audits the headline claim (>=95% optimum
match at <=10% of the candidate space) and writes ``BENCH_tune.json``.
See ``docs/tuning.md``.
"""

from repro.tune.strategy import (
    STRATEGIES,
    ExhaustiveSearch,
    ModelGuidedSearch,
    SearchOutcome,
    SearchStrategy,
    SuccessiveHalving,
    budgeted_tune,
    build_strategy,
    hill_climb,
    prior_scores,
    random_search,
    simulated_annealing,
    strategy_accepts,
)
from repro.tune.study import (
    STUDY_SCHEMA_VERSION,
    SUPPORTED_STUDY_SCHEMAS,
    StudyConfig,
    StudyResult,
    StudyRun,
    StudyRunResult,
    expand_kwargs_ranges,
    load_study,
    run_study,
    save_study,
    study_to_document,
)
from repro.tune.ablation import AblationEntry, AblationReport, run_ablation

__all__ = [
    # strategies
    "STRATEGIES",
    "SearchStrategy",
    "SearchOutcome",
    "ExhaustiveSearch",
    "SuccessiveHalving",
    "ModelGuidedSearch",
    "build_strategy",
    "strategy_accepts",
    "prior_scores",
    # budgeted heuristics
    "random_search",
    "hill_climb",
    "simulated_annealing",
    "budgeted_tune",
    # studies
    "STUDY_SCHEMA_VERSION",
    "SUPPORTED_STUDY_SCHEMAS",
    "StudyConfig",
    "StudyRun",
    "StudyRunResult",
    "StudyResult",
    "expand_kwargs_ranges",
    "run_study",
    "save_study",
    "load_study",
    "study_to_document",
    # ablation
    "AblationEntry",
    "AblationReport",
    "run_ablation",
]
