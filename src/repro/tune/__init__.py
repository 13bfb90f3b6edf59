"""Model-guided search: retiring the exhaustive sweep.

The paper's auto-tuner measures every meaningful configuration.  This
package finds the same optimum at a few percent of that cost.
:mod:`repro.tune.strategy` holds the :class:`SearchStrategy` interface
and its three registered implementations (:class:`ExhaustiveSearch`,
:class:`SuccessiveHalving`, :class:`ModelGuidedSearch`), each a fixed
algorithm resolved by name through :func:`build_strategy`, plus the
budgeted heuristics (:func:`random_search`, :func:`hill_climb`,
:func:`simulated_annealing`, :func:`budgeted_tune`).

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
)

__all__ = [
    # strategies
    "STRATEGIES",
    "SearchStrategy",
    "SearchOutcome",
    "ExhaustiveSearch",
    "SuccessiveHalving",
    "ModelGuidedSearch",
    "build_strategy",
    "prior_scores",
    # budgeted heuristics
    "random_search",
    "hill_climb",
    "simulated_annealing",
    "budgeted_tune",
]
