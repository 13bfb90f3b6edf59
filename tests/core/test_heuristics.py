"""Unit tests for the budgeted heuristics in repro.tune.strategy."""

import pytest

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif
from repro.core.tuner import AutoTuner
from repro.errors import TuningError, ValidationError
from repro.hardware.catalog import hd7970
from repro.tune import (
    SearchOutcome,
    budgeted_tune,
    hill_climb,
    random_search,
    simulated_annealing,
)


GRID = DMTrialGrid(64)


@pytest.fixture(scope="module")
def exhaustive():
    return AutoTuner(hd7970(), apertif()).tune(GRID)


class TestRandomSearch:
    def test_respects_budget(self):
        outcome = random_search(hd7970(), apertif(), GRID, budget=20)
        assert outcome.measurements <= 20
        assert outcome.result.n_configurations == outcome.measurements

    def test_deterministic_given_seed(self):
        a = random_search(hd7970(), apertif(), GRID, budget=15, seed=3)
        b = random_search(hd7970(), apertif(), GRID, budget=15, seed=3)
        assert a.best.gflops == b.best.gflops

    def test_different_seeds_differ(self):
        a = random_search(hd7970(), apertif(), GRID, budget=10, seed=1)
        b = random_search(hd7970(), apertif(), GRID, budget=10, seed=2)
        assert {s.config for s in a.result.samples} != {
            s.config for s in b.result.samples
        }

    def test_never_beats_exhaustive(self, exhaustive):
        outcome = random_search(hd7970(), apertif(), GRID, budget=40)
        assert outcome.best.gflops <= exhaustive.best.gflops + 1e-9

    def test_budget_larger_than_space(self, exhaustive):
        outcome = random_search(
            hd7970(), apertif(), GRID, budget=10 ** 6
        )
        assert outcome.measurements == exhaustive.n_configurations
        assert outcome.best.gflops == pytest.approx(exhaustive.best.gflops)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValidationError):
            random_search(hd7970(), apertif(), GRID, budget=0)


class TestHillClimb:
    def test_respects_budget(self):
        outcome = hill_climb(hd7970(), apertif(), GRID, budget=25)
        assert outcome.measurements <= 25 + 8  # final neighbourhood overshoot
        assert outcome.best.gflops > 0

    def test_gets_stuck_in_local_optima(self, exhaustive):
        # The optimisation landscape is multimodal (Fig. 10), so greedy
        # ascent plateaus below the global optimum at small budgets —
        # supporting the paper's claim that the optimum "is difficult to
        # find manually" by local reasoning.
        budget = 30
        hill = [
            hill_climb(
                hd7970(), apertif(), GRID, budget=budget, seed=s
            ).best.gflops
            for s in range(5)
        ]
        mean_hill = sum(hill) / len(hill)
        assert 0.5 * exhaustive.best.gflops < mean_hill < exhaustive.best.gflops

    def test_never_beats_exhaustive(self, exhaustive):
        outcome = hill_climb(hd7970(), apertif(), GRID, budget=40)
        assert outcome.best.gflops <= exhaustive.best.gflops + 1e-9

    def test_large_budget_finds_near_optimum(self, exhaustive):
        outcome = hill_climb(hd7970(), apertif(), GRID, budget=250, seed=0)
        assert outcome.best.gflops >= 0.9 * exhaustive.best.gflops

    def test_deterministic_given_seed(self):
        a = hill_climb(hd7970(), apertif(), GRID, budget=20, seed=9)
        b = hill_climb(hd7970(), apertif(), GRID, budget=20, seed=9)
        assert a.best.gflops == b.best.gflops


class TestSimulatedAnnealing:
    def test_respects_budget(self):
        outcome = simulated_annealing(hd7970(), apertif(), GRID, budget=25)
        assert outcome.measurements <= 25
        assert outcome.best.gflops > 0

    def test_deterministic_given_seed(self):
        a = simulated_annealing(hd7970(), apertif(), GRID, budget=20, seed=4)
        b = simulated_annealing(hd7970(), apertif(), GRID, budget=20, seed=4)
        assert a.best.gflops == b.best.gflops

    def test_never_beats_exhaustive(self, exhaustive):
        outcome = simulated_annealing(hd7970(), apertif(), GRID, budget=40)
        assert outcome.best.gflops <= exhaustive.best.gflops + 1e-9

    def test_escapes_local_optima_better_than_greedy(self, exhaustive):
        # Averaged over seeds at equal budget, annealing should not be
        # worse than greedy ascent on this multimodal space.
        budget = 40
        anneal = [
            simulated_annealing(
                hd7970(), apertif(), GRID, budget=budget, seed=s
            ).best.gflops
            for s in range(6)
        ]
        greedy = [
            hill_climb(
                hd7970(), apertif(), GRID, budget=budget, seed=s
            ).best.gflops
            for s in range(6)
        ]
        assert sum(anneal) / len(anneal) >= 0.85 * sum(greedy) / len(greedy)

    def test_rejects_bad_temperature(self):
        with pytest.raises(TuningError):
            simulated_annealing(
                hd7970(), apertif(), GRID, initial_temperature=0.0
            )


class TestBudgetedTune:
    def test_respects_budget(self):
        outcome = budgeted_tune(hd7970(), apertif(), GRID, budget=24)
        assert outcome.measurements <= 24
        assert outcome.best.gflops > 0

    def test_deterministic_given_seed(self):
        a = budgeted_tune(hd7970(), apertif(), GRID, budget=20, seed=7)
        b = budgeted_tune(hd7970(), apertif(), GRID, budget=20, seed=7)
        assert a.best.gflops == b.best.gflops
        assert {s.config for s in a.result.samples} == {
            s.config for s in b.result.samples
        }

    def test_never_beats_exhaustive(self, exhaustive):
        outcome = budgeted_tune(hd7970(), apertif(), GRID, budget=40)
        assert outcome.best.gflops <= exhaustive.best.gflops + 1e-9

    def test_budget_larger_than_space_finds_optimum(self, exhaustive):
        outcome = budgeted_tune(hd7970(), apertif(), GRID, budget=10 ** 6)
        assert outcome.best.gflops == pytest.approx(exhaustive.best.gflops)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValidationError):
            budgeted_tune(hd7970(), apertif(), GRID, budget=0)


class TestSpaceAccounting:
    def test_outcomes_report_space_size(self, exhaustive):
        for outcome in (
            random_search(hd7970(), apertif(), GRID, budget=10),
            hill_climb(hd7970(), apertif(), GRID, budget=10),
            simulated_annealing(hd7970(), apertif(), GRID, budget=10),
            budgeted_tune(hd7970(), apertif(), GRID, budget=10),
        ):
            assert outcome.space_size == exhaustive.n_configurations

    def test_fraction_evaluated(self):
        outcome = random_search(hd7970(), apertif(), GRID, budget=10)
        assert outcome.fraction_evaluated == pytest.approx(
            outcome.measurements / outcome.space_size
        )
        assert 0.0 < outcome.fraction_evaluated < 1.0

    def test_fraction_evaluated_safe_without_space_size(self):
        outcome = random_search(hd7970(), apertif(), GRID, budget=5)
        legacy = SearchOutcome(
            strategy=outcome.strategy,
            result=outcome.result,
            evaluations=outcome.evaluations,
            measurements=outcome.measurements,
            space_size=0,
        )
        assert legacy.fraction_evaluated == 0.0

    @pytest.mark.parametrize("search", [random_search, budgeted_tune])
    def test_scored_at_the_enumerated_batch(self, search):
        # A full-budget search at samples=500 sees the whole 500-sample
        # space and must score it at 500 samples, as the sweep does.
        sweep = AutoTuner(hd7970(), apertif()).tune(GRID, samples=500)
        outcome = search(
            hd7970(), apertif(), GRID, budget=10 ** 6, samples=500
        )
        assert outcome.best.config == sweep.best.config
        assert outcome.best.gflops == sweep.best.gflops
        assert all(s.metrics.samples == 500 for s in outcome.result.samples)

    def test_budgeted_tune_reports_actual_evaluations(self):
        outcome = budgeted_tune(hd7970(), apertif(), GRID, budget=24)
        # The count must reflect configurations actually simulated, not
        # the requested budget.
        assert outcome.measurements == outcome.result.n_configurations
