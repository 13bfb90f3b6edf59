"""Search strategies that retire the exhaustive auto-tuning sweep.

The paper tunes by brute force: "the algorithm is executed for every
meaningful combination" (Sec. IV-A).  At fleet scale that sweep is the
dominant cost of :class:`repro.service.TuningService`, so this module
offers pluggable :class:`SearchStrategy` implementations that find the
same optimum while *measuring* only a small fraction of the space:

* :class:`ExhaustiveSearch` — the paper's sweep behind the strategy
  interface (the baseline every other strategy is judged against);
* :class:`SuccessiveHalving` — race a prior-seeded entry cohort on
  progressively larger DM sub-instances, promoting only the survivors
  to full fidelity.  The fidelity axis is ``n_dms`` rather than the
  sample count: performance landscapes of neighbouring DM counts share
  their optima (Novotný et al., arXiv:2311.05341), while truncating the
  time dimension distorts the overhead/compute balance;
* :class:`ModelGuidedSearch` — rank the space with a *degraded*
  hardware model (staging and coalescing-overhead terms disabled, so
  its predictions are cheap and deliberately imperfect), measure the
  top slice, re-rank the remainder with a local quadratic surrogate
  fitted to the measurements, and finish with greedy neighbour ascent.

Every strategy returns a :class:`SearchOutcome` whose ``evaluations``
field is the search cost in *full-evaluation equivalents* (a rung at a
quarter of the DM trials costs 0.25), which is what
``benchmarks/bench_tune.py`` audits against the <=10%-of-candidates
target.  Both searches are fixed algorithms: their budgets and rung
shapes are the module constants below, so a strategy name alone
identifies a search and its result.

Four classic budgeted heuristics share the same evaluator, space and
greedy ascent, as plain functions rather than registered strategies:
:func:`random_search`, :func:`hill_climb` (ascent with random restarts),
:func:`simulated_annealing` (a cooled random walk over the one-notch
neighbourhood) and :func:`budgeted_tune` (random probes, then ascent:
the tuning service's degraded answer).  ``repro experiment
ablation-tuner`` compares the first three with the exhaustive optimum.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.core.config import KernelConfiguration
from repro.core.space import axis_values, notch_neighbours
from repro.core.tuner import AutoTuner, ConfigurationSample, TuningResult
from repro.errors import TuningError
from repro.hardware.device import DeviceSpec
from repro.hardware.model import PerformanceModel
from repro.obs import get_registry, span
from repro.utils.intmath import ceil_div
from repro.utils.rng import RandomStreams
from repro.utils.validation import require_positive_int

#: Relative GFLOP/s slack when judging an optimum match (ties only).
MATCH_RTOL = 1e-9

#: Successive halving: the survivor ratio per rung, the number of
#: sub-instance rungs, the prior-ranked share of the space that enters
#: the race (at least ``HALVING_ENTRY_FLOOR`` configurations) and the
#: fewest survivors a rung keeps.
HALVING_ETA = 4
HALVING_RUNGS = 2
HALVING_ENTRY_FRACTION = 0.25
HALVING_ENTRY_FLOOR = 24
HALVING_KEEP_FLOOR = 16

#: Model-guided search measures ``max(GUIDED_MIN_MEASUREMENTS,
#: GUIDED_FRACTION * N)`` configurations of an N-configuration space.
GUIDED_FRACTION = 0.08
GUIDED_MIN_MEASUREMENTS = 20


@dataclass(frozen=True)
class SearchOutcome:
    """What one strategy run produced and what it cost.

    ``evaluations`` is the cost in full-evaluation equivalents (reduced
    sub-instance measurements count fractionally); ``measurements`` is
    the number of distinct model simulations actually executed.  The
    embedded :class:`~repro.core.tuner.TuningResult` contains only
    full-fidelity samples, so every downstream consumer (service cache,
    persistence, statistics) sees the same shape a sweep produces.
    """

    strategy: str
    result: TuningResult
    evaluations: float
    measurements: int
    space_size: int

    @property
    def best(self) -> ConfigurationSample:
        """The optimum found by the search."""
        return self.result.best

    @property
    def fraction_evaluated(self) -> float:
        """Search cost as a fraction of the exhaustive sweep."""
        if self.space_size <= 0:
            return 0.0
        return self.evaluations / self.space_size

    def matches(self, optimum_gflops: float) -> bool:
        """Whether the search found the exhaustive optimum (ties count)."""
        return bool(self.best.gflops >= optimum_gflops * (1.0 - MATCH_RTOL))

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        return (
            f"{self.strategy}: {self.best.config.describe()} "
            f"{self.best.gflops:.1f} GFLOP/s "
            f"({self.evaluations:.1f}/{self.space_size} evals, "
            f"{100.0 * self.fraction_evaluated:.1f}% of space)"
        )


def prior_scores(
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    configs: list[KernelConfiguration],
    samples: int | None = None,
) -> dict[KernelConfiguration, float]:
    """Cheap performance prior: the hardware model with its second-order
    terms (shared-memory staging, coalescing overhead) disabled.

    Deliberately *not* the full model — strategies that consulted the
    exact simulator would be measuring, not predicting.  Empirically the
    degraded model still places the true optimum within the top few
    percent of its ranking on every paper instance, which is all a
    prior needs.
    """
    model = PerformanceModel(
        device,
        setup,
        grid,
        enable_staging=False,
        enable_coalescing_overhead=False,
    )
    return {
        c: model.simulate(c, samples=samples, validate=False).gflops
        for c in configs
    }


def _prior_ranking(
    tuner: AutoTuner,
    grid: DMTrialGrid,
    configs: list[KernelConfiguration],
    samples: int,
) -> list[KernelConfiguration]:
    """``configs`` best first by :func:`prior_scores` (ties by tuple)."""
    scores = prior_scores(
        tuner.device, tuner.setup, grid, configs, samples=samples
    )
    return sorted(configs, key=lambda c: (-scores[c], c.as_tuple()))


class _CostedEvaluator:
    """Caches model evaluations and accounts their fractional cost.

    Full-instance evaluations cost 1; an evaluation on a DM sub-instance
    of ``n`` trials costs ``n / n_dms``.  Repeats of the same
    ``(config, n)`` coordinate are free (cached), and only full-fidelity
    samples enter the final :class:`TuningResult`.
    """

    def __init__(self, tuner: AutoTuner, grid: DMTrialGrid, samples: int):
        self.device = tuner.device
        self.setup = tuner.setup
        self.grid = grid
        self.samples = samples
        self._models: dict[int, PerformanceModel] = {
            grid.n_dms: PerformanceModel(self.device, self.setup, grid)
        }
        self._cache: dict[
            tuple[KernelConfiguration, int], ConfigurationSample
        ] = {}
        self.full_cache: dict[KernelConfiguration, ConfigurationSample] = {}
        self.cost = 0.0

    @property
    def measurements(self) -> int:
        return len(self._cache)

    def _model_for(self, n_dms: int) -> PerformanceModel:
        model = self._models.get(n_dms)
        if model is None:
            sub = DMTrialGrid(
                n_dms=n_dms, first=self.grid.first, step=self.grid.step
            )
            model = PerformanceModel(self.device, self.setup, sub)
            self._models[n_dms] = model
        return model

    def rounded_n_dms(self, config: KernelConfiguration, n_dms: int) -> int:
        """Smallest sub-instance >= ``n_dms`` that ``config`` tiles exactly
        (the memory model requires ``tile_dms`` to divide the DM count)."""
        n = ceil_div(n_dms, config.tile_dms) * config.tile_dms
        return min(self.grid.n_dms, n)

    def evaluate_at(
        self, config: KernelConfiguration, n_dms: int
    ) -> ConfigurationSample:
        n = self.rounded_n_dms(config, n_dms)
        key = (config, n)
        sample = self._cache.get(key)
        if sample is None:
            metrics = self._model_for(n).simulate(
                config, samples=self.samples, validate=False
            )
            sample = ConfigurationSample(
                config=config, gflops=metrics.gflops, metrics=metrics
            )
            self._cache[key] = sample
            self.cost += n / self.grid.n_dms
            if n == self.grid.n_dms:
                self.full_cache[config] = sample
        return sample

    def evaluate(self, config: KernelConfiguration) -> ConfigurationSample:
        return self.evaluate_at(config, self.grid.n_dms)

    def result(self) -> TuningResult:
        if not self.full_cache:
            raise TuningError(
                "search measured no configuration at full fidelity"
            )
        return TuningResult(
            device=self.device,
            setup=self.setup,
            grid=self.grid,
            samples=tuple(self.full_cache.values()),
        )


def _outcome(
    name: str, evaluator: _CostedEvaluator, space_size: int
) -> SearchOutcome:
    """The outcome of a search that measured through ``evaluator``."""
    return SearchOutcome(
        strategy=name,
        result=evaluator.result(),
        evaluations=evaluator.cost,
        measurements=evaluator.measurements,
        space_size=space_size,
    )


def _meaningful(
    tuner: AutoTuner, grid: DMTrialGrid, samples: int
) -> list[KernelConfiguration]:
    """The meaningful space a search runs over; empty is an error."""
    configs = tuner.space(grid, samples).meaningful()
    if not configs:
        raise TuningError(
            f"search space is empty for {tuner.device.name}/"
            f"{tuner.setup.name}/{grid.n_dms} DMs"
        )
    return configs


def _greedy_ascent(
    evaluator: _CostedEvaluator,
    configs: list[KernelConfiguration],
    budget: int,
    start: ConfigurationSample | None = None,
) -> None:
    """Full-fidelity best-neighbour ascent, spending at most ``budget``
    new measurements, from ``start`` (default: the best measured point)."""
    if budget <= 0 or not evaluator.full_cache:
        return
    values = axis_values(configs)
    config_set = set(configs)
    begin = evaluator.measurements
    current = start
    if current is None:
        current = max(evaluator.full_cache.values(), key=lambda s: s.gflops)
    improved = True
    while improved and evaluator.measurements - begin < budget:
        improved = False
        best_neighbour = None
        for neighbour in notch_neighbours(current.config, values, config_set):
            if evaluator.measurements - begin >= budget:
                break
            sample = evaluator.evaluate(neighbour)
            if best_neighbour is None or sample.gflops > best_neighbour.gflops:
                best_neighbour = sample
        if best_neighbour is not None and best_neighbour.gflops > current.gflops:
            current = best_neighbour
            improved = True


class SearchStrategy(ABC):
    """Interface every tuning search implements.

    :meth:`search` wraps the strategy-specific :meth:`_search` with the
    ``tune.search`` span and the ``repro_tune_*`` metrics, so every
    strategy is metered identically no matter who invokes it (CLI,
    service, benchmarks).
    """

    #: Registry name of the strategy (also its CLI spelling).
    name: ClassVar[str] = ""

    def search(
        self,
        tuner: AutoTuner,
        grid: DMTrialGrid,
        samples: int | None = None,
    ) -> SearchOutcome:
        """Run the search on one (device, setup, instance) combination."""
        with span(
            "tune.search",
            strategy=self.name,
            device=tuner.device.name,
            setup=tuner.setup.name,
            n_dms=grid.n_dms,
        ) as search_span:
            outcome = self._search(tuner, grid, samples)
            search_span.attributes["space_size"] = outcome.space_size
            search_span.attributes["measurements"] = outcome.measurements
            registry = get_registry()
            labels = {
                "strategy": self.name,
                "device": tuner.device.name,
                "setup": tuner.setup.name,
            }
            registry.counter("repro_tune_searches_total", **labels).inc()
            registry.counter(
                "repro_tune_measurements_total", **labels
            ).inc(outcome.measurements)
            registry.histogram(
                "repro_tune_fraction_evaluated_ratio", strategy=self.name
            ).observe(outcome.fraction_evaluated)
            registry.gauge("repro_tune_best_gflops", **labels).set(
                outcome.best.gflops
            )
            return outcome

    @abstractmethod
    def _search(
        self,
        tuner: AutoTuner,
        grid: DMTrialGrid,
        samples: int | None,
    ) -> SearchOutcome:
        """Strategy-specific search body (no instrumentation)."""


@dataclass(frozen=True)
class ExhaustiveSearch(SearchStrategy):
    """The paper's sweep behind the strategy interface (the baseline)."""

    name: ClassVar[str] = "exhaustive"

    def _search(
        self,
        tuner: AutoTuner,
        grid: DMTrialGrid,
        samples: int | None,
    ) -> SearchOutcome:
        result = tuner.tune(grid, samples=samples)
        n = result.n_configurations
        return SearchOutcome(
            strategy=self.name,
            result=result,
            evaluations=float(n),
            measurements=n,
            space_size=n,
        )


@dataclass(frozen=True)
class SuccessiveHalving(SearchStrategy):
    """Race configurations on progressively larger DM sub-instances.

    An entry cohort (the prior's top ``HALVING_ENTRY_FRACTION`` of the
    space) is evaluated on a small DM sub-instance, the best
    ``1/HALVING_ETA`` survive to the next rung, and the finalists are
    measured at full fidelity.  Per-config rung sizes are rounded up to
    the config's own ``tile_dms`` multiple so every sub-instance tiles
    exactly.  A short full-fidelity neighbour ascent polishes the
    winner.
    """

    name: ClassVar[str] = "halving"

    def _search(
        self,
        tuner: AutoTuner,
        grid: DMTrialGrid,
        samples: int | None,
    ) -> SearchOutcome:
        s = tuner.setup.samples_per_batch if samples is None else samples
        configs = _meaningful(tuner, grid, s)
        n = len(configs)
        evaluator = _CostedEvaluator(tuner, grid, s)

        entry = min(
            n, max(HALVING_ENTRY_FLOOR, round(HALVING_ENTRY_FRACTION * n))
        )
        entrants = _prior_ranking(tuner, grid, configs, s)[:entry]

        for k in range(HALVING_RUNGS):
            n_k = max(1, grid.n_dms // HALVING_ETA ** (HALVING_RUNGS - k))
            if n_k >= grid.n_dms:
                break
            scored = [
                (evaluator.evaluate_at(c, n_k).gflops, c) for c in entrants
            ]
            keep = max(
                HALVING_KEEP_FLOOR, ceil_div(len(entrants), HALVING_ETA)
            )
            scored.sort(key=lambda t: (-t[0], t[1].as_tuple()))
            entrants = [c for _, c in scored[:keep]]

        for config in entrants:
            evaluator.evaluate(config)
        _greedy_ascent(evaluator, configs, max(8, round(0.01 * n)))

        return _outcome(self.name, evaluator, n)


def _surrogate_features(config: KernelConfiguration) -> list[float]:
    """Quadratic feature vector over the log2 parameters."""
    logs = [
        math.log2(config.work_items_time),
        math.log2(config.work_items_dm),
        math.log2(config.elements_time),
        math.log2(config.elements_dm),
    ]
    features = [1.0] + logs
    for i in range(4):
        for j in range(i, 4):
            features.append(logs[i] * logs[j])
    return features


def _surrogate_rank(
    measured: list[ConfigurationSample],
    unmeasured: list[KernelConfiguration],
) -> list[KernelConfiguration]:
    """Unmeasured configs ranked by a ridge-regularised quadratic fit."""
    if len(measured) < 3 or not unmeasured:
        return list(unmeasured)
    x = np.asarray(
        [_surrogate_features(s.config) for s in measured], dtype=np.float64
    )
    y = np.asarray([s.gflops for s in measured], dtype=np.float64)
    gram = x.T @ x + 1e-3 * np.eye(x.shape[1])
    weights = np.linalg.solve(gram, x.T @ y)
    candidates = np.asarray(
        [_surrogate_features(c) for c in unmeasured], dtype=np.float64
    )
    predictions = candidates @ weights
    order = sorted(
        range(len(unmeasured)),
        key=lambda i: (-predictions[i], unmeasured[i].as_tuple()),
    )
    return [unmeasured[i] for i in order]


@dataclass(frozen=True)
class ModelGuidedSearch(SearchStrategy):
    """Prior-ranked measurement with surrogate refinement and ascent.

    The degraded hardware model ranks the whole space for free; the top
    slice of the ranking is measured; a quadratic surrogate fitted to
    those measurements re-ranks the remainder and the most promising
    predictions are measured too; greedy neighbour ascent spends the
    rest of the budget escaping any residual prior bias.  Total
    measurements are capped at ``max(GUIDED_MIN_MEASUREMENTS,
    GUIDED_FRACTION * N)``.
    """

    name: ClassVar[str] = "model-guided"

    def _search(
        self,
        tuner: AutoTuner,
        grid: DMTrialGrid,
        samples: int | None,
    ) -> SearchOutcome:
        s = tuner.setup.samples_per_batch if samples is None else samples
        configs = _meaningful(tuner, grid, s)
        n = len(configs)
        evaluator = _CostedEvaluator(tuner, grid, s)

        budget = min(
            n, max(GUIDED_MIN_MEASUREMENTS, round(GUIDED_FRACTION * n))
        )
        refine_budget = max(2, round(0.2 * budget))
        climb_budget = max(4, round(0.2 * budget))
        measure_budget = max(1, budget - refine_budget - climb_budget)

        ranked = _prior_ranking(tuner, grid, configs, s)
        for config in ranked[:measure_budget]:
            evaluator.evaluate(config)

        unmeasured = [c for c in configs if c not in evaluator.full_cache]
        for config in _surrogate_rank(
            list(evaluator.full_cache.values()), unmeasured
        )[:refine_budget]:
            evaluator.evaluate(config)

        _greedy_ascent(evaluator, configs, climb_budget)

        return _outcome(self.name, evaluator, n)


#: Registry of built-in strategies by CLI/service name.
STRATEGIES: dict[str, type[SearchStrategy]] = {
    ExhaustiveSearch.name: ExhaustiveSearch,
    SuccessiveHalving.name: SuccessiveHalving,
    ModelGuidedSearch.name: ModelGuidedSearch,
}


def build_strategy(spec: "SearchStrategy | str") -> SearchStrategy:
    """Resolve a strategy instance from a name (or pass one through)."""
    if isinstance(spec, SearchStrategy):
        return spec
    cls = STRATEGIES.get(str(spec))
    if cls is None:
        raise TuningError(
            f"unknown search strategy {spec!r}; "
            f"known: {', '.join(sorted(STRATEGIES))}"
        )
    return cls()


# ----------------------------------------------------------------------
# Budgeted heuristics: cheaper searches judged against the sweep
# ----------------------------------------------------------------------
def _heuristic_space(
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    budget: int,
    samples: int | None,
) -> tuple[list[KernelConfiguration], _CostedEvaluator]:
    """The meaningful space and a fresh evaluator, both at ``samples``."""
    require_positive_int(budget, "budget")
    tuner = AutoTuner(device, setup)
    s = setup.samples_per_batch if samples is None else samples
    return _meaningful(tuner, grid, s), _CostedEvaluator(tuner, grid, s)


def random_search(
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    budget: int = 50,
    seed: int = 0,
    samples: int | None = None,
) -> SearchOutcome:
    """Uniformly sample ``budget`` meaningful configurations."""
    configs, evaluator = _heuristic_space(device, setup, grid, budget, samples)
    rng = RandomStreams(seed).python("random-search")
    for config in rng.sample(configs, min(budget, len(configs))):
        evaluator.evaluate(config)
    return _outcome("random-search", evaluator, len(configs))


def hill_climb(
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    budget: int = 50,
    seed: int = 0,
    samples: int | None = None,
) -> SearchOutcome:
    """Greedy best-neighbour ascent with random restarts."""
    configs, evaluator = _heuristic_space(device, setup, grid, budget, samples)
    rng = RandomStreams(seed).python("hill-climb")
    restarts = 0
    # Restarts may land on already-evaluated configurations without
    # consuming budget; the restart bound keeps termination deterministic.
    while (
        evaluator.measurements < min(budget, len(configs))
        and restarts < 20 * budget
    ):
        restarts += 1
        start = evaluator.evaluate(rng.choice(configs))
        _greedy_ascent(
            evaluator, configs, budget - evaluator.measurements, start=start
        )
    return _outcome("hill-climb", evaluator, len(configs))


def simulated_annealing(
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    budget: int = 50,
    seed: int = 0,
    samples: int | None = None,
    initial_temperature: float = 0.5,
) -> SearchOutcome:
    """Annealed local search: accepts downhill moves early, cools to greedy.

    The acceptance temperature is a fraction of the best GFLOP/s seen so
    far and decays geometrically over the budget — the standard recipe
    that lets the walker escape the local optima that trap
    :func:`hill_climb` on the multimodal LOFAR space (Fig. 10's shape).
    """
    configs, evaluator = _heuristic_space(device, setup, grid, budget, samples)
    if initial_temperature <= 0:
        raise TuningError("initial_temperature must be positive")
    values, config_set = axis_values(configs), set(configs)
    rng = RandomStreams(seed).python("annealing")

    current = evaluator.evaluate(rng.choice(configs))
    best = current
    cooling = (0.01 / initial_temperature) ** (1.0 / max(budget - 1, 1))
    temperature = initial_temperature
    attempts = 0
    # The walk may revisit cached configurations without consuming budget;
    # the attempt bound keeps termination deterministic.
    while (
        evaluator.measurements < min(budget, len(configs))
        and attempts < 20 * budget
    ):
        attempts += 1
        neighbours = notch_neighbours(current.config, values, config_set)
        candidate = evaluator.evaluate(
            rng.choice(neighbours) if neighbours else rng.choice(configs)
        )
        if candidate.gflops > best.gflops:
            best = candidate
        delta = candidate.gflops - current.gflops
        scale = max(best.gflops * temperature, 1e-9)
        if delta >= 0 or rng.random() < pow(2.718281828, delta / scale):
            current = candidate
        temperature *= cooling
    return _outcome("annealing", evaluator, len(configs))


def budgeted_tune(
    device: DeviceSpec,
    setup: ObservationSetup,
    grid: DMTrialGrid,
    budget: int = 48,
    seed: int = 0,
    samples: int | None = None,
) -> SearchOutcome:
    """Degradation strategy for the tuning service: probe, then refine.

    Spends half the budget on uniform random probes of the meaningful
    space and the rest on greedy best-neighbour ascent from the best
    probe.  Cheaper than either :func:`random_search` (no refinement) or
    :func:`hill_climb` (no global view) at the same budget, and fully
    deterministic for a given ``seed`` — the property
    :class:`repro.service.TuningService` needs when it degrades a timed
    out or rejected request to a heuristic answer.
    """
    configs, evaluator = _heuristic_space(device, setup, grid, budget, samples)
    rng = RandomStreams(seed).python("budgeted-tune")
    n_probes = max(1, min(budget // 2, len(configs)))
    for config in rng.sample(configs, n_probes):
        evaluator.evaluate(config)
    _greedy_ascent(
        evaluator, configs, min(budget, len(configs)) - evaluator.measurements
    )
    return _outcome("budgeted-tune", evaluator, len(configs))
