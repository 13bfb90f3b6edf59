"""Declarative tuning studies: config -> runs -> persisted results.

A *study* evaluates one or more search strategies across a matrix of
(device, setup, n_dms) instances, optionally expanding ``kwargs_ranges``
into strategy-parameter grids (the pykeen ablation idiom: a fixed
``kwargs`` dict plus per-parameter range specifications).  Results are
JSON documents with the same schema-versioning discipline as sweeps and
run ledgers, and — because every stochastic choice draws from
:class:`~repro.utils.rng.RandomStreams` seeded by
``derive_seed(study seed, run id)`` — the same config and seed always
persist to *byte-identical* documents.

Range specifications (``kwargs_ranges[name]``)::

    {"values": [24, 48]}                                  # explicit list
    {"type": "int", "low": 2, "high": 4}                  # 2, 3, 4
    {"type": "int", "low": 2, "high": 16, "scale": "power_two"}  # 2,4,8,16
    {"type": "float", "low": 0.05, "high": 0.2, "steps": 4}      # linspace
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import setup_by_name
from repro.core.persistence import MODEL_REVISION
from repro.core.tuner import AutoTuner
from repro.errors import SchemaVersionError, TuningError, ValidationError
from repro.hardware.catalog import device_by_name
from repro.obs import get_registry, span
from repro.tune.strategy import build_strategy, strategy_accepts
from repro.utils.rng import derive_seed

#: Format version written into every study document.
STUDY_SCHEMA_VERSION: int = 1

#: Schema versions :func:`load_study` still understands.
SUPPORTED_STUDY_SCHEMAS: tuple[int, ...] = (1,)


def _expand_one(name: str, spec: dict) -> list:
    """One range specification -> the list of values it denotes."""
    if not isinstance(spec, dict):
        raise ValidationError(
            f"kwargs_ranges[{name!r}] must be a dict, got {type(spec).__name__}"
        )
    if "values" in spec:
        values = list(spec["values"])
        if not values:
            raise ValidationError(f"kwargs_ranges[{name!r}] has no values")
        return values
    kind = spec.get("type")
    if kind not in ("int", "float"):
        raise ValidationError(
            f"kwargs_ranges[{name!r}] needs 'values' or 'type' int/float"
        )
    try:
        low, high = spec["low"], spec["high"]
    except KeyError as exc:
        raise ValidationError(
            f"kwargs_ranges[{name!r}] is missing {exc.args[0]!r}"
        ) from None
    if high < low:
        raise ValidationError(
            f"kwargs_ranges[{name!r}]: empty range [{low}, {high}]"
        )
    if kind == "int":
        if spec.get("scale") == "power_two":
            value, values = int(low), []
            while value <= high:
                values.append(value)
                value *= 2
            if not values:
                raise ValidationError(
                    f"kwargs_ranges[{name!r}]: no powers of two in range"
                )
            return values
        step = int(spec.get("step", 1))
        if step < 1:
            raise ValidationError(f"kwargs_ranges[{name!r}]: step must be >= 1")
        return list(range(int(low), int(high) + 1, step))
    steps = int(spec.get("steps", 2))
    if steps < 2:
        raise ValidationError(f"kwargs_ranges[{name!r}]: steps must be >= 2")
    width = (float(high) - float(low)) / (steps - 1)
    return [float(low) + i * width for i in range(steps)]


def expand_kwargs_ranges(kwargs_ranges: dict) -> list[dict]:
    """Cross-product of all range axes, deterministically ordered."""
    variants: list[dict] = [{}]
    for name in sorted(kwargs_ranges):
        values = _expand_one(name, kwargs_ranges[name])
        variants = [
            dict(variant, **{name: value})
            for variant in variants
            for value in values
        ]
    return variants


@dataclass(frozen=True)
class StudyConfig:
    """Declarative description of one study (JSON-serialisable).

    ``kwargs`` are fixed strategy arguments applied to every run;
    ``kwargs_ranges`` expand into a grid of per-run overrides.  With
    ``baseline=True`` every instance is also swept exhaustively so each
    run records whether it matched the true optimum.
    """

    title: str
    devices: tuple[str, ...]
    setups: tuple[str, ...]
    instances: tuple[int, ...]
    strategies: tuple[str, ...] = ("model-guided",)
    kwargs: dict = field(default_factory=dict)
    kwargs_ranges: dict = field(default_factory=dict)
    baseline: bool = True
    seed: int = 0
    dm_first: float = 0.0
    dm_step: float = 0.25

    def __post_init__(self) -> None:
        for name in ("devices", "setups", "instances", "strategies"):
            value = tuple(getattr(self, name))
            if not value:
                raise ValidationError(f"study {name} must be non-empty")
            object.__setattr__(self, name, value)
        if not self.title:
            raise ValidationError("study title must be non-empty")
        if self.seed < 0:
            raise ValidationError("study seed must be non-negative")

    def variants(self) -> list[dict]:
        """The expanded per-run strategy-kwarg grid."""
        return expand_kwargs_ranges(self.kwargs_ranges)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "devices": list(self.devices),
            "setups": list(self.setups),
            "instances": list(self.instances),
            "strategies": list(self.strategies),
            "kwargs": dict(self.kwargs),
            "kwargs_ranges": dict(self.kwargs_ranges),
            "baseline": self.baseline,
            "seed": self.seed,
            "dm_first": self.dm_first,
            "dm_step": self.dm_step,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "StudyConfig":
        try:
            return cls(
                title=document["title"],
                devices=tuple(document["devices"]),
                setups=tuple(document["setups"]),
                instances=tuple(document["instances"]),
                strategies=tuple(
                    document.get("strategies", ("model-guided",))
                ),
                kwargs=dict(document.get("kwargs", {})),
                kwargs_ranges=dict(document.get("kwargs_ranges", {})),
                baseline=bool(document.get("baseline", True)),
                seed=int(document.get("seed", 0)),
                dm_first=float(document.get("dm_first", 0.0)),
                dm_step=float(document.get("dm_step", 0.25)),
            )
        except KeyError as exc:
            raise ValidationError(
                f"study config is missing {exc.args[0]!r}"
            ) from None


@dataclass(frozen=True)
class StudyRun:
    """One (instance, strategy, kwargs-variant) cell of a study."""

    run_id: str
    device: str
    setup: str
    n_dms: int
    strategy: str
    kwargs: dict
    seed: int


@dataclass(frozen=True)
class StudyRunResult:
    """Outcome of one study run (plus the baseline comparison)."""

    run: StudyRun
    best_config: tuple[int, int, int, int]
    best_gflops: float
    evaluations: float
    measurements: int
    space_size: int
    matched_optimum: bool | None
    optimum_gflops: float | None

    @property
    def fraction_evaluated(self) -> float:
        if self.space_size <= 0:
            return 0.0
        return self.evaluations / self.space_size


@dataclass(frozen=True)
class StudyResult:
    """A completed study: the config plus every run's result."""

    config: StudyConfig
    results: tuple[StudyRunResult, ...]

    def __post_init__(self) -> None:
        if not self.results:
            raise TuningError("study produced no runs")

    def for_strategy(self, strategy: str) -> tuple[StudyRunResult, ...]:
        return tuple(r for r in self.results if r.run.strategy == strategy)

    @property
    def match_rate(self) -> float:
        """Fraction of baseline-compared runs that found the optimum."""
        judged = [r for r in self.results if r.matched_optimum is not None]
        if not judged:
            return 0.0
        return sum(r.matched_optimum for r in judged) / len(judged)

    @property
    def mean_fraction_evaluated(self) -> float:
        return sum(r.fraction_evaluated for r in self.results) / len(
            self.results
        )

    def summary(self) -> str:
        lines = [
            f"study {self.config.title!r}: {len(self.results)} runs, "
            f"match rate {100.0 * self.match_rate:.1f}%, "
            f"mean cost {100.0 * self.mean_fraction_evaluated:.1f}% of space"
        ]
        for result in self.results:
            mark = (
                "=" if result.matched_optimum
                else ("x" if result.matched_optimum is not None else "?")
            )
            lines.append(
                f"  [{mark}] {result.run.run_id}: "
                f"{result.best_gflops:.1f} GFLOP/s, "
                f"{100.0 * result.fraction_evaluated:.1f}% evaluated"
            )
        return "\n".join(lines)


def _run_id(
    device: str, setup: str, n_dms: int, strategy: str, variant: dict
) -> str:
    suffix = "".join(
        f"+{name}={variant[name]}" for name in sorted(variant)
    )
    return f"{device}:{setup}:{n_dms}:{strategy}{suffix}"


def run_study(config: StudyConfig) -> StudyResult:
    """Execute every run of a study, deterministically.

    Runs are ordered (device, setup, n_dms, strategy, variant) exactly as
    declared; each run's strategy seed is ``derive_seed(config.seed,
    run_id)`` so re-running the same config reproduces every result
    bit-for-bit.
    """
    registry = get_registry()
    variants = config.variants()
    results: list[StudyRunResult] = []
    with span("tune.study", title=config.title) as study_span:
        for device_name in config.devices:
            device = device_by_name(device_name)
            for setup_name in config.setups:
                setup = setup_by_name(setup_name)
                tuner = AutoTuner(device, setup)
                for n_dms in config.instances:
                    grid = DMTrialGrid(
                        n_dms=n_dms,
                        first=config.dm_first,
                        step=config.dm_step,
                    )
                    optimum = (
                        tuner.tune(grid).best.gflops
                        if config.baseline else None
                    )
                    for strategy_name in config.strategies:
                        for variant in variants:
                            run = _build_run(
                                config, device_name, setup_name, n_dms,
                                strategy_name, variant,
                            )
                            strategy = build_strategy(
                                strategy_name, **run.kwargs
                            )
                            outcome = strategy.search(tuner, grid)
                            matched = (
                                None if optimum is None
                                else outcome.matches(optimum)
                            )
                            results.append(
                                StudyRunResult(
                                    run=run,
                                    best_config=outcome.best.config.as_tuple(),
                                    best_gflops=outcome.best.gflops,
                                    evaluations=outcome.evaluations,
                                    measurements=outcome.measurements,
                                    space_size=outcome.space_size,
                                    matched_optimum=matched,
                                    optimum_gflops=optimum,
                                )
                            )
                            registry.counter("repro_tune_runs_total").inc()
        study_span.attributes["runs"] = len(results)
    registry.counter("repro_tune_studies_total").inc()
    return StudyResult(config=config, results=tuple(results))


def _build_run(
    config: StudyConfig,
    device: str,
    setup: str,
    n_dms: int,
    strategy: str,
    variant: dict,
) -> StudyRun:
    run_id = _run_id(device, setup, n_dms, strategy, variant)
    kwargs = {**config.kwargs, **variant}
    if strategy_accepts(strategy, "seed") and "seed" not in kwargs:
        kwargs["seed"] = derive_seed(config.seed, run_id)
    return StudyRun(
        run_id=run_id,
        device=device,
        setup=setup,
        n_dms=n_dms,
        strategy=strategy,
        kwargs=kwargs,
        seed=kwargs.get("seed", config.seed),
    )


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def study_to_document(result: StudyResult) -> dict:
    """Serialise a study result to a JSON-ready dictionary.

    Deliberately timestamp-free: the document is a pure function of the
    study config, the seed, and the model revision, which is what makes
    the byte-identical-persistence guarantee testable.
    """
    return {
        "schema": STUDY_SCHEMA_VERSION,
        "model_revision": MODEL_REVISION,
        "config": result.config.to_dict(),
        "results": [
            {
                "run": {
                    "run_id": r.run.run_id,
                    "device": r.run.device,
                    "setup": r.run.setup,
                    "n_dms": r.run.n_dms,
                    "strategy": r.run.strategy,
                    "kwargs": dict(r.run.kwargs),
                    "seed": r.run.seed,
                },
                "best_config": list(r.best_config),
                "best_gflops": r.best_gflops,
                "evaluations": r.evaluations,
                "measurements": r.measurements,
                "space_size": r.space_size,
                "matched_optimum": r.matched_optimum,
                "optimum_gflops": r.optimum_gflops,
            }
            for r in result.results
        ],
    }


def save_study(result: StudyResult, path: str | Path) -> Path:
    """Write a study document to ``path``; returns the path.

    ``sort_keys`` plus the timestamp-free document make the bytes a pure
    function of (config, seed, model revision).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(study_to_document(result), indent=1, sort_keys=True)
    )
    return path


def load_study(path: str | Path) -> StudyResult:
    """Load a persisted study document (no re-simulation)."""
    document = json.loads(Path(path).read_text())
    schema = document.get("schema")
    if schema not in SUPPORTED_STUDY_SCHEMAS:
        if isinstance(schema, int) and schema > max(SUPPORTED_STUDY_SCHEMAS):
            raise SchemaVersionError(
                f"unsupported study schema {schema!r}: this file was "
                f"written by a newer version of repro (this build reads "
                f"schemas up to {max(SUPPORTED_STUDY_SCHEMAS)})"
            )
        raise ValidationError(f"unsupported study schema {schema!r}")
    config = StudyConfig.from_dict(document["config"])
    results = []
    for entry in document["results"]:
        run_doc = entry["run"]
        run = StudyRun(
            run_id=run_doc["run_id"],
            device=run_doc["device"],
            setup=run_doc["setup"],
            n_dms=int(run_doc["n_dms"]),
            strategy=run_doc["strategy"],
            kwargs=dict(run_doc["kwargs"]),
            seed=int(run_doc["seed"]),
        )
        results.append(
            StudyRunResult(
                run=run,
                best_config=tuple(entry["best_config"]),
                best_gflops=float(entry["best_gflops"]),
                evaluations=float(entry["evaluations"]),
                measurements=int(entry["measurements"]),
                space_size=int(entry["space_size"]),
                matched_optimum=entry["matched_optimum"],
                optimum_gflops=entry["optimum_gflops"],
            )
        )
    return StudyResult(config=config, results=tuple(results))
