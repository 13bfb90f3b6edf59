"""Command-line interface: ``repro-dedisp`` / ``python -m repro``.

Subcommands:

* ``devices`` — print Table I.
* ``tune`` — auto-tune one (device, setup, DM-count) combination and show
  the optimum, the sweep statistics, and the real-time verdict.
* ``experiment`` — regenerate one of the paper's tables/figures by id
  (``table1``, ``fig2`` ... ``fig16``, ``ai``, ``deployment``, the
  ``ablation-*`` studies), or ``all``; ``--export DIR`` also writes
  CSV/JSON.
* ``ddplan`` — smearing-optimal staged DM plan for a setup.
* ``service`` — run the concurrent tuning service against simulated
  client traffic and print the cache/dedup/latency statistics plus a
  metrics-registry snapshot (persisted for ``repro obs``).
* ``survey`` — run the resumable multi-beam survey driver: a catalogue
  scenario realized beam-correlated (signal localized to adjacent
  beams, RFI in all beams), searched per beam, dispatched on the
  simulated fleet, and coincidence-vetoed across beams; ``--ledger`` /
  ``--resume`` checkpoint completed beams byte-identically,
  ``--inject`` adds a crash, a straggler and transient errors to the
  fleet stage, and ``--smoke`` runs the acceptance gate.
* ``search`` — stream an injected-pulse synthetic observation through
  the real-time candidate search (facade-executed dedispersion, boxcar
  matched filtering, sifting with RFI vetoes) and verify the injected
  candidate is recovered; ``--backend both`` runs the tiled and
  vectorized kernel executors back to back.
* ``scenarios`` — list the seeded scenario catalogue, run its matrix,
  or record / check the golden regression files.
* ``obs`` — dump, export (Prometheus text / JSON), or reset
  the observability snapshot accumulated by the other subcommands.
"""

from __future__ import annotations

import argparse
import sys

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup, setup_by_name
from repro.core.stats import OptimumStatistics
from repro.core.tuner import AutoTuner
from repro.errors import ReproError
from repro.hardware.catalog import device_by_name
from repro.experiments import SweepCache, run_experiment
from repro.experiments.registry import experiment_ids


def _persist_obs(quiet: bool = False) -> None:
    """Merge this process's metrics into the obs snapshot file."""
    from repro.obs import get_registry, save_snapshot

    registry = get_registry()
    if not len(registry):
        return
    path = save_snapshot(registry)
    if not quiet:
        print(f"observability snapshot merged into {path}")


def _cmd_devices(_args: argparse.Namespace) -> int:
    print(run_experiment("table1").render())
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    device = device_by_name(args.device)
    setup = setup_by_name(args.setup)
    grid = (
        DMTrialGrid.zero_dm(args.dms)
        if args.zero_dm
        else DMTrialGrid(args.dms, step=args.dm_step)
    )
    outcome = None
    if args.load:
        from repro.core.persistence import load_sweep

        result = load_sweep(args.load)
    elif args.strategy != "exhaustive":
        from repro.tune import build_strategy

        outcome = build_strategy(args.strategy).search(
            AutoTuner(device, setup), grid
        )
        result = outcome.result
    else:
        result = AutoTuner(device, setup).tune(grid)
    if args.save:
        from repro.core.persistence import save_sweep

        print(f"sweep saved to {save_sweep(result, args.save)}")
    best = result.best
    stats = OptimumStatistics.from_population(result.population_gflops)
    print(f"device : {device.name}")
    print(f"setup  : {setup.describe()}")
    print(f"grid   : {grid.n_dms} DMs, step {grid.step}")
    print(f"optimum: {best.config.describe()}")
    print(f"         {best.metrics.summary()}")
    print(f"sweep  : {stats.summary()}")
    if outcome is not None:
        print(
            f"search : {outcome.strategy} evaluated "
            f"{outcome.evaluations:.1f}/{outcome.space_size} candidates "
            f"({100.0 * outcome.fraction_evaluated:.1f}% of the space, "
            f"{outcome.measurements} measurements)"
        )
    needed = setup.realtime_gflops(grid.n_dms)
    verdict = "yes" if best.gflops >= needed else "NO"
    print(f"real-time: {verdict} (needs {needed:.1f} GFLOP/s)")
    _persist_obs(quiet=True)
    return 0


def _parse_instances(text: str) -> list[int]:
    instances = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            instances.append(int(token))
        except ValueError:
            raise ReproError(
                f"invalid instance {token!r} in --instances (expected integers)"
            ) from None
    if not instances:
        raise ReproError("no instances given (use --instances N,N,...)")
    return instances


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from repro.experiments.registry import EXPERIMENTS

    ids = experiment_ids() if args.id == "all" else (args.id,)
    cache = SweepCache()
    for experiment_id in ids:
        kwargs = {}
        if "cache" in inspect.signature(EXPERIMENTS[experiment_id]).parameters:
            kwargs["cache"] = cache
        result = run_experiment(experiment_id, **kwargs)
        if args.plot and result.series:
            print(result.render_plot())
        else:
            print(result.render())
        if args.export:
            from repro.analysis.export import write_result

            for path in write_result(result, args.export):
                print(f"  wrote {path}")
        print()
    return 0


def _cmd_ddplan(args: argparse.Namespace) -> int:
    from repro.astro.ddplan import build_ddplan

    setup = setup_by_name(args.setup)
    plan = build_ddplan(
        setup, max_dm=args.max_dm, tolerance=args.tolerance
    )
    print(plan.describe())
    finest = plan.stages[0].dm_step
    fixed = plan.naive_trials(finest)
    print(
        f"  (a fixed grid at the finest step {finest:.4f} would need "
        f"{fixed} trials; the paper's fixed {args.compare_step} step, "
        f"{plan.naive_trials(args.compare_step)} trials, under-resolves "
        "the low-DM stages)"
    )
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    from repro.service import TuneRequest, TuningService
    from repro.utils.rng import RandomStreams

    device = device_by_name(args.device)
    setup = setup_by_name(args.setup)
    instances = _parse_instances(args.instances)
    if args.load < 1:
        raise ReproError("--load must be >= 1")

    with TuningService(
        store_dir=args.store or None,
        max_workers=args.workers,
        timeout_s=args.timeout,
    ) as service:
        if args.warm_up:
            for response in service.warm_up(device, setup, instances):
                print(f"warm-up  {response.describe()}")

        wanted = instances * args.load
        RandomStreams(seed=0).python("order").shuffle(wanted)
        responses = [
            service.resolve(
                TuneRequest(
                    setup=setup,
                    n_dms=n,
                    device=device,
                    strategy=args.strategy or None,
                )
            )
            for n in wanted
        ]

        print(
            f"\n{len(wanted)} requests against {device.name}/{setup.name}:"
        )
        for n in instances:
            best = next(r.best for r in responses if r.key.n_dms == n)
            print(
                f"  {n:>6} DMs -> {best.config.describe()} "
                f"{best.gflops:.1f} GFLOP/s"
            )

        if args.smoke:
            _service_pipeline_smoke(service, device)

    # Leaving the block drains the pool, so the stats count the
    # background sweeps of requests that degraded on timeout too.
    print()
    print(service.snapshot().render())

    from repro.obs import get_registry, render_table

    print("\nmetrics registry:")
    print(render_table(get_registry()))
    _persist_obs()
    return 0


def _service_pipeline_smoke(service, device) -> None:
    """Run one tuned configuration end to end through the pipeline.

    Proves the service's answer actually executes: a small synthetic
    instance is tuned *through the service*, and the resulting plan
    dedisperses one noise chunk through the facade's streaming mode —
    so one ``repro service`` run populates tuner, service, pipeline and
    kernel metrics for ``repro obs export``.
    """
    from repro.astro.source import NoiseSource, stream_chunks
    from repro.core.plan import DedispersionPlan
    from repro.run import ExecutionRequest, execute
    from repro.service import TuneRequest
    from repro.utils.rng import RandomStreams

    setup = ObservationSetup(
        name="obs-smoke",
        channels=32,
        lowest_frequency=138.0,
        channel_bandwidth=0.2,
        samples_per_second=1000,
        samples_per_batch=1000,
    )
    grid = DMTrialGrid(n_dms=8, first=1.0, step=1.0)
    response = service.resolve(
        TuneRequest(setup=setup, n_dms=grid, device=device)
    )
    plan = DedispersionPlan.create(
        setup, grid, device, config=response.best.config
    )
    chunks, _ = stream_chunks(
        NoiseSource(), setup, grid, 1, RandomStreams(0),
        chunk_samples=plan.samples,
    )
    result = execute(
        ExecutionRequest(plan=plan, chunks=chunks)
    ).chunk_results[0]
    print(
        f"\npipeline smoke: {response.source} config "
        f"{response.best.config.describe()} processed 1 chunk "
        f"({'real-time' if result.realtime else 'NOT real-time'}, "
        f"modelled {1e3 * result.simulated_seconds:.2f} ms)"
    )


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.astro.signal_gen import SyntheticPulsar
    from repro.astro.source import (
        CompositeSource,
        NoiseSource,
        PulsarSource,
        stream_chunks,
    )
    from repro.core.plan import DedispersionPlan
    from repro.search import SearchConfig, StreamingSearch
    from repro.utils.rng import RandomStreams

    import dataclasses

    # Both flags shape the injected pulsar (its period and its DM), so
    # they are checked before the plan is tuned.
    if args.chunks < 1:
        raise ReproError(f"--chunks must be >= 1, got {args.chunks}")
    if not 0 < args.dm_step < float("inf"):
        raise ReproError(
            f"--dm-step must be positive and finite, got {args.dm_step}"
        )
    setup = setup_by_name(args.setup)
    if args.samples:
        setup = dataclasses.replace(setup, samples_per_batch=args.samples)
    # The grid starts one step above DM 0 so the zero-DM RFI filter can
    # run (it nulls the DM-0 series; see repro.astro.rfi).
    grid = DMTrialGrid(n_dms=args.dms, first=args.dm_step, step=args.dm_step)
    device = device_by_name(args.device)
    plan = DedispersionPlan.create(setup, grid, device)
    chunk_seconds = plan.samples / setup.samples_per_second

    true_dm = float(grid.values[args.dms // 2])
    true_trial = args.dms // 2
    # A few pulses inside the stream regardless of chunk cadence.
    period = args.chunks * chunk_seconds / 3.0
    source = CompositeSource((
        NoiseSource(1.0),
        PulsarSource(SyntheticPulsar(period, dm=true_dm, amplitude=0.3)),
    ))
    chunks, _ = stream_chunks(
        source, setup, grid, args.chunks, RandomStreams(args.seed),
        chunk_samples=plan.samples,
    )

    backends = (
        ("tiled", "vectorized") if args.backend == "both" else (args.backend,)
    )
    config = SearchConfig(
        snr_threshold=args.threshold,
        rfi_mitigation=args.rfi,
        fused=not args.staged,
    )
    print(plan.describe())
    print(f"injected pulsar at DM {true_dm:.2f} (trial {true_trial})")
    print()
    all_ok = True
    for backend in backends:
        report = StreamingSearch(plan, config, backend=backend).run(
            iter(chunks)
        )
        print(report.summary())
        path = "staged" if args.staged else "fused"
        print(
            f"  peak working set [{path}]: {report.peak_bytes:,} bytes/chunk"
        )
        best = report.best
        recovered = (
            best is not None
            and abs(best.best.dm_index - true_trial) <= 1
            and best.best.snr >= args.threshold
        )
        all_ok &= recovered
        print(f"  recovery [{backend}]: "
              f"{'CORRECT' if recovered else 'MISSED'}")
        print()
    _persist_obs()
    return 0 if all_ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        default_snapshot_path,
        get_registry,
        load_snapshot,
        registry_to_dict,
        render_table,
        to_prometheus,
    )
    from pathlib import Path

    path = Path(args.input) if args.input else default_snapshot_path()

    if args.action == "reset":
        get_registry().reset()
        if path.exists():
            path.unlink()
            print(f"removed {path}")
        else:
            print(f"no snapshot at {path}")
        return 0

    if path.exists():
        registry = load_snapshot(path)
    else:
        # No persisted snapshot: fall back to this process's registry
        # (usually empty — the snapshot is written by the other
        # subcommands, e.g. `repro service`).
        registry = get_registry()

    if args.action == "dump":
        print(render_table(registry))
        return 0

    # action == "export"
    if args.format == "prom":
        text = to_prometheus(registry)
    else:
        text = json.dumps(registry_to_dict(registry), indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _write_survey_bench(path: str, docs: list) -> None:
    import json
    from pathlib import Path

    document = {"bench": "survey", "runs": docs}
    Path(path).write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {path}")


def _survey_smoke(args: argparse.Namespace, faults) -> int:
    """The survey acceptance gate: recall, FPs, fleet, resume bytes."""
    import tempfile
    from pathlib import Path

    from repro.errors import PipelineError
    from repro.survey import SurveyPlan, run_survey

    n_beams = max(args.beams, 8)
    failures: list[str] = []
    docs: list = []
    print(
        f"survey smoke: {n_beams} beams on setup {args.setup!r}"
        + (", fault injection on" if args.inject else "")
    )
    for scenario in ("giant_pulse_train", "rfi_storm"):
        plan = SurveyPlan(
            scenario=scenario,
            setup=args.setup,
            n_beams=n_beams,
            seed=args.seed,
            faults=faults,
        )
        report = run_survey(plan)
        docs.append(report.as_dict())
        score = report.score
        ok = (
            score.recall >= 0.95
            and score.fp_reduced
            and report.fleet.complete
        )
        if scenario == "rfi_storm":
            # The storm must demonstrate the veto: strictly fewer
            # false positives after coincidencing, not just no worse.
            ok = ok and (
                score.post_false_positives < score.pre_false_positives
            )
        print(
            f"  {scenario:20s} recall {score.recall:.2f} "
            f"fp {score.pre_false_positives}->"
            f"{score.post_false_positives} {report.verdict} "
            f"[{'ok' if ok else 'FAIL'}]"
        )
        if not ok:
            failures.append(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        plan = SurveyPlan(
            scenario="rfi_storm",
            setup=args.setup,
            n_beams=n_beams,
            seed=args.seed,
            faults=faults,
        )
        straight = Path(tmp) / "straight.jsonl"
        crashed = Path(tmp) / "crashed.jsonl"
        run_survey(plan, ledger_path=straight)
        try:
            run_survey(plan, ledger_path=crashed, crash_after=3)
        except PipelineError:
            pass
        run_survey(plan, ledger_path=crashed, resume=True)
        identical = straight.read_bytes() == crashed.read_bytes()
        print(
            f"  resume after injected crash byte-identical: "
            f"{'yes' if identical else 'NO'}"
        )
        if not identical:
            failures.append("resume-byte-identity")
    if args.bench:
        _write_survey_bench(args.bench, docs)
    _persist_obs(quiet=True)
    if failures:
        print(f"survey smoke FAILED: {', '.join(failures)}")
        return 1
    print("survey smoke passed")
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.sched import FaultProfile
    from repro.survey import SurveyPlan, run_survey

    faults = (
        FaultProfile.default_injection()
        if args.inject
        else FaultProfile.none()
    )
    if args.smoke:
        return _survey_smoke(args, faults)
    if args.backend == "both" and args.ledger:
        raise ReproError(
            "--ledger pins one survey identity; pick --backend "
            "tiled, vectorized, or auto"
        )
    backends = (
        ["tiled", "vectorized"]
        if args.backend == "both"
        else [args.backend]
    )
    exit_code = 0
    docs: list = []
    for backend in backends:
        plan = SurveyPlan(
            scenario=args.scenario,
            setup=args.setup,
            n_beams=args.beams,
            n_dms=args.dms,
            seed=args.seed,
            backend=None if backend == "auto" else backend,
            n_chunks=args.chunks,
            signal_radius=args.signal_radius,
            adjacent_attenuation=args.attenuation,
            faults=faults,
        )
        report = run_survey(
            plan,
            ledger_path=args.ledger,
            resume=args.resume,
            crash_after=args.crash_after,
        )
        print(report.summary())
        if len(backends) > 1:
            print()
        docs.append(report.as_dict())
        if not report.score.fp_reduced:
            exit_code = 1
    if args.bench:
        _write_survey_bench(args.bench, docs)
    _persist_obs(quiet=True)
    return exit_code


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import (
        SCENARIO_SETUPS,
        run_matrix,
        scenario_by_name,
        scenario_catalog,
        setup_by_key,
    )

    if args.action == "list":
        for scenario in scenario_catalog():
            marker = "empty " if scenario.expect_empty else "signal"
            print(f"  {scenario.name:22s} [{marker}] {scenario.description}")
        print(f"setups: {', '.join(s.key for s in SCENARIO_SETUPS)}")
        return 0

    scenarios = None
    if args.scenario:
        scenarios = tuple(
            scenario_by_name(name) for name in args.scenario
        )
    setups = None
    if args.setups:
        setups = tuple(setup_by_key(key) for key in args.setups)
    backends = (
        ("tiled", "vectorized")
        if args.backend == "both"
        else (args.backend,)
    )
    mode = {"run": "run", "record": "record", "check": "check"}[args.action]
    report = run_matrix(
        scenarios=scenarios,
        setups=setups,
        backends=backends,
        seed=args.seed,
        goldens_dir=args.goldens,
        mode=mode,
    )
    print(report.summary())
    if mode == "record":
        print(f"goldens recorded under {report.goldens_dir}")
    if args.bench:
        from pathlib import Path

        path = Path(args.bench)
        path.write_text(
            json.dumps(report.bench_document(), indent=1, sort_keys=True)
            + "\n"
        )
        print(f"wrote {path}")
    _persist_obs(quiet=True)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-dedisp",
        description="Auto-tuning dedispersion reproduction (Sclocco et al. 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="print Table I").set_defaults(
        func=_cmd_devices
    )

    tune = sub.add_parser("tune", help="auto-tune one combination")
    tune.add_argument("--device", default="HD7970")
    tune.add_argument("--setup", default="apertif")
    tune.add_argument("--dms", type=int, default=1024)
    tune.add_argument("--dm-step", type=float, default=0.25)
    tune.add_argument("--zero-dm", action="store_true")
    tune.add_argument(
        "--save", metavar="PATH", default="",
        help="persist the sweep as JSON for later --load",
    )
    tune.add_argument(
        "--load", metavar="PATH", default="",
        help="load a previously saved sweep instead of re-tuning",
    )
    tune.add_argument(
        "--strategy",
        choices=["exhaustive", "halving", "model-guided"],
        default="exhaustive",
        help="search strategy (non-exhaustive ones evaluate a fraction "
             "of the space; see docs/tuning.md)",
    )
    tune.set_defaults(func=_cmd_tune)

    exp = sub.add_parser("experiment", help="regenerate a table/figure")
    exp.add_argument(
        "id", choices=list(experiment_ids()) + ["all"], metavar="ID"
    )
    exp.add_argument(
        "--export", metavar="DIR", default="",
        help="also write the result as CSV and JSON into DIR",
    )
    exp.add_argument(
        "--plot", action="store_true",
        help="render figure experiments as an ASCII chart",
    )
    exp.set_defaults(func=_cmd_experiment)

    ddplan = sub.add_parser(
        "ddplan", help="smearing-optimal staged DM plan"
    )
    ddplan.add_argument("--setup", default="apertif")
    ddplan.add_argument("--max-dm", type=float, default=100.0)
    ddplan.add_argument("--tolerance", type=float, default=1.25)
    ddplan.add_argument("--compare-step", type=float, default=0.25)
    ddplan.set_defaults(func=_cmd_ddplan)

    service = sub.add_parser(
        "service", help="tuning service with cache statistics"
    )
    service.add_argument("--device", default="HD7970")
    service.add_argument("--setup", default="apertif")
    service.add_argument(
        "--instances", default="32,64,128,256",
        help="comma-separated DM counts to request",
    )
    service.add_argument(
        "--load", type=int, default=3,
        help="requests per instance (issued in a seeded shuffled order)",
    )
    service.add_argument(
        "--workers", type=int, default=2,
        help="tuning worker threads",
    )
    service.add_argument(
        "--timeout", type=float, default=None,
        help="seconds a request waits for its sweep before degrading "
        "(inf: no limit)",
    )
    service.add_argument(
        "--strategy", default="",
        help="per-request search strategy name (e.g. model-guided)",
    )
    service.add_argument(
        "--store", metavar="DIR", default="",
        help="directory for the persistent sweep tier",
    )
    service.add_argument(
        "--warm-up", action="store_true",
        help="pre-tune all instances before the generated load",
    )
    service.add_argument(
        "--no-smoke", dest="smoke", action="store_false",
        help="skip the end-to-end pipeline smoke after the generated load",
    )
    service.set_defaults(func=_cmd_service, smoke=True)

    obs = sub.add_parser(
        "obs", help="dump/export/reset the observability snapshot"
    )
    obs.add_argument(
        "action", choices=["dump", "export", "reset"],
        help="dump: human table; export: machine format; reset: clear",
    )
    obs.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="export format (Prometheus text, JSON snapshot)",
    )
    obs.add_argument(
        "--input", metavar="PATH", default="",
        help="snapshot file (default: $REPRO_OBS_PATH or .repro-obs.json)",
    )
    obs.add_argument(
        "--output", metavar="PATH", default="",
        help="write the export to PATH instead of stdout",
    )
    obs.set_defaults(func=_cmd_obs)

    search = sub.add_parser(
        "search", help="real-time candidate search on a synthetic stream"
    )
    search.add_argument("--device", default="HD7970")
    search.add_argument("--setup", default="apertif")
    search.add_argument(
        "--backend",
        choices=["tiled", "vectorized", "auto", "both"],
        default="both",
        help="kernel executor(s); 'both' runs tiled then vectorized",
    )
    search.add_argument(
        "--staged", action="store_true",
        help="run the staged (materialise-the-plane) path instead of the "
             "fused dedisperse→detect default, for comparison",
    )
    search.add_argument(
        "--dms", type=int, default=32, help="trial-DM count"
    )
    search.add_argument("--dm-step", type=float, default=1.0)
    search.add_argument(
        "--chunks", type=int, default=3, help="stream chunks to search"
    )
    search.add_argument(
        "--samples", type=int, default=1000,
        help="output samples per chunk (0: the setup's full batch)",
    )
    search.add_argument(
        "--threshold", type=float, default=6.0,
        help="detection S/N floor",
    )
    search.add_argument("--seed", type=int, default=0)
    search.add_argument(
        "--no-rfi", dest="rfi", action="store_false",
        help="skip channel masking and the zero-DM filter",
    )
    search.set_defaults(func=_cmd_search, rfi=True)

    survey = sub.add_parser(
        "survey",
        help="resumable multi-beam survey with cross-beam "
        "coincidence vetoing",
    )
    survey.add_argument(
        "--scenario", default="giant_pulse_train",
        help="catalogue scenario realized beam-correlated "
        "(default: giant_pulse_train)",
    )
    survey.add_argument(
        "--setup", default="low", choices=("low", "high"),
        help="benchmark setup column",
    )
    survey.add_argument(
        "--beams", type=int, default=8, help="beam count"
    )
    survey.add_argument(
        "--dms", type=int, default=None,
        help="override the setup's trial-DM count",
    )
    survey.add_argument(
        "--chunks", type=int, default=None,
        help="override the scenario's chunk count",
    )
    survey.add_argument(
        "--backend",
        choices=("tiled", "vectorized", "auto", "both"),
        default="auto",
        help="kernel executor(s); 'both' runs tiled then vectorized",
    )
    survey.add_argument("--seed", type=int, default=0)
    survey.add_argument(
        "--signal-radius", type=int, default=1,
        help="beams around the centre carrying the signal",
    )
    survey.add_argument(
        "--attenuation", type=float, default=0.7,
        help="per-beam-step signal amplitude falloff",
    )
    survey.add_argument(
        "--inject", action="store_true",
        help="inject crashes/stragglers/transients into the fleet stage",
    )
    survey.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="checkpoint completed beams to this JSONL survey ledger",
    )
    survey.add_argument(
        "--resume", action="store_true",
        help="load the --ledger first and skip its completed beams",
    )
    survey.add_argument(
        "--crash-after", type=int, default=None, metavar="N",
        help="inject a crash (partial ledger line) after N new beams",
    )
    survey.add_argument(
        "--smoke", action="store_true",
        help="acceptance gate: recall/FP thresholds, a complete fleet "
        "and the crash-resume byte-identity check (honours --inject)",
    )
    survey.add_argument(
        "--bench", default=None, metavar="PATH",
        help="also write the BENCH_survey.json document to PATH",
    )
    survey.set_defaults(func=_cmd_survey)

    scen = sub.add_parser(
        "scenarios",
        help="seeded end-to-end scenarios with golden regression checks",
    )
    scen.add_argument(
        "action",
        choices=("list", "run", "record", "check"),
        help="list the catalogue, run the matrix, record or check goldens",
    )
    scen.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to one scenario (repeatable; default: all)",
    )
    scen.add_argument(
        "--setups",
        nargs="+",
        default=None,
        metavar="KEY",
        help="restrict to setup columns (default: all)",
    )
    scen.add_argument(
        "--backend",
        choices=("tiled", "vectorized", "both"),
        default="both",
        help="kernel backend(s); 'both' also asserts bit-identical parity",
    )
    scen.add_argument(
        "--seed", type=int, default=None,
        help="override the per-scenario seeds",
    )
    scen.add_argument(
        "--goldens", default=None, metavar="DIR",
        help="goldens directory (default: results/goldens)",
    )
    scen.add_argument(
        "--bench", default=None, metavar="PATH",
        help="also write the BENCH_scenarios.json document to PATH",
    )
    scen.set_defaults(func=_cmd_scenarios)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
