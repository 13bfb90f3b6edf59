"""Command-line interface: ``repro-dedisp`` / ``python -m repro``.

Subcommands:

* ``devices`` — print Table I.
* ``tune`` — auto-tune one (device, setup, DM-count) combination and show
  the optimum, the sweep statistics, and the real-time verdict.
* ``experiment`` — regenerate one of the paper's tables/figures by id
  (``table1``, ``fig2`` ... ``fig16``, ``ai``, ``deployment``, the
  ``ablation-*`` studies), or ``all``; ``--export DIR`` also writes
  CSV/JSON.
* ``demo`` — end-to-end functional run: synthesize a dispersed pulsar,
  dedisperse it with the tuned kernel, and report the recovered DM.
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
* ``obs`` — dump, export (Prometheus text / JSON lines / JSON), or reset
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
                f"invalid instance {token!r} (expected integers)"
            ) from None
    if not instances:
        raise ReproError("no instances given (expected N,N,...)")
    return instances


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.tune import run_ablation

    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    setups = [s.strip() for s in args.setups.split(",") if s.strip()]
    report = run_ablation(
        devices,
        setups,
        _parse_instances(args.instances),
        strategy=args.strategy,
        dm_step=args.dm_step,
        seed=args.seed,
    )
    print(report.render())
    full = report.full
    print(
        f"\nfull {report.strategy}: "
        f"{100.0 * full.match_rate:.0f}% optimum match at "
        f"{100.0 * full.mean_fraction:.1f}% mean cost"
    )
    if args.out:
        print(f"report written to {report.save(args.out)}")
    _persist_obs(quiet=True)
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    import json as json_module

    from pathlib import Path

    from repro.tune import StudyConfig, run_study, save_study

    if args.config:
        document = json_module.loads(Path(args.config).read_text())
        config = StudyConfig.from_dict(document)
    else:
        config = StudyConfig(
            title=args.title,
            devices=tuple(
                d.strip() for d in args.devices.split(",") if d.strip()
            ),
            setups=tuple(
                s.strip() for s in args.setups.split(",") if s.strip()
            ),
            instances=tuple(_parse_instances(args.instances)),
            strategies=tuple(
                s.strip() for s in args.strategies.split(",") if s.strip()
            ),
            seed=args.seed,
            dm_step=args.dm_step,
        )
    result = run_study(config)
    print(result.summary())
    if args.out:
        print(f"study written to {save_study(result, args.out)}")
    _persist_obs(quiet=True)
    return 0


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
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import (
        ServiceClient,
        TenantAdmission,
        TuneRequest,
        TuningService,
    )
    from repro.utils.rng import RandomStreams

    device = device_by_name(args.device)
    setup = setup_by_name(args.setup)
    instances = []
    for token in args.instances.split(","):
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
    if args.tenants < 1:
        raise ReproError("--tenants must be >= 1")
    if args.load < 1:
        raise ReproError("--load must be >= 1")

    admission = None
    if args.admission_rate is not None:
        admission = TenantAdmission(
            capacity=args.admission_burst, refill_per_s=args.admission_rate
        )

    with TuningService(
        store_dir=args.store or None,
        admission=admission,
        max_workers=args.workers,
        timeout_s=args.timeout,
    ) as service:
        if args.warm_up:
            for response in service.warm_up(device, setup, instances):
                print(f"warm-up  {response.describe()}")

        def tenant_worker(tenant_id: int) -> list:
            client = ServiceClient(service, tenant=f"tenant{tenant_id}")
            streams = RandomStreams(seed=tenant_id)
            wanted = instances * args.load
            streams.python("order").shuffle(wanted)
            return [
                client.resolve(
                    TuneRequest(
                        setup=setup,
                        n_dms=n,
                        device=device,
                        priority=args.priority,
                        strategy=args.strategy or None,
                    )
                )
                for n in wanted
            ]

        with ThreadPoolExecutor(max_workers=args.tenants) as pool:
            per_tenant = list(pool.map(tenant_worker, range(args.tenants)))
        all_responses = [r for responses in per_tenant for r in responses]

        print(
            f"\n{args.tenants} tenants x "
            f"{len(instances) * args.load} requests against "
            f"{device.name}/{setup.name}:"
        )
        for n in instances:
            best = next(r.best for r in all_responses if r.key.n_dms == n)
            print(
                f"  {n:>6} DMs -> {best.config.describe()} "
                f"{best.gflops:.1f} GFLOP/s"
            )
        print()
        print(service.snapshot().render())

        def throttled(responses) -> int:
            return sum(r.source == "degraded-admission" for r in responses)

        print(
            f"tenants: {len(all_responses)} requests, "
            f"{throttled(all_responses)} throttled; "
            f"{sum(r.degraded for r in all_responses)} degraded"
        )
        for responses in per_tenant:
            print(
                f"  tenant {responses[0].tenant}: {len(responses)} requests, "
                f"{throttled(responses)} throttled"
            )

        if args.smoke:
            _service_pipeline_smoke(
                ServiceClient(service, tenant="smoke"), device
            )

    from repro.obs import get_registry, render_table

    print("\nmetrics registry:")
    print(render_table(get_registry()))
    _persist_obs()
    return 0


def _service_pipeline_smoke(client, device) -> None:
    """Run one tuned configuration end to end through the pipeline.

    Proves the service's answer actually executes: a small synthetic
    instance is tuned *through the client*, the resulting plan
    dedisperses one chunk through the facade's streaming mode, and the
    same launch goes through the mini OpenCL runtime — so one ``repro
    service`` run populates tuner, service, pipeline, and simulator
    metrics for ``repro obs export``.
    """
    import numpy as np

    from repro.astro.telescope import StreamChunk
    from repro.core.plan import DedispersionPlan
    from repro.opencl_sim import CommandQueue, Context, SimDevice
    from repro.run import ExecutionRequest, execute
    from repro.service import TuneRequest

    setup = ObservationSetup(
        name="obs-smoke",
        channels=32,
        lowest_frequency=138.0,
        channel_bandwidth=0.2,
        samples_per_second=1000,
        samples_per_batch=1000,
    )
    grid = DMTrialGrid(n_dms=8, first=1.0, step=1.0)
    response = client.resolve(
        TuneRequest(setup=setup, n_dms=grid, device=device)
    )
    plan = DedispersionPlan.create(
        setup, grid, device, config=response.best.config
    )
    overlap = int(plan.delays.max(initial=0))
    rng = np.random.default_rng(0)
    data = rng.normal(
        size=(setup.channels, plan.samples + overlap)
    ).astype(np.float32)
    chunk = StreamChunk(
        beam_index=0, sequence=0, data=data,
        samples=plan.samples, overlap=overlap,
    )
    result = execute(
        ExecutionRequest(plan=plan, chunks=(chunk,))
    ).chunk_results[0]
    context = Context(SimDevice(device))
    queue = CommandQueue(context)
    input_buffer = context.alloc(data.shape)
    input_buffer.write(data)
    output_buffer = context.alloc((grid.n_dms, plan.samples))
    event = plan.enqueue(queue, input_buffer, output_buffer)
    print(
        f"\npipeline smoke: {response.source} config "
        f"{response.best.config.describe()} processed 1 chunk "
        f"({'real-time' if result.realtime else 'NOT real-time'}, "
        f"modelled {1e3 * (event.simulated_seconds or 0):.2f} ms)"
    )


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.astro.signal_gen import SyntheticPulsar
    from repro.astro.telescope import Telescope
    from repro.core.plan import DedispersionPlan
    from repro.search import SearchConfig, StreamingSearch

    import dataclasses

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
    telescope = Telescope(setup=setup, noise_sigma=1.0, seed=args.seed)
    beam = telescope.add_beam(
        pulsars=(SyntheticPulsar(period, dm=true_dm, amplitude=0.3),)
    )
    chunks = list(
        telescope.stream(beam, args.chunks, grid, chunk_seconds=chunk_seconds)
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
        to_jsonl,
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
    elif args.format == "jsonl":
        text = to_jsonl(registry)
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


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.astro.dispersion import max_delay_samples
    from repro.astro.observation import ObservationSetup
    from repro.astro.signal_gen import SyntheticPulsar
    from repro.astro.snr import detect_dm
    from repro.astro.source import CompositeSource, NoiseSource, PulsarSource
    from repro.core.dedisperse import dedisperse
    from repro.utils.rng import RandomStreams

    # A laptop-scale, low-frequency setup: LOFAR-like dispersion (strong
    # per-trial discrimination) with few channels and samples so the
    # functional kernel runs in seconds.
    setup = ObservationSetup(
        name="demo",
        channels=64,
        lowest_frequency=138.0,
        channel_bandwidth=6.0 / 64.0,
        samples_per_second=2000,
        samples_per_batch=2000,
    )
    grid = DMTrialGrid(n_dms=args.dms, step=1.0)
    true_dm = grid.values[args.dms // 2]
    pulsar = SyntheticPulsar(
        period_seconds=0.1, dm=float(true_dm), amplitude=1.2
    )
    source = CompositeSource((NoiseSource(sigma=1.0), PulsarSource(pulsar)))
    n_samples = setup.samples_per_second + max_delay_samples(setup, grid.last)
    data, _truth = source.generate(
        setup, n_samples, RandomStreams(args.seed)
    )
    device = device_by_name(args.device)
    output, plan = dedisperse(data, setup, grid, device=device)
    detection = detect_dm(output, grid.values)
    print(plan.describe())
    print(f"injected pulsar at DM {true_dm:.2f}")
    print(
        f"detected DM {detection.dm:.2f} (trial {detection.dm_index}) "
        f"with S/N {detection.snr:.1f}"
    )
    ok = abs(detection.dm - true_dm) <= grid.step
    print("detection:", "CORRECT" if ok else "WRONG")
    return 0 if ok else 1


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

    ablate = sub.add_parser(
        "ablate", help="quantify each search heuristic's contribution"
    )
    ablate.add_argument(
        "--strategy", choices=["halving", "model-guided"],
        default="model-guided",
    )
    ablate.add_argument(
        "--devices", default="HD7970",
        help="comma-separated device names",
    )
    ablate.add_argument(
        "--setups", default="apertif,lofar",
        help="comma-separated setup names",
    )
    ablate.add_argument(
        "--instances", default="64,256",
        help="comma-separated DM counts",
    )
    ablate.add_argument("--dm-step", type=float, default=0.25)
    ablate.add_argument("--seed", type=int, default=0)
    ablate.add_argument(
        "--out", metavar="PATH", default="",
        help="also write the report as JSON to PATH",
    )
    ablate.set_defaults(func=_cmd_ablate)

    study = sub.add_parser(
        "study", help="run a declarative tuning study"
    )
    study.add_argument(
        "--config", metavar="PATH", default="",
        help="JSON StudyConfig document (overrides the other options)",
    )
    study.add_argument("--title", default="cli-study")
    study.add_argument("--devices", default="HD7970")
    study.add_argument("--setups", default="apertif")
    study.add_argument("--instances", default="64,256")
    study.add_argument(
        "--strategies", default="model-guided",
        help="comma-separated strategy names to evaluate",
    )
    study.add_argument("--dm-step", type=float, default=0.25)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument(
        "--out", metavar="PATH", default="",
        help="persist the study result JSON to PATH",
    )
    study.set_defaults(func=_cmd_study)

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
        "service", help="multi-tenant tuning service with cache statistics"
    )
    service.add_argument("--device", default="HD7970")
    service.add_argument("--setup", default="apertif")
    service.add_argument(
        "--instances", default="32,64,128,256",
        help="comma-separated DM counts tenants will request",
    )
    service.add_argument(
        "--tenants", type=int, default=4,
        help="concurrent tenant threads (one ServiceClient each)",
    )
    service.add_argument(
        "--load", type=int, default=3,
        help="requests per tenant per instance",
    )
    service.add_argument(
        "--workers", type=int, default=2,
        help="tuning worker threads",
    )
    service.add_argument(
        "--timeout", type=float, default=None,
        help="per-request tuning budget in seconds before degrading",
    )
    service.add_argument(
        "--priority", choices=("low", "normal", "high"), default="normal",
        help="TuneRequest priority stamped on the generated load",
    )
    service.add_argument(
        "--strategy", default="",
        help="per-request search strategy name (e.g. model-guided)",
    )
    service.add_argument(
        "--admission-rate", type=float, default=None, metavar="TOKENS_PER_S",
        help="per-tenant token-bucket refill rate (enables admission)",
    )
    service.add_argument(
        "--admission-burst", type=float, default=8.0, metavar="TOKENS",
        help="per-tenant token-bucket capacity",
    )
    service.add_argument(
        "--store", metavar="DIR", default="",
        help="directory for the persistent sweep tier",
    )
    service.add_argument(
        "--warm-up", action="store_true",
        help="pre-tune all instances before starting the tenants",
    )
    service.add_argument(
        "--no-smoke", dest="smoke", action="store_false",
        help="skip the end-to-end pipeline smoke after the tenant traffic",
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
        "--format", choices=["prom", "jsonl", "json"], default="prom",
        help="export format (Prometheus text, JSON lines, JSON snapshot)",
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

    demo = sub.add_parser("demo", help="end-to-end pulsar detection demo")
    demo.add_argument("--device", default="HD7970")
    demo.add_argument("--dms", type=int, default=32)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=_cmd_demo)
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
