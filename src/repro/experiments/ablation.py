"""Ablation studies of the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the performance model or one
design decision of the kernel/tuner and quantifies its contribution:

* ``staging`` — local-memory staging on/off (the data-reuse path);
* ``coalescing`` — the unaligned-read overhead on/off (Sec. III-B);
* ``parameters`` — 1-D sensitivity slices through the tuned optimum
  (how much each of the four parameters matters individually);
* ``tuner`` — exhaustive sweep vs budgeted random search vs hill
  climbing (how hard the optimum is to find);
* ``phi`` — the 2013 OpenCL Xeon Phi vs the paper's projected native
  OpenMP implementation (the stated future work);
* ``subband`` — brute-force vs two-step dedispersion cost and accuracy.
"""

from __future__ import annotations

import logging

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import apertif, lofar
from repro.core.config import KernelConfiguration
from repro.core.subband import SubbandPlan
from repro.core.tuner import AutoTuner
from repro.experiments.base import (
    ExperimentResult,
    SweepCache,
    standard_devices,
    standard_setups,
)
from repro.errors import ReproError
from repro.hardware.catalog import hd7970, xeon_phi_5110p, xeon_phi_5110p_openmp
from repro.hardware.model import PerformanceModel
from repro.tune import hill_climb, random_search, simulated_annealing

logger = logging.getLogger(__name__)


def run_ablation_staging(
    cache: SweepCache | None = None, n_dms: int = 1024
) -> ExperimentResult:
    """Local-memory staging on vs off, tuned configs, both setups."""
    cache = SweepCache() if cache is None else cache
    rows = []
    for setup in standard_setups():
        for device in standard_devices():
            best = cache.sweep(device, setup, n_dms).best
            grid = DMTrialGrid(n_dms)
            off = PerformanceModel(
                device, setup, grid, enable_staging=False
            ).simulate(best.config, validate=False)
            rows.append(
                (
                    setup.name,
                    device.name,
                    f"{best.gflops:.1f}",
                    f"{off.gflops:.1f}",
                    f"{best.gflops / off.gflops:.2f}x",
                    "yes" if best.metrics.staged else "no",
                )
            )
    return ExperimentResult(
        experiment_id="ablation-staging",
        title=f"Ablation: local-memory staging, tuned configs at {n_dms} DMs",
        headers=("Setup", "Device", "staged GF/s", "cache-only GF/s",
                 "staging gain", "tuned uses staging"),
        rows=tuple(rows),
        notes=(
            "Compute-bound Apertif kernels barely notice (cache reuse "
            "keeps memory off the critical path); memory-bound LOFAR "
            "kernels lose up to ~1.6x without staging.  Devices with "
            "emulated local memory are unaffected by construction."
        ),
    )


def run_ablation_coalescing(
    cache: SweepCache | None = None, n_dms: int = 1024
) -> ExperimentResult:
    """Unaligned-read overhead on vs off (Sec. III-B's factor <= 2)."""
    cache = SweepCache() if cache is None else cache
    rows = []
    for setup in standard_setups():
        for device in standard_devices():
            best = cache.sweep(device, setup, n_dms).best
            grid = DMTrialGrid(n_dms)
            aligned = PerformanceModel(
                device, setup, grid, enable_coalescing_overhead=False
            ).simulate(best.config, validate=False)
            rows.append(
                (
                    setup.name,
                    device.name,
                    f"{best.gflops:.1f}",
                    f"{aligned.gflops:.1f}",
                    f"{aligned.gflops / best.gflops:.2f}x",
                )
            )
    return ExperimentResult(
        experiment_id="ablation-coalescing",
        title=(
            f"Ablation: unaligned-read overhead at {n_dms} DMs "
            "(hypothetical perfectly aligned delays)"
        ),
        headers=("Setup", "Device", "real GF/s", "aligned GF/s",
                 "alignment would gain"),
        rows=tuple(rows),
        notes=(
            "Compute-bound cases gain nothing; memory-bound LOFAR gains "
            "a few percent — tuned tiles already amortise the overhead."
        ),
    )


def run_ablation_parameters(
    cache: SweepCache | None = None,
    n_dms: int = 1024,
    device=None,
) -> ExperimentResult:
    """1-D sensitivity: vary each parameter around the tuned optimum."""
    cache = SweepCache() if cache is None else cache
    device = device or hd7970()
    setup = apertif()
    sweep = cache.sweep(device, setup, n_dms)
    best = sweep.best
    grid = DMTrialGrid(n_dms)
    model = PerformanceModel(device, setup, grid)

    rows = []
    axes = {
        "work_items_time": (2, 4),
        "work_items_dm": (2, 4),
        "elements_time": (5, 25),
        "elements_dm": (2, 4),
    }
    base = {
        "work_items_time": best.config.work_items_time,
        "work_items_dm": best.config.work_items_dm,
        "elements_time": best.config.elements_time,
        "elements_dm": best.config.elements_dm,
    }
    rows.append(("(optimum)", best.config.describe(), f"{best.gflops:.1f}", "1.00"))
    for axis, factors in axes.items():
        for factor in factors:
            for direction in ("/", "x"):
                params = dict(base)
                value = (
                    params[axis] // factor
                    if direction == "/"
                    else params[axis] * factor
                )
                if value < 1:
                    continue
                params[axis] = value
                try:
                    config = KernelConfiguration(**params)
                    metrics = model.simulate(config, validate=False)
                except ReproError as error:
                    # Perturbing one parameter off the tuned optimum can
                    # leave the configuration infeasible for the device;
                    # those cells are simply absent from the table.  Only
                    # library errors mean "infeasible" — anything else
                    # (a model bug, a typo) must propagate, not vanish.
                    logger.debug(
                        "ablation: skipping %s %s%s (%s): %s",
                        axis,
                        direction,
                        factor,
                        type(error).__name__,
                        error,
                    )
                    continue
                rows.append(
                    (
                        f"{axis} {direction}{factor}",
                        config.describe(),
                        f"{metrics.gflops:.1f}",
                        f"{metrics.gflops / best.gflops:.2f}",
                    )
                )
    return ExperimentResult(
        experiment_id="ablation-parameters",
        title=(
            f"Ablation: single-parameter sensitivity around the "
            f"{device.name}/{setup.name} optimum at {n_dms} DMs"
        ),
        headers=("perturbation", "configuration", "GFLOP/s", "vs optimum"),
        rows=tuple(rows),
        notes="Every parameter matters; their interaction is why the "
              "paper concludes only auto-tuning can configure the kernel.",
    )


def run_ablation_tuner(n_dms: int = 1024, budget: int = 40) -> ExperimentResult:
    """Exhaustive vs random search vs hill climbing."""
    rows = []
    for setup in standard_setups():
        for device in (hd7970(),):
            grid = DMTrialGrid(n_dms)
            exhaustive = AutoTuner(device, setup).tune(grid)
            rand = random_search(device, setup, grid, budget=budget, seed=0)
            hill = hill_climb(device, setup, grid, budget=budget, seed=0)
            anneal = simulated_annealing(
                device, setup, grid, budget=budget, seed=0
            )
            best = exhaustive.best.gflops
            rows.append(
                (
                    setup.name,
                    device.name,
                    exhaustive.n_configurations,
                    f"{best:.1f}",
                    f"{rand.best.gflops:.1f} "
                    f"({rand.best.gflops / best:.0%})",
                    f"{hill.best.gflops:.1f} "
                    f"({hill.best.gflops / best:.0%})",
                    f"{anneal.best.gflops:.1f} "
                    f"({anneal.best.gflops / best:.0%})",
                )
            )
    return ExperimentResult(
        experiment_id="ablation-tuner",
        title=(
            f"Ablation: tuning strategies at {n_dms} DMs "
            f"(heuristic budget {budget} evaluations)"
        ),
        headers=("Setup", "Device", "space", "exhaustive",
                 f"random[{budget}]", f"hill-climb[{budget}]",
                 f"annealing[{budget}]"),
        rows=tuple(rows),
        notes=(
            "The multimodal space (Fig. 10) defeats greedy ascent; "
            "budgeted random search lands closer but still below the "
            "optimum — supporting exhaustive tuning."
        ),
    )


def run_ablation_phi(
    cache: SweepCache | None = None,
    instances: tuple[int, ...] = (64, 512, 4096),
) -> ExperimentResult:
    """OpenCL Xeon Phi vs the projected native OpenMP implementation."""
    cache = SweepCache() if cache is None else cache
    rows = []
    for setup in standard_setups():
        for n_dms in instances:
            opencl = cache.sweep(xeon_phi_5110p(), setup, n_dms).best
            openmp = (
                AutoTuner(xeon_phi_5110p_openmp(), setup)
                .tune(DMTrialGrid(n_dms))
                .best
            )
            rows.append(
                (
                    setup.name,
                    n_dms,
                    f"{opencl.gflops:.1f}",
                    f"{openmp.gflops:.1f}",
                    f"{openmp.gflops / opencl.gflops:.2f}x",
                )
            )
    return ExperimentResult(
        experiment_id="ablation-phi",
        title="Ablation: Xeon Phi OpenCL vs projected native OpenMP "
              "(the paper's stated future work)",
        headers=("Setup", "DMs", "OpenCL GF/s", "OpenMP GF/s", "gain"),
        rows=tuple(rows),
        notes=(
            "A mature native runtime roughly doubles the Phi, but it "
            "still trails every GPU — consistent with the paper's "
            "conclusion that GPUs are the better dedispersion platform."
        ),
    )


def run_ablation_quantization(
    cache: SweepCache | None = None, n_dms: int = 1024
) -> ExperimentResult:
    """FP32 vs 8-bit input samples: traffic, AI, and performance.

    The paper's analysis assumes 4-byte samples (Eq. 2's 1/4 bound);
    real back-ends deliver 8-bit, quartering the input traffic.  Each
    device's tuned configuration is re-simulated with 1-byte input and
    re-tuned, showing how much of the memory wall the paper's FP32
    assumption accounts for.
    """
    cache = SweepCache() if cache is None else cache
    rows = []
    for setup in standard_setups():
        for device in standard_devices():
            fp32 = cache.sweep(device, setup, n_dms).best
            grid = DMTrialGrid(n_dms)
            model8 = PerformanceModel(
                device, setup, grid, input_sample_bytes=1
            )
            same_config = model8.simulate(fp32.config, validate=False)
            rows.append(
                (
                    setup.name,
                    device.name,
                    f"{fp32.gflops:.1f}",
                    f"{same_config.gflops:.1f}",
                    f"{same_config.gflops / fp32.gflops:.2f}x",
                    f"{fp32.metrics.arithmetic_intensity:.2f} -> "
                    f"{same_config.arithmetic_intensity:.2f}",
                )
            )
    return ExperimentResult(
        experiment_id="ablation-quantization",
        title=(
            f"Ablation: FP32 vs 8-bit input samples at {n_dms} DMs "
            "(tuned FP32 configurations re-simulated)"
        ),
        headers=("Setup", "Device", "FP32 GF/s", "8-bit GF/s", "gain", "AI"),
        rows=tuple(rows),
        notes=(
            "Compute-bound Apertif kernels gain nothing (the ceiling is "
            "instruction issue, not bytes); memory-bound LOFAR kernels "
            "gain meaningfully — quantised input is the cheapest lever "
            "against the memory wall, which is why AMBER consumes 8-bit "
            "samples."
        ),
    )


def run_ablation_subband(n_dms: int = 2048) -> ExperimentResult:
    """Two-step (subband) dedispersion vs brute force: cost and error."""
    rows = []
    configs = {
        "Apertif": (apertif(), 32, 16),
        "LOFAR": (lofar(), 8, 4),
    }
    for name, (setup, n_sub, coarse) in configs.items():
        grid = DMTrialGrid(n_dms)
        plan = SubbandPlan(
            setup=setup, grid=grid, n_subbands=n_sub, coarse_factor=coarse
        )
        smear_samples = plan.max_delay_error_samples()
        rows.append(
            (
                name,
                f"{n_sub} x /{coarse}",
                f"{grid.n_dms * setup.samples_per_batch * setup.channels / 1e9:.1f}",
                f"{plan.flops() / 1e9:.1f}",
                f"{plan.flop_reduction():.1f}x",
                smear_samples,
            )
        )
    return ExperimentResult(
        experiment_id="ablation-subband",
        title=(
            f"Ablation: brute-force vs two-step subband dedispersion "
            f"at {n_dms} DMs"
        ),
        headers=("Setup", "subbands x coarsening", "brute GFLOP",
                 "two-step GFLOP", "reduction", "max extra smearing (samples)"),
        rows=tuple(rows),
        notes=(
            "The two-step decomposition trades bounded extra smearing for "
            "an order-of-magnitude FLOP cut at Apertif scale — the "
            "optimisation the paper's authors later adopted in AMBER."
        ),
    )
