"""Measure one workload: set-up, reference checks, warm-up, timed passes.

One invocation runs, in order:

1. one round of cold plan constructions (:func:`setup_round`);
2. realization of the timed and the reference input (untimed);
3. the reference checks, outside the timed region: a fused and a staged
   pass on the reference input, both on the ``vectorized`` backend,
   must produce the same candidate digest; the quality metrics are
   scored on the fused one;
4. one warm-up pass on the timed input, excluded from every median;
5. timed passes on the timed input until they add up to ``seconds``,
   and at least ``MIN_PASSES`` passes and ``MIN_CHUNK_SAMPLES`` chunk
   samples are in (so ten samples lie beyond the pooled p90).  Each must
   reproduce the candidate digest of the first pass on the same input
   (the warm-up, for the first input).  After each pass, one more
   set-up round; ``setup_s`` is the median over every construction of
   every round.

On a shared host the same construction runs up to 1.8x slower in
bursts of a fraction of a second to a few seconds.  Rounds spread over
the whole run sample those bursts in proportion to their share of it,
so the median over all constructions repeats from run to run; the best
of each round does not, because how often a round catches a fast moment
varies from run to run.

With ``trace`` the timed passes are traced passes (:mod:`layers`) and
the result carries the per-layer numbers of the median traced pass
instead of the end-to-end metrics.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.obs import get_tracer
from repro.opencl_sim.backend import backend_from_env
from repro.scenarios.truth import RECALL_FLOOR

import layers
from workloads import PARITY_BACKEND, SMOKE_WORKLOADS, WORKLOADS

SETUP_REPEATS = 3
SETUP_ROUND_SECONDS = 0.25
MIN_PASSES = 5
MIN_CHUNK_SAMPLES = 100

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "realtime_factor": "sky-s/s",
    "chunk_p50_s": "s",
    "chunk_p90_s": "s",
    "recall": "ratio",
    "false_positives": "count",
    "peak_bytes": "B",
    "modelled_rt_margin": "ratio",
    "completed_ratio": "ratio",
}

#: name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "core.plan_create_s": "s",
    "core.tuner_configs": "count",
    "opencl_sim.kernel_s": "s",
    "opencl_sim.kernel_launches": "count",
    "opencl_sim.kernel_flops": "flop",
    "opencl_sim.kernel_bytes": "B",
    "search.detect_s": "s",
    "search.detect_rows": "count",
    "astro.rfi_s": "s",
    "search.sift_s": "s",
    "search.sift_raw": "count",
    "search.sift_accepted_ratio": "ratio",
    "run.dispatch_s": "s",
    "survey.coincidence_s": "s",
    "survey.coincidence_clusters": "count",
    "sched.fleet_s": "s",
    "scenarios.realize_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, for checkouts without ``.git``."""
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(path.relative_to(root).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def cpu_model() -> str:
    """The CPU model name, or the platform's processor string."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, seed: int, smoke: bool) -> dict:
    """Where and on what a result was measured."""
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend_pin": backend_from_env(),
        "seed": seed,
        "smoke": smoke,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def setup_round(workload, trace: bool, min_seconds: float):
    """One round of cold plan constructions: (plan, seconds, configs).

    At least ``SETUP_REPEATS`` constructions, and more until they add up
    to ``min_seconds``; ``seconds`` lists each construction's time.
    """
    seconds, configs, plan = [], 0, None
    tracer = get_tracer()
    while len(seconds) < SETUP_REPEATS or sum(seconds) < min_seconds:
        if trace:
            with tracer.span("core.plan_create") as root:
                plan = workload.setup()
            seconds.append(root.duration_s)
            configs = sum(
                s.attributes.get("n_configurations", 0)
                for s in root.iter_tree()
                if s.name == "tuner.sweep"
            )
        else:
            start = time.perf_counter()
            plan = workload.setup()
            seconds.append(time.perf_counter() - start)
    return plan, seconds, configs


def p90(values: list[float]) -> float:
    """The 90th percentile (``statistics`` inclusive method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, informational record)."""
    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    workload.setup()  # untimed: finishes the package's lazy imports
    round_seconds = 0.0 if smoke else SETUP_ROUND_SECONDS
    plan, setup_seconds, tuner_configs = setup_round(
        workload, trace, round_seconds
    )
    setup_rounds = 1
    state = workload.prepare(plan, seed)
    problems: dict[str, None] = {}  # insertion-ordered set

    reference = workload.run_pass(
        state, reference=True, backend=PARITY_BACKEND
    )
    staged = workload.run_pass(
        state, reference=True, backend=PARITY_BACKEND, fused=False
    )
    if staged.digest != reference.digest:
        problems.setdefault("fused and staged candidates differ")

    warm = workload.run_pass(state)
    digests = {warm.input_key: warm.digest}
    passes, traced, errors = [], [], 0
    min_passes = 2 if smoke else MIN_PASSES
    min_chunks = 0 if smoke else MIN_CHUNK_SAMPLES
    while (
        sum(p.wall_s for p in passes) < seconds
        or len(passes) + errors < min_passes
        or sum(len(p.chunk_s) for p in passes) < min_chunks
    ):
        gc.collect()  # every pass starts from the same collector state
        try:
            if trace:
                result, per_layer = layers.traced_pass(workload, state)
                traced.append(per_layer)
            else:
                result = workload.run_pass(state)
        except ReproError as error:
            errors += 1
            problems.setdefault(f"pass raised {type(error).__name__}: {error}")
            break
        passes.append(result)
        if digests.setdefault(result.input_key, result.digest) != (
            result.digest
        ):
            problems.setdefault("a timed pass changed the candidates")
        setup_seconds += setup_round(workload, trace, round_seconds)[1]
        setup_rounds += 1

    per_pass = warm.attempted
    attempted = per_pass * (len(passes) + errors)
    failed = sum(p.failed for p in passes) + per_pass * errors
    if failed:
        problems.setdefault(f"{failed} of {attempted} chunks failed")
    if reference.recall < RECALL_FLOOR:
        problems.setdefault(f"reference recall {reference.recall}")

    chunk_s = [c for p in passes for c in p.chunk_s]
    chunk_p90 = p90(chunk_s) if len(chunk_s) > 1 else 0.0
    info = {
        "workload": name,
        "why": workload.why,
        "trace": trace,
        "setup_rounds": setup_rounds,
        "setup_constructions": len(setup_seconds),
        "timed_passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "chunk_samples": len(chunk_s),
        "chunk_samples_beyond_p90": sum(c > chunk_p90 for c in chunk_s),
        "verdict": warm.verdict,
        "reference_verdict": reference.verdict,
        "timed_recall": warm.recall,
        "digest": warm.digest,
        "problems": list(problems),
    }
    if trace:
        if traced:
            median_wall = statistics.median_low(
                t["trace.wall_s"] for t in traced
            )
            metrics = next(
                t for t in traced if t["trace.wall_s"] == median_wall
            )
        else:
            metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics = {
            **metrics,
            "core.plan_create_s": statistics.median(setup_seconds),
            "core.tuner_configs": tuner_configs,
        }
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "realtime_factor": (
                statistics.median(p.realtime_factor for p in passes)
                if passes else 0.0
            ),
            "chunk_p50_s": statistics.median(chunk_s) if chunk_s else 0.0,
            "chunk_p90_s": chunk_p90,
            "recall": reference.recall,
            "false_positives": reference.false_positives,
            "peak_bytes": max((p.peak_bytes for p in passes), default=0),
            "modelled_rt_margin": warm.modelled_rt_margin,
            "completed_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in units.items()
        },
    }
    return result, info
