"""Per-layer attribution of one traced pass.

A traced pass wraps the timed region in a ``bench.pass`` span and reads
the spans the program already emits beneath it (``run.execute``,
``run.fused_chunk``, ``search.rfi``, ``search.sift``,
``survey.coincidence``, ``survey.fleet``).  Calls into layers that emit
no span of their own are timed from here: ``realize_survey`` gets a
``scenarios.realize`` span, and every ``repro.run.execute`` result is
kept so the fused chunks' measured ``detect_seconds`` can split kernel
from detector inside ``run.fused_chunk``.

Every time layer below is a disjoint slice of the pass, so the layer
self times plus ``unattributed_s`` equal the traced wall time exactly.
Residual driver, queue and ledger work lands in ``unattributed_s``.
"""

from __future__ import annotations

from contextlib import ExitStack

import repro.run
from repro.obs import get_tracer
from repro.run.fused import FusedChunkResult
from repro.survey import driver as survey_driver

from workloads import PassResult, patched

#: Layer self times of one pass; with ``unattributed_s`` they sum to
#: ``trace.wall_s``.
TIME_LAYERS = (
    "opencl_sim.kernel_s",
    "search.detect_s",
    "astro.rfi_s",
    "search.sift_s",
    "run.dispatch_s",
    "survey.coincidence_s",
    "sched.fleet_s",
    "scenarios.realize_s",
)


def traced_pass(workload, state) -> tuple[PassResult, dict[str, float]]:
    """Run one traced pass; returns it with its per-layer numbers."""
    executions = []
    execute = repro.run.execute
    realize = survey_driver.realize_survey

    def recording_execute(request):
        result = execute(request)
        executions.append((request.plan, result))
        return result

    def spanned_realize(plan):
        with get_tracer().span("scenarios.realize"):
            return realize(plan)

    with ExitStack() as stack:
        stack.enter_context(patched(repro.run, "execute", recording_execute))
        stack.enter_context(
            patched(survey_driver, "realize_survey", spanned_realize)
        )
        result = workload.run_pass(state, trace=True)
    return result, attribute(result, executions)


def _counter(registry, name: str, **labels: str) -> float:
    """Sum of every series of counter ``name`` carrying ``labels``."""
    return sum(
        series.value
        for series in registry.series()
        if series.name == name
        and all(series.labels.get(k) == v for k, v in labels.items())
    )


def attribute(result: PassResult, executions) -> dict[str, float]:
    """Per-layer numbers of one traced pass (see module docstring)."""
    spans = list(result.span.iter_tree())

    def total(name: str) -> float:
        return sum(s.duration_s for s in spans if s.name == name)

    fused = [
        chunk
        for _, run in executions
        for chunk in run.chunk_results
        if isinstance(chunk, FusedChunkResult)
    ]
    detect_s = sum(chunk.detect_seconds for chunk in fused)
    predicted = {}
    for plan, _ in executions:
        if id(plan) not in predicted:
            predicted[id(plan)] = plan.predict()
    registry = result.registry
    raw = _counter(registry, "repro_search_candidates_total", stage="raw")
    accepted = _counter(
        registry, "repro_search_candidates_total", stage="accepted"
    )
    layers = {
        "opencl_sim.kernel_s": total("run.fused_chunk") - detect_s,
        "search.detect_s": detect_s,
        "astro.rfi_s": total("search.rfi"),
        "search.sift_s": total("search.sift"),
        "run.dispatch_s": sum(
            s.self_seconds for s in spans if s.name == "run.execute"
        ),
        "survey.coincidence_s": total("survey.coincidence"),
        "sched.fleet_s": total("survey.fleet"),
        "scenarios.realize_s": total("scenarios.realize"),
    }
    wall = result.span.duration_s
    layers["unattributed_s"] = wall - sum(layers[k] for k in TIME_LAYERS)
    layers["trace.wall_s"] = wall
    layers.update({
        "opencl_sim.kernel_launches": sum(r.launches for _, r in executions),
        # Computed from the performance model, not measured.
        "opencl_sim.kernel_flops": sum(
            predicted[id(p)].flops * len(r.chunk_results)
            for p, r in executions
        ),
        "opencl_sim.kernel_bytes": sum(
            predicted[id(p)].bytes_total * len(r.chunk_results)
            for p, r in executions
        ),
        "search.detect_rows": sum(
            p.grid.n_dms * len(r.chunk_results) for p, r in executions
        ),
        "search.sift_raw": raw,
        "search.sift_accepted_ratio": accepted / raw if raw else 0.0,
        "survey.coincidence_clusters": _counter(
            registry, "repro_survey_candidates_total", stage="pre"
        ),
    })
    return layers
