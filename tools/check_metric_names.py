#!/usr/bin/env python
"""Lint metric names used across the source tree.

Walks every ``registry.counter(...)`` / ``.gauge(...)`` /
``.histogram(...)`` call (plus the declarative mapping in
``repro.service.stats``) and enforces the conventions from
``docs/observability.md``:

* names match ``repro_<words>`` in snake_case (``METRIC_NAME_RE``);
* names belong to a sanctioned subsystem family (``FAMILY_PREFIXES``) —
  new subsystems register their prefix here first;
* counters end in ``_total``; gauges and histograms never do;
* histograms end in a unit word (``_seconds``, ``_bytes``, ...);
* one name is registered with exactly one instrument kind everywhere.

Run from the repository root (CI does)::

    python tools/check_metric_names.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

METRIC_NAME_RE = re.compile(r"^repro(_[a-z0-9]+)*$")
FAMILY_PREFIXES = (
    "repro_kernel_",
    "repro_pipeline_",
    "repro_run_",
    "repro_scenario_",
    "repro_sched_",
    "repro_search_",
    "repro_service_",
    "repro_survey_",
    "repro_trace_",
    "repro_tune_",
    "repro_tuner_",
)
HISTOGRAM_UNITS = ("_seconds", "_bytes", "_gflops", "_ratio", "_samples")
METHODS = {"counter", "gauge", "histogram"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def collect(path: Path) -> list[tuple[str, str, str, int]]:
    """(kind, name, file, line) for every literal metric registration."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[tuple[str, str, str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in METHODS):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            found.append(
                (func.attr, first.value, str(path.relative_to(ROOT)),
                 node.lineno)
            )
    return found


def collect_stats_mapping() -> list[tuple[str, str, str, int]]:
    """The legacy-name mapping in repro.service.stats is also metric law."""
    path = SRC / "repro" / "service" / "stats.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found: list[tuple[str, str, str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if "_COUNTER_METRICS" in names and node.value is not None:
            for value in ast.walk(node.value):
                if (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and value.value.startswith("repro_")
                ):
                    found.append(
                        ("counter", value.value,
                         str(path.relative_to(ROOT)), value.lineno)
                    )
        if "LATENCY_METRIC" in names and isinstance(node.value, ast.Constant):
            found.append(
                ("histogram", node.value.value,
                 str(path.relative_to(ROOT)), node.value.lineno)
            )
    return found


def main() -> int:
    registrations: list[tuple[str, str, str, int]] = []
    for path in sorted(SRC.rglob("*.py")):
        registrations.extend(collect(path))
    registrations.extend(collect_stats_mapping())

    errors: list[str] = []
    kinds: dict[str, tuple[str, str, int]] = {}
    for kind, name, where, line in registrations:
        at = f"{where}:{line}"
        if not METRIC_NAME_RE.match(name):
            errors.append(f"{at}: {name!r} is not snake_case repro_*")
            continue
        if not name.startswith(FAMILY_PREFIXES):
            errors.append(
                f"{at}: {name!r} is not in a sanctioned family "
                f"(add its prefix to FAMILY_PREFIXES)"
            )
        if kind == "counter" and not name.endswith("_total"):
            errors.append(f"{at}: counter {name!r} must end in '_total'")
        if kind != "counter" and name.endswith("_total"):
            errors.append(
                f"{at}: {kind} {name!r} must not end in '_total' "
                f"(reserved for counters)"
            )
        if kind == "histogram" and not name.endswith(HISTOGRAM_UNITS):
            errors.append(
                f"{at}: histogram {name!r} must end in a unit "
                f"({', '.join(HISTOGRAM_UNITS)})"
            )
        seen = kinds.get(name)
        if seen is not None and seen[0] != kind:
            errors.append(
                f"{at}: {name!r} registered as {kind} but as {seen[0]} "
                f"at {seen[1]}:{seen[2]}"
            )
        else:
            kinds.setdefault(name, (kind, where, line))

    if errors:
        print(f"{len(errors)} metric-name violation(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(
        f"checked {len(registrations)} registrations, "
        f"{len(kinds)} distinct metric names: OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
