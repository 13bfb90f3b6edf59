"""The benchmark's own tests, at smoke size::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from workloads import SMOKE_WORKLOADS, SURVEY_SEEDS  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(SMOKE_WORKLOADS))
def prepared(request):
    workload = SMOKE_WORKLOADS[request.param]
    return workload, workload.prepare(workload.setup(), seed=1)


def test_metric_names_use_only_allowed_characters():
    for name in (*harness.END_TO_END, *harness.PER_LAYER, *harness.WORKLOADS):
        assert NAME_RE.match(name), name


def test_benchmark_json_matches_the_harness():
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    } == harness.END_TO_END
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    } == harness.PER_LAYER
    for listed in BENCHMARK["workloads"]:
        assert listed["why"] == harness.WORKLOADS[listed["name"]].why


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
def test_each_workload_emits_every_metric(name, trace):
    result, info = harness.measure(
        name, seed=1, seconds=0.0, trace=trace, smoke=True
    )
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(expected)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == expected[key]
        assert math.isfinite(metric["value"]), key


def test_layer_self_times_and_unattributed_sum_to_the_traced_wall(prepared):
    workload, state = prepared
    result, per_layer = layers.traced_pass(workload, state)
    parts = [per_layer[k] for k in layers.TIME_LAYERS]
    assert all(part >= 0.0 for part in parts)
    assert per_layer["unattributed_s"] >= 0.0
    assert sum(parts) + per_layer["unattributed_s"] == pytest.approx(
        per_layer["trace.wall_s"], rel=1e-9
    )
    assert per_layer["trace.wall_s"] == result.span.duration_s


def test_two_passes_of_one_seed_give_the_same_candidate_digest(prepared):
    workload, state = prepared
    digests: dict[str, set[str]] = {}
    for _ in range(SURVEY_SEEDS + 1):  # the survey returns to its first
        result = workload.run_pass(state)
        digests.setdefault(result.input_key, set()).add(result.digest)
    assert all(len(seen) == 1 for seen in digests.values()), digests


def test_cli_prints_the_result_as_its_last_line():
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload",
            "survey_storm", "--seed", "2", "--seconds", "0", "--trace",
            "0", "--smoke",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    *_, info_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"]
    provenance = json.loads(info_line)["provenance"]
    assert provenance["seed"] == 2 and provenance["smoke"] is True
    assert {
        "git_sha", "source_sha256", "nproc", "cpu_model", "python", "numpy"
    } <= set(provenance)


def test_cli_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload",
            "survey_storm", "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
