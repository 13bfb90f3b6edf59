"""The examples that run the detector, run as scripts.

Each example is a subprocess with the in-tree sources on ``PYTHONPATH``;
the test checks it exits 0 and prints the detection its seeded input
yields.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: example -> lines its output must contain.
EXPECTED = {
    "quickstart.py": [
        "detected : DM 7.50 (S/N 18.0, boxcar width 16)",
        "result   : pulsar recovered",
    ],
    "lofar_transient_search.py": [
        "found : DM 8.75 at sample 486 (S/N 27.8, width 32)",
        "  DM  9.00 |########################## <-- true DM",
        "result: burst localised",
    ],
    "apertif_survey.py": [
        "  B01 (empty)            -> no candidate",
        "  B02 (pulsar DM 4.0)    -> candidate at DM 4.00 (S/N 15.9)",
        "  B03 (empty)            -> no candidate",
        "  B04 (pulsar DM 11.5)   -> candidate at DM 11.50 (S/N 24.7)",
    ],
    "quantized_ingest.py": [
        "  float32     -> DM 9.0 (S/N 22.5)",
        "  8-bit file  -> DM 9.0 (S/N 22.6)",
    ],
}


@pytest.mark.parametrize("example", sorted(EXPECTED))
def test_example_prints_its_detection(example, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_OBS_PATH=str(tmp_path / "obs.json"),
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    for line in EXPECTED[example]:
        assert line in lines
