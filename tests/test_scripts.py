"""The example scripts and the standalone acceptance run work against this checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/haar_demo.py", "--p", "3"],
        ["scripts/quartic_walkthrough.py"],
        ["scripts/random_mask_survey.py", "--trials", "2"],
        ["tests/test_acceptance.py"],
    ],
    ids=["haar_demo", "quartic_walkthrough", "random_mask_survey", "acceptance"],
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "scripts/random_mask_survey.py":
        assert "duality agreement: 36/36" in proc.stdout
    if argv[0] == "tests/test_acceptance.py":
        verdicts = [line for line in proc.stdout.splitlines() if line.startswith("criterion")]
        assert len(verdicts) == 9 and all(": PASS - " in line for line in verdicts), proc.stdout
