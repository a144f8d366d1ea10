"""The example scripts run end to end against this checkout's library."""

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
        ["haar_demo.py", "--p", "3"],
        ["quartic_walkthrough.py"],
        ["random_mask_survey.py", "--trials", "2"],
    ],
    ids=["haar_demo", "quartic_walkthrough", "random_mask_survey"],
)
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if argv[0] == "random_mask_survey.py":
        assert "duality agreement: 36/36" in proc.stdout
