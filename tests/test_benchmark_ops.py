"""One full pass of the benchmark's in-process workloads, judged by the benchmark.

perfbench/workloads.py is imported as it stands (nothing under perfbench/
is written): seed 0, pass 0 of verify-covering, fine-grid and transform,
each op's outputs checked by its own judge. cli-chain is left out: it
starts processes and writes under perfbench/out, and test_cli covers its
commands.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
# dataclasses read their module from sys.modules
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)

CORRECT = {"pass", "not_mra", "refused"}


@pytest.mark.parametrize(
    "name, count", [("verify-covering", 26), ("fine-grid", 9), ("transform", 14)]
)
def test_one_pass_is_judged_correct(name, count):
    workload = workloads.WORKLOADS[name](seed=0)
    try:
        ops = workload.inputs(0)
        assert len(ops) == count
        outcomes = [(op.cell, *op.judge(op.call())) for op in ops]
    finally:
        workload.close()
    wrong = [o for o in outcomes if o[1] not in CORRECT]
    assert not wrong, wrong
