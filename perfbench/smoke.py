"""Smoke check of the benchmark itself; not a timing gate.

    python3 perfbench/smoke.py

Runs one tiny cell of each workload, untraced and traced, and asserts that
the last output line carries exactly the metrics BENCHMARK.json names, that
the result file records the environment, and that the span file has every
span field. Exits 1 with a list of problems otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SPAN_FIELDS  # noqa: E402

ENV_FIELDS = ("seed", "nproc", "python", "numpy", "blas_threads", "l2_bytes", "l3_bytes", "git_commit")
RESULT_FIELDS = ("correct", "attempted", "failed", "metrics")


def check(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-400:]}"]
    problems = []
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if tuple(sorted(last)) != tuple(sorted(RESULT_FIELDS)):
        problems.append(f"{where}: result keys {sorted(last)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong units {units}")
    if not trace and any(m["value"] <= 0 for m in last["metrics"].values()):
        problems.append(f"{where}: an end-to-end metric is not positive")
    stem = HERE / "out" / f"{workload}-seed0-trace{trace}"
    env = json.loads(stem.with_suffix(".json").read_text())["environment"]
    problems += [f"{where}: environment lacks {k}" for k in ENV_FIELDS if k not in env]
    if trace:
        with np.load(f"{stem}-spans.npz") as spans:
            problems += [f"{where}: spans lack {k}" for k in (*SPAN_FIELDS, "names") if k not in spans]
            if "name" in spans and spans["name"].size == 0:
                problems.append(f"{where}: no spans recorded")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check(workload, trace, spec)
            print(f"{workload:<16} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
