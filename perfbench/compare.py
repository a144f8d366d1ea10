"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE [NEW] [--save FILE]

BASE and NEW are each a directory of result files written by run.py, a
single result file, or a result set saved with --save (a list of runs).
For each side the median and quartiles over its runs are printed. With
NEW, a metric is flagged "worse" when its median moved the wrong way by
more than the metric's bound, and "unresolved" when either side's spread
(interquartile range over median) is wider than the bound, unless every
NEW run beats every BASE run. Bounds of the end-to-end metrics come from
BENCHMARK.json; the benchmark's extra metrics carry their own below.

--save FILE writes BASE as a result set without the per-op records, which
is how perfbench/baseline/ was recorded. Exits 1 when anything is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Metrics the benchmark reports besides BENCHMARK.json's end_to_end list.
EXTRA_BOUNDS = {
    "analyze_p50_s": ("lower", 0.25),
    "synthesize_p50_s": ("lower", 0.25),
    "fail_frac": ("lower", 0.0),
}


def bounds() -> dict[str, tuple[str, float]]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}
    out.update(EXTRA_BOUNDS)
    return out


def load_runs(path: Path) -> list[dict]:
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        return [run for f in files for run in load_runs(f)]
    data = json.loads(path.read_text())
    return data if isinstance(data, list) else [data]


def untraced(runs: list[dict]) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run.get("trace"):
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def values(runs: list[dict], metric: str) -> list[float]:
    out = []
    for run in runs:
        merged = {**run["metrics"], **run.get("extra_metrics", {})}
        if metric in merged:
            out.append(float(merged[metric]))
    return out


def summary(vals: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread = IQR / median)."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    bmed, _, _, bspread = summary(base)
    nmed, _, _, nspread = summary(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nmed - bmed) / bmed if bmed else sign * (nmed - bmed)
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max(bspread, nspread) > bound and not all_better:
        return f"unresolved ({change:+.1%})"
    if change > bound:
        return f"WORSE ({change:+.1%} > {bound:.0%})"
    return f"ok ({change:+.1%})"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path, nargs="?")
    ap.add_argument("--save", type=Path, help="write BASE as a result set without per-op records")
    args = ap.parse_args(argv)

    base_runs = load_runs(args.base)
    if args.save:
        slim = [{k: v for k, v in run.items() if k != "ops"} for run in base_runs]
        args.save.write_text(json.dumps(slim, indent=1))
    limits = bounds()
    base = untraced(base_runs)
    new = untraced(load_runs(args.new)) if args.new else {}
    worse = 0
    for workload in sorted(base):
        seeds = sorted(run["environment"]["seed"] for run in base[workload])
        print(f"{workload}: {len(seeds)} base runs (seeds {seeds})"
              + (f", {len(new.get(workload, []))} new runs" if args.new else ""))
        for metric, (better, bound) in limits.items():
            bvals = values(base[workload], metric)
            nvals = values(new.get(workload, []), metric)
            if not any(bvals) and not any(nvals):  # e.g. analyze_p50_s off the transform workload
                continue
            med, q1, q3, spread = summary(bvals)
            line = f"  {metric:<17} base {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.1%} (bound {bound:.0%})"
            if nvals:
                nmed, nq1, nq3, nspread = summary(nvals)
                result = verdict(bvals, nvals, better, bound)
                worse += result.startswith("WORSE")
                line += f" | new {nmed:.5g} [{nq1:.5g}, {nq3:.5g}] spread {nspread:.1%} -> {result}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
