"""padic-mra benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): verify-covering, fine-grid, transform,
cli-chain. Run from the root of a checkout; the library is imported from
its src/ directory and nowhere else.

Set-up (import, seeded inputs, one untimed warm-up pass) is done in this
process and again in two fresh processes; setup_s is the median of the
three. The timed loop then runs passes over the workload's op list, each
pass on inputs drawn from (seed, pass index), until the pass time measured
is as near to --seconds as whole passes allow. Outputs are checked after each pass, outside the timed
region.

With --trace 1 the passes alternate untraced and traced; the per-layer
metrics come from the traced passes and the tracing overhead is the
difference of the two kinds' median pass times.

Per run, a result file and (traced) a span file are written to
perfbench/out/. The last line of standard output is the JSON result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before numpy loads, here and in every process the benchmark starts.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
OK_KINDS = ("pass", "not_mra", "refused")
WRONG_KINDS = ("wrong_answer", "bad_exit")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Wrapped functions whose calls and self time are reported per layer; the
# result file holds every wrapped function.
LAYER_FUNCTIONS = (
    "mra.check_mra",
    "mra.shift_mask",
    "mra.check_orthonormal_shifts",
    "mra.check_haar_equivalence",
    "mra.l_set",
    "test_functions.fourier",
    "test_functions.inv_fourier",
    "test_functions.shift",
    "test_functions.reframe",
    "test_functions.dilate",
    "masks.refinable_from_mask",
    "masks.support_margin",
    "masks.hat_from_mask",
    "masks.sphere_values",
    "wavelets.build_wavelet_set",
    "wavelets.wavelet_masks",
    "wavelets.wavelet_functions",
    "wavelets.verify_wavelet_set",
    "wavelets.frame_bounds",
    "wavelets.resultant",
    "wavelets.kozyrev_set",
    "wavelets.analyze",
    "wavelets.synthesize",
    "serialize.dumps_canonical",
    "serialize.function_to_json",
    "serialize.function_from_json",
    "serialize.mask_to_json",
    "serialize.mask_from_json",
    "serialize.wavelet_set_to_json",
    "serialize.wavelet_set_from_json",
    "serialize.tree_to_json",
    "serialize.mra_report_to_json",
    "serialize.frame_report_to_json",
    "padic_core.character",
    "padic_core.parse_rational",
    "cli.main",
)
CLI_COMMANDS = ("mask", "refine", "check", "ortho", "wavelets", "frame", "transform", "haar", "kozyrev")
PER_LAYER = (
    [f"{fn}.{kind}" for fn in LAYER_FUNCTIONS for kind in ("calls", "self_s")]
    + [
        "wavelets.build_wavelet_set.verified_frac",
        "generators.random_covering_mask.calls",
        "generators.random_covering_mask.accept_frac",
        "generators.random_unimodular_mask.calls",
        "cli.import_s",
    ]
    + [f"cli.{cmd}.s" for cmd in CLI_COMMANDS]
    + ["trace.overhead_s", "trace.coverage_frac", "trace.spans"]
)


def layer_unit(name):
    if name.endswith((".calls", ".spans")):
        return "count"
    return "1" if name.endswith("_frac") else "s"


def import_library():
    """Import padic_mra from this checkout's src/, or exit without a result."""
    if not (SRC / "padic_mra" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'padic_mra'} not found; run from a checkout of padic-mra")
    sys.path.insert(0, str(SRC))
    import padic_mra

    if Path(padic_mra.__file__).resolve().parent != (SRC / "padic_mra").resolve():
        raise SystemExit(f"error: padic_mra was imported from {padic_mra.__file__}, not {SRC}")
    return padic_mra


# --------------------------------------------------------------------------
# Environment record


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout from .git, without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_bytes(level):
    """Size of the unified cache at `level` as the kernel reports it, or None."""
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if int((index / "level").read_text()) == level and (index / "type").read_text().strip() == "Unified":
                size = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            return None
    return None


def environment(seed):
    import numpy as np

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_env": dict(BLAS_ENV),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# Set-up


def set_up(name, seed, tiny):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tiny=tiny)
    first = workload.inputs(0)
    for op in workload.warm_up_ops():
        op.call()
    return workload, first


def child_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up child failed ({done.returncode}): {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# --------------------------------------------------------------------------
# Timed loop


def timed_call(op):
    t0 = time.perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:  # an op's failure is data, the loop goes on
        out, error = None, exc
    return out, error, time.perf_counter() - t0


def run_passes(workload, first, seconds, tracer):
    """Passes until `seconds` of pass time; returns (op records, pass records)."""
    from tracer import load_spans

    records, passes = [], []
    measured = 0.0
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            workload.tracing = True
        ops = first if index == 0 else workload.inputs(index)
        results = []
        t_pass = time.perf_counter()
        for op in ops:
            op_id = len(records) + len(results)
            if not traced:
                results.append((op, *timed_call(op)))
                continue
            tracer.op = op_id
            with tracer.span("bench.op") as span:
                out, error, latency = timed_call(op)
            tracer.op = -1
            child_spans = (out or {}).get("spans_path")
            if child_spans is not None and child_spans.is_file():
                tracer.merge(load_spans(child_spans), parent=span, op=op_id)
                child_spans.unlink()
            results.append((op, out, error, latency))
        wall = time.perf_counter() - t_pass
        if traced:
            tracer.uninstall()
            workload.tracing = False
        for op, out, error, latency in results:
            if error is not None:
                kind, detail = f"unexpected:{type(error).__name__}", str(error)[:300]
            else:
                kind, detail = op.judge(out)
            out = out or {}
            records.append({
                "op": len(records), "pass": index, "traced": traced, "cell": op.cell,
                **op.instance, "latency_s": latency, "kind": kind, "detail": detail,
                "stages": out.get("stages", {}), "rss_mb": out.get("rss_mb"),
            })
        passes.append({"index": index, "traced": traced, "ops": len(ops), "wall_s": wall})
        measured += wall
        index += 1
        kinds = {p["traced"] for p in passes}
        # Stop at the pass count nearest to `seconds`: a further pass would
        # end more than half a pass past it.
        if measured + wall / 2 >= seconds and (tracer is None or kinds == {False, True}):
            return records, passes


# --------------------------------------------------------------------------
# Metrics


def tail(latencies):
    """(value, percentile, K): the latency with exactly ten ops beyond it."""
    lat = sorted(latencies)
    k = len(lat)
    if k <= 10:
        return lat[-1], 100.0, k
    return lat[k - 11], 100.0 * (k - 10) / k, k


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(records, passes, setups, workload_name):
    untraced = [r for r in records if not r["traced"]]
    lat = [r["latency_s"] for r in untraced]
    tail_value, tail_pct, k = tail(lat)
    if workload_name == "cli-chain":
        rss = max(r["rss_mb"] for r in untraced if r["rss_mb"] is not None)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(r["kind"] not in OK_KINDS for r in untraced)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes if not p["traced"]),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "peak_rss_mb": rss,
    }
    extra = {
        "fail_frac": failed / len(untraced),
        "analyze_p50_s": median_or_zero(r["stages"]["analyze"] for r in untraced if "analyze" in r["stages"]),
        "synthesize_p50_s": median_or_zero(r["stages"]["synthesize"] for r in untraced if "synthesize" in r["stages"]),
    }
    info = {"tail_percentile": tail_pct, "op_count": k, "failed": failed, "attempted": len(untraced),
            "setup_runs_s": setups, "passes": sum(not p["traced"] for p in passes)}
    return metrics, extra, info


def per_layer(tracer, records, passes):
    from tracer import aggregate, child_counts
    from workloads import import_only

    spans = tracer.export()
    traced_ops = {r["op"] for r in records if r["traced"]}
    ops = aggregate(spans, ops=traced_ops)
    gen = aggregate(spans, ops={-1})
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        row = ops.get(fn, {})
        metrics[f"{fn}.calls"] = row.get("calls", 0)
        metrics[f"{fn}.self_s"] = row.get("self_s", 0.0)
    build = ops.get("wavelets.build_wavelet_set", {"calls": 0, "errors": {}})
    attempted = build["calls"] - build["errors"].get("UnsupportedConfigurationError", 0)
    verified = build["calls"] - sum(build["errors"].values())
    metrics["wavelets.build_wavelet_set.verified_frac"] = verified / attempted if attempted else 0.0
    draws = gen.get("generators.random_covering_mask", {}).get("calls", 0)
    tries = child_counts(spans, "generators.random_covering_mask", "masks.mask_from_roots")
    metrics["generators.random_covering_mask.calls"] = draws
    metrics["generators.random_covering_mask.accept_frac"] = draws / tries if tries else 0.0
    metrics["generators.random_unimodular_mask.calls"] = gen.get("generators.random_unimodular_mask", {}).get("calls", 0)
    work = OUT / f"import-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics["cli.import_s"] = statistics.median(import_only(work) for _ in range(3))
    finally:
        for f in work.iterdir():
            f.unlink()
        work.rmdir()
    plain = [r for r in records if not r["traced"]]
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}.s"] = median_or_zero(
            r["latency_s"] for r in plain if r["cell"].split(" ")[0] == cmd
        )
    walls = {kind: statistics.median(p["wall_s"] for p in passes if p["traced"] is kind) for kind in (False, True)}
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    bench_op = ops.get("bench.op", {"total_s": 0.0})
    covered = sum(row["self_s"] for name, row in ops.items() if name != "bench.op")
    metrics["trace.coverage_frac"] = covered / bench_op["total_s"] if bench_op["total_s"] else 0.0
    metrics["trace.spans"] = sum(row["calls"] for row in ops.values())
    info = {"functions": ops, "generation": gen, "pass_wall_s": walls,
            "uncovered_s": bench_op.get("self_s", 0.0)}
    return metrics, info


# --------------------------------------------------------------------------
# Report


def outcome_table(records):
    cells = {}
    for r in records:
        cells.setdefault(r["cell"], {}).setdefault(r["kind"], 0)
        cells[r["cell"]][r["kind"]] += 1
    return cells


def instance_text(r):
    keys = ("p", "N", "M", "n", "L", "j1", "in_space")
    inst = " ".join(f"{k}={r[k]}" for k in keys if k in r)
    return f"op {r['op']:>4} pass {r['pass']} [{r['cell']}] {inst} {r['latency_s']:.4f}s {r['kind']}"


def print_report(name, env, metrics, extra, info, records, layer, layer_info):
    print(f"workload {name}, seed {env['seed']}, {info['passes']} untraced passes, "
          f"{info['op_count']} ops; python {env['python']}, numpy {env['numpy']}, "
          f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}")
    for key, value in metrics.items():
        print(f"  {key:<18} {value:.6g} {END_TO_END[key]}")
    print(f"  {'':<18} op_tail_s is the p{info['tail_percentile']:.2f} latency of {info['op_count']} ops")
    print(f"  {'fail_frac':<18} {extra['fail_frac']:.6g} 1 ({info['failed']} failed of {info['attempted']} attempted)")
    if name == "transform":
        for key in ("analyze_p50_s", "synthesize_p50_s"):
            print(f"  {key:<18} {extra[key]:.6g} s")
    print("outcomes per cell:")
    for cell, kinds in outcome_table(records).items():
        print(f"  {cell:<22} " + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())))
    if info["generator_errors"]:
        print(f"input draws refused by the library and drawn again: {len(info['generator_errors'])}")
        for line in info["generator_errors"]:
            print(f"  {line}")
    failures = [r for r in records if r["kind"] not in OK_KINDS]
    if failures:
        print("failed ops:")
        for r in failures:
            print(f"  {instance_text(r)}: {r['detail'][:160]}")
    print("slowest ops:")
    for r in sorted(records, key=lambda r: -r["latency_s"])[:10]:
        print(f"  {instance_text(r)}")
    if layer is not None:
        walls = layer_info["pass_wall_s"]
        print(f"tracing overhead: median traced pass {walls[True]:.4g} s - untraced {walls[False]:.4g} s "
              f"= {layer['trace.overhead_s']:.4g} s; wrapped self time covers "
              f"{layer['trace.coverage_frac']:.1%} of traced op time, the rest "
              f"({layer_info['uncovered_s']:.4g} s) is benchmark glue and, for cli-chain, process start and exit")
        print("per layer (traced passes):")
        for key, value in layer.items():
            if value:
                print(f"  {key:<48} {value:.6g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="padic-mra benchmark run")
    ap.add_argument("--workload", required=True, choices=("verify-covering", "fine-grid", "transform", "cli-chain"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    import_library()
    workload, first = set_up(args.workload, args.seed, args.tiny)
    setup_here = time.perf_counter() - T0
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_here}))
        return 0
    try:
        setups = [setup_here] + [child_setup(args) for _ in range(SETUP_REPS - 1)]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        records, passes = run_passes(workload, first, args.seconds, tracer)
        metrics, extra, info = end_to_end(records, passes, setups, args.workload)
        layer, layer_info = per_layer(tracer, records, passes) if tracer else (None, None)
        info["generator_errors"] = workload.generator_errors
    finally:
        workload.close()

    env = environment(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz")
    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": bool(args.trace),
        "environment": env, "metrics": metrics, "extra_metrics": extra, "info": info,
        "per_layer": layer, "per_layer_info": layer_info,
        "outcomes": outcome_table(records), "passes": passes, "ops": records,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    print_report(args.workload, env, metrics, extra, info, records, layer, layer_info)

    wrong = sum(r["kind"] in WRONG_KINDS for r in records)
    failed = sum(r["kind"] not in OK_KINDS for r in records)
    if args.trace:
        shown = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        shown = {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": len(records), "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
