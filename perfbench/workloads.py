"""The benchmark's four workloads: seeded inputs, ops and output checks.

Every workload is a closed loop with one client: the runner starts an op
only when the previous one has returned. An op's `call` holds only the calls
into padic_mra that a user waits for; its `judge` runs afterwards, outside
the timed region, and checks the outputs against facts the benchmark
computes itself (its own FFT, constants from the README, the mask degree),
not against the verdict under test.

Outcome kinds. Correct outcomes: "pass", "not_mra" (the criterion is false
and the benchmark's own #L agrees), "refused" (a typed refusal that the
benchmark's own check says is the right answer). Everything else is a
failure: "verification_error", "frame_not_ok", "wrong_answer",
"unexpected_refusal", "bad_exit" and "unexpected:<exception class>".
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import padic_mra as pm
from padic_mra import serialize
from padic_mra.errors import PreconditionError, UnsupportedConfigurationError, VerificationError

TOL = pm.DEFAULT_TOL

# The README example: the degree-4 mask with zeros 1/4, 3/8, 7/16, 15/16.
QUARTIC_ROOTS = ((1, 2), (3, 3), (7, 4), (15, 4))
QUARTIC_ROOTS_ARG = "1/4,3/8,7/16,15/16"
QUARTIC_A = 0.2098630225
QUARTIC_B = 79.6093022
FRAME_REL = 1e-8

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAUNCHER = HERE / "launcher.py"


@dataclass
class Op:
    cell: str
    instance: dict
    call: Callable[[], dict]
    judge: Callable[[dict], tuple[str, str]]


def _rng(seed: int, stream: int, index: int, cell: int = 0) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index, cell))


def quartic_mask() -> pm.TrigPolynomial:
    return pm.mask_from_roots(2, 2, [pm.PadicRational(2, a, e) for a, e in QUARTIC_ROOTS])


def own_lset_size(phi: pm.TestFunction) -> int:
    """#L from the benchmark's own FFT: |sum_a conj(phi_a) e^(-2 pi i l a/n)|."""
    mags = np.abs(np.fft.fft(np.conj(phi.values))) * float(phi.prime) ** (-phi.period_exp)
    return int(np.count_nonzero(mags > TOL))


def own_degree(mask: pm.TrigPolynomial) -> int:
    nz = np.flatnonzero(np.asarray(mask.taps))
    return int(nz[-1]) if nz.size else -1


def frame_matches(A: float, B: float) -> bool:
    return abs(A - QUARTIC_A) <= FRAME_REL * QUARTIC_A and abs(B - QUARTIC_B) <= FRAME_REL * QUARTIC_B


# --------------------------------------------------------------------------
# The verdict op shared by verify-covering and fine-grid


def verdict_op(cell: str, mask: pm.TrigPolynomial, M: int, expect: str = "") -> Op:
    """refinable_from_mask -> check_mra -> (criterion holds) build_wavelet_set -> frame_bounds.

    expect: "quartic" (frame bounds equal the README constants) or
    "orthonormal" (translates orthonormal and Haar-equivalent).
    """
    p, N = mask.prime, mask.scale
    instance = {"p": p, "N": N, "M": M, "n": p ** (N + M)}

    def call() -> dict:
        out = {"phi": pm.refinable_from_mask(mask, M)}
        out["report"] = report = pm.check_mra(out["phi"])
        if report.criterion_ok:
            try:
                ws = pm.build_wavelet_set(out["phi"], mask)
            except (VerificationError, UnsupportedConfigurationError) as exc:
                out["refusal"] = exc
            else:
                out["frame"] = pm.frame_bounds(ws)
        return out

    def judge(out: dict) -> tuple[str, str]:
        report = out["report"]
        size = instance["L"] = own_lset_size(out["phi"])
        if not report.refinable:
            return "wrong_answer", f"refinable is False (residual {report.refine_residual:.2e})"
        if report.criterion_ok != (size <= p**N):
            return "wrong_answer", f"criterion_ok={report.criterion_ok}, own #L={size}, p^N={p**N}"
        if expect == "orthonormal" and not (report.orthonormality.verdict and report.haar_equivalent):
            return "wrong_answer", (
                f"orthonormal={report.orthonormality.verdict}, haar_equivalent={report.haar_equivalent}"
            )
        if not report.criterion_ok:
            return "not_mra", ""
        exc = out.get("refusal")
        if isinstance(exc, VerificationError):
            return "verification_error", str(exc)
        if exc is not None:
            if own_degree(mask) > (p - 1) * p**N:
                return "refused", str(exc)
            return "unexpected_refusal", str(exc)
        frame = out["frame"]
        if not frame.ok:
            return "frame_not_ok", (
                f"A={frame.A:.3e} B={frame.B:.3e} v0={frame.v0_residual:.1e} "
                f"fact={frame.factorization_residual:.1e} incl={frame.inclusion_residual:.1e}"
            )
        if expect == "quartic" and not frame_matches(frame.A, frame.B):
            return "wrong_answer", f"frame bounds A={frame.A!r} B={frame.B!r}"
        return "pass", ""

    return Op(cell, instance, call, judge)


class Workload:
    """Inputs for pass `index` come from (seed, index) alone."""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.tracing = False  # set by the runner around traced passes
        self.generator_errors: list[str] = []  # input draws the library refused, reported per run

    def inputs(self, index: int) -> list[Op]:
        raise NotImplementedError

    def warm_up_ops(self) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
# verify-covering


class VerifyCovering(Workload):
    """Survey traffic: seeded covering masks, M = 1, n from 16 to 128.

    The p=2, N=6 cell is stratified by #L: each pass holds one #L = 1 mask
    (about 4.6 s in check_mra, 8x its cellmates) and one #L >= 2 mask, so
    the seed cannot make a pass swing between one and three slow ops.
    Every other cell takes its masks as drawn.
    """

    # (p, N, masks per pass). Six ops per pass are cheaper than the p=2,
    # N=5 and p=3, N=3 cells and six are dearer, so the median op lies in
    # those cells, where lstsq rather than interpreter overhead sets the
    # time; millisecond ops swing most with the load on a shared host.
    CELLS = ((2, 3, 2), (2, 4, 2), (2, 5, 8), (2, 6, 2), (3, 2, 1), (3, 3, 6), (5, 1, 1), (5, 2, 4))
    TINY_CELLS = ((2, 3, 2), (3, 2, 1))
    STRATIFIED = {(2, 6): (lambda L: L == 1, lambda L: L >= 2)}
    M = 1

    def _draw(self, rng, p: int, N: int) -> pm.TrigPolynomial:
        for _ in range(10):
            try:
                return pm.random_covering_mask(rng, p, N, self.M)
            except PreconditionError as exc:
                # A generator defect (about 1 draw in 2000: m(0) misses 1 by
                # more than tol). Recorded and reported, then drawn again.
                self.generator_errors.append(f"p={p} N={N} M={self.M}: {exc}")
        raise RuntimeError(f"random_covering_mask failed ten times at p={p}, N={N}")

    def _masks(self, rng, p: int, N: int, count: int, warm: bool) -> list:
        strata = self.STRATIFIED.get((p, N))
        if strata is None:
            return [self._draw(rng, p, N) for _ in range(1 if warm else count)]
        # Warm-up takes the cheap stratum only: same grid, so same caches.
        wanted = list(strata[-1:] if warm else strata)
        chosen = []
        for _ in range(500):
            mask = self._draw(rng, p, N)
            size = int(np.count_nonzero(np.abs(pm.hat_from_mask(mask, self.M).values) > TOL))
            hit = next((s for s in wanted if s(size)), None)
            if hit is not None:
                wanted.remove(hit)
                chosen.append(mask)
                if not wanted:
                    return chosen
        raise RuntimeError(f"no covering mask for every #L stratum at p={p}, N={N}")

    def _ops(self, stream: int, index: int, warm: bool) -> list[Op]:
        ops = []
        for ci, (p, N, count) in enumerate(self.TINY_CELLS if self.tiny else self.CELLS):
            rng = _rng(self.seed, stream, index, ci)
            for mask in self._masks(rng, p, N, count, warm):
                ops.append(verdict_op(f"p={p} N={N} M={self.M}", mask, self.M))
        return ops

    def inputs(self, index: int) -> list[Op]:
        return self._ops(0, index, warm=False)

    def warm_up_ops(self) -> list[Op]:
        return self._ops(1, 0, warm=True)


# --------------------------------------------------------------------------
# fine-grid


class FineGrid(Workload):
    """Small N on large grids: FFT, support decision, the O(n^2) Gram loop."""

    def _ops(self, stream: int, index: int) -> list[Op]:
        if self.tiny:
            return [verdict_op("haar p=2", pm.haar_mask(2), 3, "orthonormal")]
        ops = [verdict_op(f"quartic M={M}", quartic_mask(), M, "quartic") for M in (9, 11, 13)]
        ops += [
            verdict_op(f"haar p={p}", pm.haar_mask(p), M, "orthonormal")
            for p, M in ((2, 15), (3, 9), (5, 6))
        ]
        # Two draws at M = 12 make the op count odd with four ops on either
        # side of the Haar p = 5 op, so the median is that op's latency
        # rather than the midpoint of the gap between two ops.
        rng = _rng(self.seed, stream, index)
        ops += [
            verdict_op(f"unimodular M={M}", pm.random_unimodular_mask(rng, 2, 2), M, "orthonormal")
            for M in (10, 12, 12)
        ]
        return ops

    def inputs(self, index: int) -> list[Op]:
        return self._ops(0, index)

    def warm_up_ops(self) -> list[Op]:
        # One op per mask family at its smallest grid. The only cache one op
        # can leave for another is the dense character matrix of
        # test_functions (n <= 2048), which the quartic M = 9 op fills.
        ops = self._ops(1, 0)
        return [op for op in ops if op.cell in ("quartic M=9", "haar p=5", "unimodular M=10")] or ops[:1]


# --------------------------------------------------------------------------
# transform


class Transform(Workload):
    """analyze then synthesize on fixed wavelet sets, j0 = 0.

    Half the inputs lie in the level-j1 truncated space (synthesized from a
    seeded coefficient tree), half are generic seeded functions.
    """

    LEVELS = (("haar2", (6, 8, 9)), ("haar3", (4, 5)), ("quartic", (3, 5)))
    TINY_LEVELS = (("haar2", (2,)),)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.sets = {}
        for name, mask, M in (("haar2", pm.haar_mask(2), 0), ("haar3", pm.haar_mask(3), 0), ("quartic", quartic_mask(), 1)):
            phi = pm.refinable_from_mask(mask, M)
            self.sets[name] = pm.build_wavelet_set(phi, mask)

    def _op(self, name: str, j1: int, rng, in_space: bool) -> Op:
        ws = self.sets[name]
        p, N, M = ws.prime, ws.support_exp, ws.period_exp
        frame = (N, M + 1 + j1)
        if in_space:
            def coeffs(*shape):
                return rng.normal(size=shape) + 1j * rng.normal(size=shape)

            tree = pm.CoefficientTree(
                prime=p, j0=0, j1=j1, approx=coeffs(p**N),
                details={j: coeffs(ws.r, p ** (N + j)) for j in range(j1)},
                input_residual=0.0, split_residuals={}, frame=frame, tol=ws.tol,
            )
            f = pm.synthesize(tree, ws)
        else:
            f = pm.random_function(rng, p, *frame)
        instance = {"p": p, "N": N, "M": M, "n": p ** sum(frame), "j1": j1, "in_space": in_space}

        def call() -> dict:
            t0 = time.perf_counter()
            tree = pm.analyze(f, ws, j0=0, j1=j1)
            t1 = time.perf_counter()
            rebuilt = pm.synthesize(tree, ws)
            t2 = time.perf_counter()
            return {"tree": tree, "rebuilt": rebuilt, "stages": {"analyze": t1 - t0, "synthesize": t2 - t1}}

        def judge(out: dict) -> tuple[str, str]:
            tree, rebuilt = out["tree"], out["rebuilt"]
            target = pm.reframe(f, *tree.frame).values
            err = float(np.max(np.abs(rebuilt.values - target)))
            if err > TOL + tree.input_residual:
                return "wrong_answer", f"round trip {err:.2e} > tol + input residual {tree.input_residual:.2e}"
            if in_space and tree.input_residual > 1e-8 * max(1.0, float(np.max(np.abs(target)))):
                return "wrong_answer", f"in-space input has residual {tree.input_residual:.2e}"
            return "pass", ""

        return Op(f"{name} j1={j1}", instance, call, judge)

    def _ops(self, stream: int, index: int, kinds: tuple[bool, ...]) -> list[Op]:
        ops = []
        for ci, (name, levels) in enumerate(self.TINY_LEVELS if self.tiny else self.LEVELS):
            rng = _rng(self.seed, stream, index, ci)
            ops += [self._op(name, j1, rng, in_space) for j1 in levels for in_space in kinds]
        return ops

    def inputs(self, index: int) -> list[Op]:
        return self._ops(0, index, (True, False))

    def warm_up_ops(self) -> list[Op]:
        return self._ops(1, 0, (False,))


# --------------------------------------------------------------------------
# cli-chain


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_child(argv: list[str], cwd: Path, stdout: Path, timeout: float = 150.0) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def import_only(cwd: Path) -> float:
    """Wall time of a fresh process that only imports padic_mra."""
    _, wall, _ = run_child([sys.executable, "-c", "import padic_mra"], cwd, cwd / "import.out")
    return wall


class CliChain(Workload):
    """The README chain, one fresh `python -m padic_mra.cli` process per command."""

    MS = (1, 9, 11)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.work = HERE / "out" / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._reference: dict | None = None
        self._spans = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def reference(self) -> dict:
        """In-process results the CLI output must match (computed once, untimed).

        A child's ru_maxrss starts at this process's own high-water mark
        (the child is spawned from this address space before exec), so the
        reference avoids anything large: phi comes from the depth product
        and numpy's FFT rather than from refinable_from_mask, whose dense
        route would allocate a 64 MB matrix here at n = 2048.
        """
        if self._reference is None:
            mask = quartic_mask()
            phis = {}
            for M in self.MS:
                hat = pm.hat_from_mask(mask, M)
                phis[M] = pm.TestFunction(2, 2, M, np.fft.fft(hat.values) / 4.0)
            haar3 = pm.refinable_from_mask(pm.haar_mask(3), 0)
            frame3 = pm.frame_bounds(pm.build_wavelet_set(haar3, pm.haar_mask(3)))
            self._reference = {
                "mask": mask,
                "phi": phis,
                "haar3": (frame3.A, frame3.B),
                "kozyrev5": pm.kozyrev_set(5).r,
            }
        return self._reference

    def _command(self, label: str, instance: dict, argv: list[str], expect_exit: int, check) -> Op:
        def call() -> dict:
            stdout = self.work / f"{label.replace(' ', '_')}.out"
            if self.tracing:
                self._spans += 1
                spans = self.work / f"spans-{self._spans}.npz"
                cmd = [sys.executable, str(LAUNCHER), str(spans), *argv]
            else:
                spans = None
                cmd = [sys.executable, "-m", "padic_mra.cli", *argv]
            code, _, rss = run_child(cmd, self.work, stdout)
            return {"exit": code, "stdout": stdout, "rss_mb": rss, "spans_path": spans}

        def judge(out: dict) -> tuple[str, str]:
            if out["exit"] != expect_exit:
                tail = out["stdout"].with_suffix(".err").read_text(errors="replace")[-300:]
                return "bad_exit", f"exit {out['exit']} != {expect_exit}: {tail.strip()}"
            text = out["stdout"].read_text()
            problem = check(json.loads(text) if text.lstrip().startswith("{") else None)
            return ("wrong_answer", problem) if problem else ("pass", "")

        return Op(label, instance, call, judge)

    def _read(self, name: str) -> dict:
        return json.loads((self.work / name).read_text())

    def inputs(self, index: int) -> list[Op]:
        rng = _rng(self.seed, 0, index)
        ref = self.reference
        ops = [
            self._command(
                "mask new-from-roots", {"p": 2, "N": 2},
                ["mask", "new-from-roots", "--p", "2", "--N", "2", "--roots", QUARTIC_ROOTS_ARG, "--out", "mask.json"],
                0, lambda _: self._check_mask(ref()),
            )
        ]
        if self.tiny:
            return ops + [self._command("kozyrev p=2", {"p": 2}, ["kozyrev", "--p", "2", "--json"], 0,
                                        lambda doc: None if doc and doc["ok"] else "kozyrev not ok")]
        for M in self.MS:
            inst = {"p": 2, "N": 2, "M": M, "n": 2 ** (2 + M)}
            phi, ws = f"phi{M}.json", f"ws{M}.json"
            ops += [
                self._command(f"refine M={M}", inst, ["refine", "--mask", "mask.json", "--M", str(M), "--out", phi],
                              0, lambda _, M=M: self._check_phi(ref(), M)),
                self._command(f"check M={M}", inst, ["check", "--phi", phi, "--json"], 0,
                              lambda doc, M=M: self._check_check(doc, M)),
                self._command(f"ortho M={M}", inst, ["ortho", "--phi", phi, "--json"], 1,
                              lambda doc, M=M: self._check_ortho(doc, M)),
                self._command(f"wavelets M={M}", inst, ["wavelets", "--phi", phi, "--mask", "mask.json", "--out", ws],
                              0, lambda _, M=M: self._check_ws(M)),
                self._command(f"frame M={M}", inst, ["frame", "--ws", ws, "--json"], 0,
                              lambda doc: None if frame_matches(doc["A"], doc["B"]) else f"A={doc['A']!r} B={doc['B']!r}"),
            ]
        # Transform input: a seeded function on the working frame of the M=1 set.
        f = pm.random_function(rng, 2, 2, 1 + 1 + 2)
        (self.work / "f.json").write_text(serialize.dumps_canonical(serialize.function_to_json(f)))
        ops += [
            self._command("transform", {"p": 2, "N": 2, "M": 1, "j1": 2},
                          ["transform", "--f", "f.json", "--ws", "ws1.json", "--j0", "0", "--j1", "2", "--json"], 0,
                          self._check_transform),
            self._command("haar p=3", {"p": 3}, ["haar", "--p", "3", "--json"], 0,
                          lambda doc: self._check_haar(doc, ref())),
            self._command("kozyrev p=5", {"p": 5}, ["kozyrev", "--p", "5", "--json"], 0,
                          lambda doc: None if doc["ok"] and len(doc["wavelet_set"]["wavelets"]) == ref()["kozyrev5"]
                          else "kozyrev set differs"),
        ]
        return ops

    def warm_up_ops(self) -> list[Op]:
        # Every command starts cold by design; the only state a later process
        # can reuse is the compiled bytecode and the page cache of an import.
        def call() -> dict:
            import_only(self.work)
            return {}

        return [Op("import", {}, call, lambda _: ("pass", ""))]

    # Checks on the CLI's files and JSON against in-process results.

    def _check_mask(self, ref: dict) -> str | None:
        taps = serialize.mask_from_json(self._read("mask.json")).taps
        if taps.shape != ref["mask"].taps.shape or np.max(np.abs(taps - ref["mask"].taps)) > 1e-12:
            return "mask taps differ from mask_from_roots"
        return None

    def _check_phi(self, ref: dict, M: int) -> str | None:
        phi = serialize.function_from_json(self._read(f"phi{M}.json"))
        want = ref["phi"][M]
        if phi.frame != want.frame or np.max(np.abs(phi.values - want.values)) > 1e-9 * max(1.0, np.max(np.abs(want.values))):
            return f"phi at M={M} differs from refinable_from_mask"
        return None

    def _check_check(self, doc: dict, M: int) -> str | None:
        size = own_lset_size(serialize.function_from_json(self._read(f"phi{M}.json")))
        if doc["lset"]["size"] != size or doc["criterion_ok"] is not (size <= 4) or not doc["refinable"]:
            return f"check: #L={doc['lset']['size']} criterion={doc['criterion_ok']}, own #L={size}"
        return None

    def _check_ortho(self, doc: dict, M: int) -> str | None:
        phi = serialize.function_from_json(self._read(f"phi{M}.json"))
        norm = float(np.sqrt(2.0 ** (-M) * np.sum(np.abs(phi.values) ** 2)))
        # The quartic translates are not orthonormal (README).
        if doc["verdict"] is not False or abs(doc["norm_value"] - norm) > 1e-9 * norm:
            return f"ortho: verdict={doc['verdict']} norm={doc['norm_value']!r}, own norm {norm!r}"
        return None

    def _check_ws(self, M: int) -> str | None:
        ws = self._read(f"ws{M}.json")
        phi = self._read(f"phi{M}.json")
        if len(ws["wavelets"]) != 1 or ws["phi"] != phi:
            return "wavelet set does not carry phi and one wavelet"
        return None

    def _check_transform(self, doc: dict) -> str | None:
        if not doc["ok"] or doc["round_trip_error"] > TOL + doc["input_residual"]:
            return f"transform: ok={doc['ok']} error={doc['round_trip_error']:.2e}"
        return None

    def _check_haar(self, doc: dict, ref: dict) -> str | None:
        A, B = ref["haar3"]
        got = doc["frame"]
        if not doc["mra"]["criterion_ok"] or not doc["mra"]["orthonormal"]["verdict"]:
            return "haar p=3: criterion or orthonormality false"
        if abs(got["A"] - A) > 1e-9 * A or abs(got["B"] - B) > 1e-9 * B:
            return f"haar p=3 frame A={got['A']!r} B={got['B']!r}, in-process {A!r} {B!r}"
        return None


WORKLOADS = {
    "verify-covering": VerifyCovering,
    "fine-grid": FineGrid,
    "transform": Transform,
    "cli-chain": CliChain,
}
