"""Command-line front end.

Exit codes: 0 when every computed verdict passes, 1 when a verdict fails
(not refinable, support violation, criterion false, frame degenerate), 2
for usage errors (bad flags, unparseable files or rationals, p not a prime
up to MAX_PRIME, a tolerance that is not positive and finite).
All machine output goes through --json in canonical form; everything a
subcommand prints is a deterministic function of its inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .config import DEFAULT_TOL, check_prime, check_tol
from .errors import (
    NotRefinableError,
    PreconditionError,
    SupportViolationError,
    UnsupportedConfigurationError,
    VerificationError,
)
from .masks import haar_mask, mask_from_roots, refinable_from_mask
from .mra import check_mra, check_orthonormal_shifts
from .padic_core import PrimeMismatchError, parse_rational
from .test_functions import fourier, norm_l2, reframe
from .wavelets import analyze, build_wavelet_set, frame_bounds, kozyrev_set, synthesize

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _checked(parse, check):
    """An argparse type: parse the text, then refuse values check rejects."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid {parse.__name__}")
        try:
            check(value)
        except PreconditionError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    return convert


_prime = _checked(int, check_prime)
_tol = _checked(float, check_tol)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise PreconditionError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{path} is not valid JSON: {exc}")


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    """Write the payload to --out when given, and print it (--json) or the human text."""
    text = serialize.dumps_canonical(payload) if args.json or args.out else ""
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text if args.json else human)


# --------------------------------------------------------------------------
# Subcommand bodies


def _cmd_haar(args: argparse.Namespace) -> int:
    mask = haar_mask(args.p)
    phi = refinable_from_mask(mask, args.M, tol=args.tol)
    report = check_mra(phi, tol=args.tol)
    ws = build_wavelet_set(phi, mask, tol=args.tol)
    frame = frame_bounds(ws, tol=args.tol)
    payload = {
        "mask": serialize.mask_to_json(mask),
        "phi": serialize.function_to_json(phi),
        "mra": serialize.mra_report_to_json(report),
        "wavelet_set": serialize.wavelet_set_to_json(ws),
        "frame": serialize.frame_report_to_json(frame),
    }
    ok = report.criterion_ok and report.orthonormality.verdict and frame.ok
    human = "\n".join(
        [
            f"p = {args.p}, M = {args.M}: ball-indicator scaling function",
            f"  refinable            {report.refinable} (residual {report.refine_residual:.2e})",
            f"  #L = {report.lset.size} <= p^N = {report.lset.bound}: {report.lset.within_bound}",
            f"  criterion            {report.criterion_ok}",
            f"  orthonormal shifts   {report.orthonormality.verdict}",
            f"  haar equivalent      {report.haar_equivalent}",
            f"  frame bounds         A = {frame.A:.6g}, B = {frame.B:.6g}",
            f"  verdict              {'PASS' if ok else 'FAIL'}",
        ]
    )
    _emit(args, payload, human)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_mask_new(args: argparse.Namespace) -> int:
    zeros = [parse_rational(args.p, tok) for tok in args.roots.split(",") if tok.strip()]
    mask = mask_from_roots(args.p, args.N, zeros)
    payload = serialize.mask_to_json(mask)
    taps = ", ".join(f"{t:.6g}" for t in mask.taps)
    _emit(args, payload, f"mask of degree {mask.degree} at scale {args.N}\n  taps: [{taps}]")
    return EXIT_PASS


def _cmd_mask_eval(args: argparse.Namespace) -> int:
    mask = serialize.mask_from_json(_load_json(args.mask))
    xi = parse_rational(mask.prime, args.xi)
    value = mask.value(xi)
    payload = {
        "xi": serialize.rational_to_json(xi),
        "value": [value.real, value.imag],
        "abs": abs(value),
    }
    _emit(args, payload, f"m({xi}) = {value:.12g} (|.| = {abs(value):.12g})")
    return EXIT_PASS


def _cmd_mask_info(args: argparse.Namespace) -> int:
    mask = serialize.mask_from_json(_load_json(args.mask))
    payload = {
        "p": mask.prime,
        "N": mask.scale,
        "degree": mask.degree,
        "at_zero": [mask.at_one().real, mask.at_one().imag],
        "taps": [[t.real, t.imag] for t in mask.taps],
    }
    lines = [
        f"p = {mask.prime}, scale N = {mask.scale}, degree {mask.degree}",
        f"m(0) = {mask.at_one():.12g}",
        "taps:",
    ]
    lines += [f"  h[{k}] = {t:.12g}" for k, t in enumerate(mask.taps)]
    _emit(args, payload, "\n".join(lines))
    return EXIT_PASS


def _cmd_refine(args: argparse.Namespace) -> int:
    mask = serialize.mask_from_json(_load_json(args.mask))
    phi = refinable_from_mask(mask, args.M, tol=args.tol)
    payload = serialize.function_to_json(phi)
    if args.csv:
        hat = fourier(phi)
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "point", "abs_hat"])
            for l, x in enumerate(hat.grid_points()):
                writer.writerow([l, str(x), abs(hat.values[l])])
    human = (
        f"solved: phi in D_{phi.support_exp}^{phi.period_exp} "
        f"({phi.n} grid values), |phi|_2 = {norm_l2(phi):.6g}"
    )
    _emit(args, payload, human)
    return EXIT_PASS


def _cmd_check(args: argparse.Namespace) -> int:
    phi = serialize.function_from_json(_load_json(args.phi))
    report = check_mra(phi, tol=args.tol)
    payload = serialize.mra_report_to_json(report)
    human = "\n".join(
        [
            f"phi in D_{report.support_exp}^{report.period_exp}, p = {report.prime}",
            f"  refinable            {report.refinable} (residual {report.refine_residual:.2e})",
            f"  L set                {list(report.lset.members)} "
            f"(#L = {report.lset.size}, bound {report.lset.bound})",
            f"  criterion            {report.criterion_ok}",
            f"  set rule p L in L    {report.set_rule_ok}",
            f"  shift expansions     worst residual {report.axiom_a_residual:.2e} "
            f"({report.axiom_a_route}; {report.fit_rows} bins, count {report.lset.bound}), "
            f"ok = {report.axiom_a_ok}",
            f"  orthonormal shifts   {report.orthonormality.verdict}",
            f"  haar equivalent      {report.haar_equivalent}",
        ]
    )
    _emit(args, payload, human)
    return EXIT_PASS if report.criterion_ok else EXIT_FAIL


def _cmd_ortho(args: argparse.Namespace) -> int:
    phi = serialize.function_from_json(_load_json(args.phi))
    report = check_orthonormal_shifts(phi, tol=args.tol)
    payload = serialize.orthonormality_to_json(report)
    human = "\n".join(
        [
            f"char-sum residual max {np.max(report.char_sum_residuals, initial=0.0):.2e} "
            f"-> ok = {report.char_sums_ok}",
            f"hat inside unit ball  {report.hat_supported_in_unit_ball}"
            + (
                f", unit modulus ok = {report.unit_modulus_ok}"
                if report.unit_modulus_ok is not None
                else ""
            ),
            f"gram residual         {report.gram_residual:.2e}, norm = {report.norm_value:.9g}",
            f"verdict               {report.verdict}",
        ]
    )
    _emit(args, payload, human)
    return EXIT_PASS if report.verdict else EXIT_FAIL


def _cmd_wavelets(args: argparse.Namespace) -> int:
    phi = serialize.function_from_json(_load_json(args.phi))
    mask = serialize.mask_from_json(_load_json(args.mask))
    ws = build_wavelet_set(phi, mask, tol=args.tol)
    if args.normalize:
        ws = ws.normalize()
    payload = serialize.wavelet_set_to_json(ws)
    norms = ", ".join(f"{norm_l2(psi):.6g}" for psi in ws.wavelets)
    _emit(
        args,
        payload,
        f"built {ws.r} wavelet(s) in D_{ws.support_exp}^{ws.period_exp + 1}; norms [{norms}]",
    )
    return EXIT_PASS


def _cmd_frame(args: argparse.Namespace) -> int:
    ws = serialize.wavelet_set_from_json(_load_json(args.ws))
    report = frame_bounds(ws, tol=args.tol)
    count = report.inclusion_count
    payload = serialize.frame_report_to_json(report)
    human = "\n".join(
        [
            f"generators            {report.generator_count}",
            f"frame bounds          A = {report.A:.9g}, B = {report.B:.9g}",
            f"inclusion residual    {report.inclusion_residual:.2e}",
            f"inclusion count       |S| = {count.support_bins}, |T| = {count.target_bins}, "
            f"r p^N = {count.wavelet_translates}, rank {count.rank}, d = {count.deficiency}",
            f"refinement residual   {report.refinement_residual:.2e}",
            f"V0-orthogonality      {report.v0_residual:.2e}",
            f"factorization         {report.factorization_residual:.2e}",
            f"verdict               {'PASS' if report.ok else 'FAIL'}",
        ]
    )
    _emit(args, payload, human)
    return EXIT_PASS if report.ok else EXIT_FAIL


def _cmd_transform(args: argparse.Namespace) -> int:
    f = serialize.function_from_json(_load_json(args.f))
    ws = serialize.wavelet_set_from_json(_load_json(args.ws))
    tree = analyze(f, ws, j0=args.j0, j1=args.j1)
    rebuilt = synthesize(tree, ws)
    f2 = reframe(f, *tree.frame)
    err = float(np.max(np.abs(rebuilt.values - f2.values), initial=0.0))
    ok = err <= args.tol + tree.input_residual
    payload = {
        "tree": serialize.tree_to_json(tree),
        "round_trip_error": err,
        "input_residual": tree.input_residual,
        "ok": ok,
    }
    human = "\n".join(
        [
            f"levels {args.j0}..{args.j1}, frame D_{tree.frame[0]}^{tree.frame[1]}",
            f"  input residual      {tree.input_residual:.2e}",
            f"  split residuals     "
            + ", ".join(f"j={j}: {r:.2e}" for j, r in sorted(tree.split_residuals.items())),
            f"  round-trip error    {err:.2e}",
            f"  verdict             {'PASS' if ok else 'FAIL'}",
        ]
    )
    _emit(args, payload, human)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_kozyrev(args: argparse.Namespace) -> int:
    ws = kozyrev_set(args.p, tol=args.tol)
    payload = {"ok": True, "wavelet_set": serialize.wavelet_set_to_json(ws)}
    _emit(
        args,
        payload,
        f"verified the {ws.r} character wavelets on the unit ball for p = {args.p}",
    )
    return EXIT_PASS


# --------------------------------------------------------------------------
# Parser assembly


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--tol", type=_tol, default=DEFAULT_TOL, help="comparison tolerance")
    sp.add_argument("--json", action="store_true", help="print machine-readable JSON")
    sp.add_argument("--out", default=None, help="write the JSON payload to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-mra",
        description="Exact multiresolution analysis on the p-adic line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("haar", help="full pipeline for the ball-indicator scaling function")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--M", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_haar)

    mask = sub.add_parser("mask", help="create or inspect masks")
    msub = mask.add_subparsers(dest="mask_command", required=True)

    sp = msub.add_parser("new-from-roots", help="minimal mask vanishing at given points")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--roots", required=True, help="comma-separated, e.g. 1/4,3/8")
    _add_common(sp)
    sp.set_defaults(func=_cmd_mask_new)

    sp = msub.add_parser("eval", help="evaluate a mask at a point")
    sp.add_argument("--mask", required=True)
    sp.add_argument("--xi", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_mask_eval)

    sp = msub.add_parser("info", help="degree, taps and normalization of a mask")
    sp.add_argument("--mask", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_mask_info)

    sp = sub.add_parser("refine", help="solve the refinement equation for a mask")
    sp.add_argument("--mask", required=True)
    sp.add_argument("--M", type=int, required=True, help="Fourier support exponent")
    sp.add_argument("--csv", default=None, help="write |phi-hat| over the grid as CSV")
    _add_common(sp)
    sp.set_defaults(func=_cmd_refine)

    sp = sub.add_parser("check", help="decide the MRA criterion for a function")
    sp.add_argument("--phi", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("ortho", help="check orthonormality of the translates")
    sp.add_argument("--phi", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_ortho)

    sp = sub.add_parser("wavelets", help="construct and verify the wavelet set")
    sp.add_argument("--phi", required=True)
    sp.add_argument("--mask", required=True)
    sp.add_argument("--normalize", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_wavelets)

    sp = sub.add_parser("frame", help="frame bounds of a wavelet set")
    sp.add_argument("--ws", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_frame)

    sp = sub.add_parser("transform", help="multilevel analyze/synthesize round trip")
    sp.add_argument("--f", required=True)
    sp.add_argument("--ws", required=True)
    sp.add_argument("--j0", type=int, default=0)
    sp.add_argument("--j1", type=int, default=1)
    _add_common(sp)
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("kozyrev", help="build and verify the character wavelets")
    sp.add_argument("--p", type=_prime, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_kozyrev)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SupportViolationError, NotRefinableError, UnsupportedConfigurationError, VerificationError) as exc:
        print(f"verdict: FAIL: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (PreconditionError, PrimeMismatchError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
