"""Walk the ball-indicator scaling function through the whole pipeline.

Builds the Haar mask for a chosen prime, solves the refinement equation,
checks the MRA criterion and orthonormality, constructs the wavelet set,
computes frame bounds, and runs a multilevel transform round trip.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

import numpy as np

from padic_mra import (
    analyze,
    build_wavelet_set,
    check_mra,
    frame_bounds,
    haar_mask,
    norm_l2,
    refinable_from_mask,
    reframe,
    synthesize,
)
from padic_mra.config import is_prime
from padic_mra.generators import random_function


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--levels", type=int, default=2, help="transform depth j1")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if not is_prime(args.p):
        ap.error(f"{args.p} is not prime")

    p = args.p
    m0 = haar_mask(p)
    print(f"mask taps: {np.round(m0.taps.real, 12).tolist()}")

    phi = refinable_from_mask(m0, 0)
    print(f"phi = refinable solution on frame D_{phi.support_exp}^{phi.period_exp}, "
          f"values {np.round(phi.values.real, 12).tolist()}")

    report = check_mra(phi)
    print(f"MRA criterion: {report.criterion_ok} "
          f"(refinable residual {report.refine_residual:.2e}, "
          f"#L = {report.lset.size} <= {report.lset.bound})")
    print(f"orthonormal shifts: {report.orthonormality.verdict}, "
          f"haar-equivalent: {report.haar_equivalent}")

    ws = build_wavelet_set(phi, m0).normalize()
    for nu, psi in enumerate(ws.wavelets, start=1):
        print(f"psi^({nu}) values: {np.round(psi.values, 6).tolist()}")
    rep = frame_bounds(ws)
    print(f"frame bounds of the normalized wavelet system: "
          f"A = {rep.A:.6f}, B = {rep.B:.6f}")

    rng = np.random.default_rng(args.seed)
    f = random_function(rng, p, 0, args.levels)
    tree = analyze(f, ws, j0=0, j1=args.levels)
    rebuilt = synthesize(tree, ws)
    err = np.abs(rebuilt.values - reframe(f, *tree.frame).values).max()
    print(f"transform over levels 0..{args.levels}: "
          f"round-trip error {err:.2e}, input residual {tree.input_residual:.2e}")

    # the V/W split is orthogonal in function space for every p, even when
    # the wavelet translates themselves are a non-orthogonal basis of W
    approx_part = synthesize(
        replace(tree, details={j: np.zeros_like(d) for j, d in tree.details.items()}),
        ws,
    )
    detail_part = synthesize(
        replace(tree, approx=np.zeros_like(tree.approx)), ws
    )
    print(f"energy split: V_0 part {norm_l2(approx_part) ** 2:.4f} + "
          f"W parts {norm_l2(detail_part) ** 2:.4f} = {norm_l2(f) ** 2:.4f}")


if __name__ == "__main__":
    main()
