"""End-to-end walkthrough of the degree-4 mask with zeros 1/4, 3/8, 7/16, 15/16.

This mask is the smallest interesting non-Haar case: its refinable
solution needs Fourier support strictly bigger than the unit ball, its
translates are not orthonormal, and yet the MRA criterion holds and the
wavelet construction goes through with computable frame bounds.
"""

from __future__ import annotations

import numpy as np

from padic_mra import (
    build_wavelet_set,
    check_mra,
    fourier,
    frame_bounds,
    l_set,
    mask_from_roots,
    refinable_from_mask,
    shift_mask,
    verify_wavelet_set,
)
from padic_mra.errors import SupportViolationError
from padic_mra.padic_core import PadicRational, enumerate_Ip_ball


def main() -> None:
    p = 2
    zeros = [
        PadicRational(p, 1, 2),
        PadicRational(p, 3, 3),
        PadicRational(p, 7, 4),
        PadicRational(p, 15, 4),
    ]
    mask = mask_from_roots(p, 2, zeros)
    print(f"mask of degree {mask.degree} at scale N = 2 with prescribed zeros "
          + ", ".join(str(z) for z in zeros))
    print(f"taps: {np.round(mask.taps, 6).tolist()}")

    # the solution does not fit D_2^0 ...
    try:
        refinable_from_mask(mask, 0)
    except SupportViolationError as err:
        print(f"M = 0 refused: {err}")

    # ... but fits D_2^1
    phi = refinable_from_mask(mask, 1)
    print(f"M = 1 accepted: phi on frame D_{phi.support_exp}^{phi.period_exp}")

    phat = fourier(phi)
    print("transform on the half-integer grid:")
    for l, xi in enumerate(phat.grid_points()):
        print(f"  phi-hat({xi}) = {abs(phat.values[l]):.3e}")

    ls = l_set(phi)
    print(f"L = {ls.members} (size {ls.size}, bound p^N = {ls.bound})")

    report = check_mra(phi)
    print(f"MRA criterion: {report.criterion_ok} "
          f"(refine residual {report.refine_residual:.2e})")
    print(f"orthonormal shifts: {report.orthonormality.verdict} "
          f"(worst character-sum deviation "
          f"{max(report.orthonormality.char_sum_residuals):.3f})")

    print(f"set rule p L in L: {report.set_rule_ok}")
    print(f"axiom (a): every translate b = k/p^N in the refined window, worst "
          f"residual {report.axiom_a_residual:.2e} ({report.axiom_a_route}: "
          f"{report.fit_rows} bins against p^N = {ls.bound})")
    for b in enumerate_Ip_ball(p, 2):
        sol = shift_mask(phi, b, same_scale=False)
        print(f"  b = {str(b):>4}: residual {sol.pointwise_residual:.2e}")

    ws = build_wavelet_set(phi, mask)
    ver = verify_wavelet_set(ws)
    print(f"wavelet set: {len(ws.wavelets)} generator of degree "
          f"{ws.masks[0].degree}, V_0-orthogonality {ver.v0_residual:.1e}, "
          f"inclusion {ver.inclusion_residual:.1e}")
    count = ver.inclusion_count
    print(f"inclusion count: |S| = {count.support_bins}, |T| = {count.target_bins}, "
          f"r p^N = {count.wavelet_translates}, rank {count.rank}, d = {count.deficiency}")

    rep = frame_bounds(ws)
    print(f"frame bounds: A = {rep.A:.6f}, B = {rep.B:.6f} "
          f"(ratio {rep.B / rep.A:.1f})")


if __name__ == "__main__":
    main()
