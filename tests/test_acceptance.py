"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Run under pytest (each criterion is one test) or standalone:

    python3 tests/test_acceptance.py

Every criterion prints exactly one line, 'criterion N: PASS ...' or
'criterion N: FAIL ...', and the assertions carry the same text.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import oracle_fourier
from padic_mra import (
    analyze,
    build_wavelet_set,
    check_haar_equivalence,
    check_mra,
    check_orthonormal_shifts,
    dilate,
    fourier,
    frame_bounds,
    haar_mask,
    inner_product,
    kozyrev_set,
    l_set,
    lincomb,
    mask_from_roots,
    norm_l2,
    omega,
    refinable_from_mask,
    reframe,
    shift,
    shift_mask,
    sphere_values,
    support_margin,
    synthesize,
    verify_wavelet_set,
)
from padic_mra.errors import SupportViolationError
from padic_mra.generators import (
    random_covering_mask,
    random_function,
    random_noise_mask,
    random_unimodular_mask,
)
from padic_mra.padic_core import PadicRational, character, enumerate_Ip_ball


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_haar_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (2, 3, 5):
        phi = refinable_from_mask(haar_mask(p), 0)
        worst = max(worst, float(np.abs(phi.values - omega(p).values).max()))
        report = check_mra(phi)
        assert report.criterion_ok and report.refinable
        ortho = check_orthonormal_shifts(phi)
        assert ortho.char_sums_ok
        assert ortho.unit_modulus_ok is True
        assert ortho.gram_ok and ortho.norm_ok and ortho.verdict
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _verdict(
        1,
        ok,
        f"haar p=2,3,5 reproduces the ball indicator "
        f"(max error {worst:.1e}, {elapsed:.2f}s)",
    )


def test_criterion_2_quartic_example():
    t0 = time.perf_counter()
    mask = mask_from_roots(
        2,
        2,
        [
            PadicRational(2, 1, 2),
            PadicRational(2, 3, 3),
            PadicRational(2, 7, 4),
            PadicRational(2, 15, 4),
        ],
    )
    phi = refinable_from_mask(mask, 1)
    phat = fourier(phi)
    zero_mags = [abs(phat.values[l]) for l in (1, 2, 3, 5)]
    # points of norm 2 on the half-integer grid are the odd indices
    outside_ball = max(
        abs(phat.values[l]) for l in range(phat.n) if l % 2 == 1
    )
    ls = l_set(phi)
    report = check_mra(phi)
    elapsed = time.perf_counter() - t0
    ok = (
        max(zero_mags) < 1e-9
        and outside_ball > 1e-3
        and ls.size <= 4
        and report.criterion_ok
        and elapsed < 1.0
    )
    _verdict(
        2,
        ok,
        f"degree-4 example: prescribed zeros {max(zero_mags):.1e}, "
        f"support leaves B_0 ({outside_ball:.2f}), #L = {ls.size}, "
        f"criterion {report.criterion_ok} ({elapsed:.2f}s)",
    )


def test_criterion_3_duality_equivalence():
    rng = np.random.default_rng(42)
    trials = 0
    mismatches = 0
    worst_residual = 0.0
    sides = {True: 0, False: 0}
    while trials < 200:
        p = int(rng.choice([2, 3]))
        N = int(rng.integers(0, 3))
        M = int(rng.integers(0, 3))
        mk = random_covering_mask(rng, p, N, M)
        try:
            phi = refinable_from_mask(mk, M)
        except SupportViolationError:
            continue
        trials += 1
        ls = l_set(phi)
        sides[ls.within_bound] += 1
        solutions = [
            shift_mask(phi, b, same_scale=False)
            for b in enumerate_Ip_ball(p, N)
        ]
        all_ok = all(s.ok for s in solutions)
        if all_ok:
            worst_residual = max(
                worst_residual, max(s.pointwise_residual for s in solutions)
            )
        if all_ok != ls.within_bound:
            mismatches += 1
    ok = (
        mismatches == 0
        and worst_residual < 1e-9
        and sides[True] > 0
        and sides[False] > 0
    )
    _verdict(
        3,
        ok,
        f"duality on {trials} masks: {mismatches} mismatches, "
        f"{sides[True]}/{sides[False]} within/over bound, "
        f"worst residual {worst_residual:.1e}",
    )


def test_criterion_4_orthogonality_pipeline():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(50):
        p = int(rng.choice([2, 3]))
        N = int(rng.integers(0, 3))
        m = random_unimodular_mask(rng, p, N)
        phi = refinable_from_mask(m, 0)  # succeeds iff supp phat lies in B_0
        phat = fourier(phi)
        assert np.abs(np.abs(phat.values) - 1.0).max() < 1e-9
        ortho = check_orthonormal_shifts(phi)
        assert ortho.hat_supported_in_unit_ball
        assert ortho.unit_modulus_ok is True
        assert ortho.gram_residual < 1e-9
        assert ortho.verdict
        assert check_haar_equivalence(phi) is True
        checked += 1
    _verdict(
        4,
        checked == 50,
        f"{checked} modulus-pattern masks: unit-ball support, "
        "unimodular transform, orthonormal shifts, haar-equivalent",
    )


def _sandwich_slack(ws, rep, rng, samples: int) -> float:
    p, N = ws.prime, ws.support_exp
    gens = [
        shift(psi, PadicRational(p, k, N))
        for psi in ws.wavelets
        for k in range(p**N)
    ]
    worst = 0.0
    for _ in range(samples):
        c = rng.normal(size=len(gens)) + 1j * rng.normal(size=len(gens))
        f = lincomb(c, gens)
        energy = sum(abs(inner_product(f, g)) ** 2 for g in gens)
        q = norm_l2(f) ** 2
        scale = max(q, 1.0)
        worst = max(
            worst,
            (rep.A * q - energy) / scale,
            (energy - rep.B * q) / scale,
        )
    return worst


def test_criterion_5_wavelet_frame_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    quartic = mask_from_roots(
        2,
        2,
        [
            PadicRational(2, 1, 2),
            PadicRational(2, 3, 3),
            PadicRational(2, 7, 4),
            PadicRational(2, 15, 4),
        ],
    )
    cases = [
        ("haar p=2", refinable_from_mask(haar_mask(2), 0), haar_mask(2)),
        ("haar p=3", refinable_from_mask(haar_mask(3), 0), haar_mask(3)),
        ("quartic", refinable_from_mask(quartic, 1), quartic),
    ]
    details = []
    ok = True
    for name, phi, m0 in cases:
        ws = build_wavelet_set(phi, m0)
        ver = verify_wavelet_set(ws)
        rep = frame_bounds(ws)
        slack = _sandwich_slack(ws, rep, rng, 100)
        case_ok = (
            ver.v0_residual < 1e-9
            and ver.inclusion_residual < 1e-9
            and 0 < rep.A <= rep.B
            and slack <= 1e-8
        )
        ok = ok and case_ok
        details.append(f"{name}: A={rep.A:.3g} B={rep.B:.3g} slack={slack:.1e}")
    # normalization tightens the p=2 case, where there is a single wavelet
    tight = frame_bounds(
        build_wavelet_set(
            refinable_from_mask(haar_mask(2), 0), haar_mask(2)
        ).normalize()
    )
    tight_err = abs(tight.A - 1.0) + abs(tight.B - 1.0)
    ok = ok and tight_err < 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _verdict(
        5,
        ok,
        "; ".join(details) + f"; normalized tightness {tight_err:.1e} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_6_kozyrev_verification():
    tol = 1e-10
    worst = 0.0
    for p in (2, 3, 5):
        ws = kozyrev_set(p, tol=tol)
        ver = verify_wavelet_set(ws, tol)
        worst = max(worst, ver.v0_residual)
        for i, a in enumerate(ws.wavelets):
            worst = max(worst, abs(norm_l2(a) - 1.0))
            for b in ws.wavelets[i + 1 :]:
                worst = max(worst, abs(inner_product(a, b)))
        # span equality with the tap-window wavelets of the same phi
        reference = build_wavelet_set(ws.phi, ws.scaling_mask)
        kv = np.column_stack([w.values for w in ws.wavelets])
        rv = np.column_stack([w.values for w in reference.wavelets])
        for source, target in ((kv, rv), (rv, kv)):
            sol, _, _, _ = np.linalg.lstsq(source, target, rcond=None)
            worst = max(worst, float(np.abs(source @ sol - target).max()))
    _verdict(
        6,
        worst < tol,
        f"character wavelets p=2,3,5: worst deviation {worst:.1e}",
    )


def test_criterion_7_fourier_engine():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(500):
        p = int(rng.choice([2, 3]))
        N = int(rng.integers(-2, 4))
        M = int(rng.integers(max(0, -N), 7 - max(N, 0)))
        f = random_function(rng, p, N, M)
        fhat = fourier(f)
        # Plancherel
        worst = max(worst, abs(norm_l2(fhat) - norm_l2(f)))
        # double transform reflects
        g = fourier(fhat)
        reflected = f.values[(-np.arange(f.n)) % f.n]
        worst = max(worst, float(np.abs(g.values - reflected).max()))
        # shift rule
        if N > 0:
            b = PadicRational(p, int(rng.integers(1, p**N)), N)
            lhs = fourier(shift(f, b))
            twist = np.array([character(b * xi) for xi in fhat.grid_points()])
            worst = max(
                worst, float(np.abs(lhs.values - twist * fhat.values).max())
            )
        # dilation rule: exact reindexing with factor p^j
        j = int(rng.integers(-1, 2))
        lhs = fourier(dilate(f, j))
        worst = max(
            worst, float(np.abs(lhs.values - float(p) ** j * fhat.values).max())
        )
        # the FFT agrees with the dense exact-character sum
        worst = max(worst, float(np.abs(fhat.values - oracle_fourier(f)).max()))
    _verdict(7, worst < 1e-10, f"500 random functions: worst deviation {worst:.1e}")


def test_criterion_8_support_decision():
    rng = np.random.default_rng(5)
    disagreements = 0
    total = 0
    positives = 0
    for kind in range(120):
        p = int(rng.choice([2, 3]))
        N = int(rng.integers(0, 3))
        M = int(rng.integers(0, 2))
        if kind % 3 == 0:
            m = random_noise_mask(rng, p, N)
        elif kind % 3 == 1:
            m = random_covering_mask(rng, p, N, M)
        else:
            m = random_unimodular_mask(rng, p, N)
            M = 0
        decided, _, _ = support_margin(m, M)
        brute = all(
            np.abs(sphere_values(m, s)[1]).max() <= 1e-9
            for s in range(M + 1, M + 4)
        )
        total += 1
        positives += brute
        if decided != brute:
            disagreements += 1
    ok = disagreements == 0 and 0 < positives < total
    _verdict(
        8,
        ok,
        f"single-sphere decision vs three brute-forced spheres on {total} "
        f"masks ({positives} supported): {disagreements} disagreements",
    )


def test_criterion_9_transform_round_trip():
    rng = np.random.default_rng(31)
    quartic = mask_from_roots(
        2,
        2,
        [
            PadicRational(2, 1, 2),
            PadicRational(2, 3, 3),
            PadicRational(2, 7, 4),
            PadicRational(2, 15, 4),
        ],
    )
    worst = 0.0
    for phi, m0 in (
        (refinable_from_mask(haar_mask(2), 0), haar_mask(2)),
        (refinable_from_mask(quartic, 1), quartic),
    ):
        ws = build_wavelet_set(phi, m0)
        p, N = ws.prime, ws.support_exp
        j1 = 2
        # random element of the truncated V_2: coefficients on the
        # level-2 scaling translates
        gens = [
            dilate(shift(phi, PadicRational(p, k, N + j1)), -j1)
            for k in range(p ** (N + j1))
        ]
        for _ in range(5):
            c = rng.normal(size=len(gens)) + 1j * rng.normal(size=len(gens))
            f = lincomb(c, gens)
            tree = analyze(f, ws, j0=0, j1=j1)
            rebuilt = synthesize(tree, ws)
            lifted = reframe(f, *tree.frame)
            err = float(np.abs(rebuilt.values - lifted.values).max())
            worst = max(worst, err, tree.input_residual)
    _verdict(9, worst < 1e-8, f"analyze/synthesize over V_2: worst error {worst:.1e}")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion") and callable(fn):
            try:
                fn()
            except AssertionError as err:
                failures += 1
                print(err)
    raise SystemExit(1 if failures else 0)
