"""Shared fixtures and independent oracles.

The oracles recompute quantities the library produces, through routes the
library never takes: Fourier coefficients as dense exact-character sums,
Gram and V_0 scans as one roll and inner product per offset,
inner products as measure-weighted sums of point evaluations on a finer
grid, polynomial products by schoolbook convolution, a mask's grid values
by polyval at the grid's characters, the depth product one point at a
time, one refinement step by a tap-weighted sum of rolls
or on the transform side, the refinement window and its rolled targets as
one dense space-domain block (oracle_window_solve), each wavelet as the tap-weighted sum of rolls of
its mask (oracle_tap_sum), the transform's level matrices column by
column through shift, dilate and reframe, the multilevel transform as
dense least-squares solves on them and the multilevel frame as the dense
Gram of those columns, the wavelet masks with the degree
padded by a power of z - 1, the wavelet inclusion test
and frame Gram on the full refined grid, one rolled column at a time,
each wavelet's factorization and V_0 residuals from its own transforms,
and span equality of two column systems by two dense least-squares
solves.
Frozen expected values in the test modules were produced by these oracles,
not by the code under test. The transform_lengths fixture records the
length of every transform numpy.fft makes.

BLAS runs on one thread: with a busy core, spinning OpenBLAS threads make
the dense oracle solves many times slower. The pin is set before numpy is
first imported, which is when BLAS reads it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from padic_mra import (
    TestFunction,
    TrigPolynomial,
    dilate,
    evaluate,
    fourier,
    inv_fourier,
    mask_from_roots,
    norm_l2,
    omega,
    refinable_from_mask,
    reframe,
    shift,
)
from padic_mra.padic_core import PadicRational, character


def oracle_fourier(f: TestFunction) -> np.ndarray:
    """Fourier grid values by the dense exact-character sum.

    f-hat(l/p^M) = sum_a p^(-M) chi_p(l a / p^(N+M)) f(a/p^N), with the
    character phase l a reduced mod p^(N+M) in integer arithmetic before
    exponentiation.
    """
    p, M = f.prime, f.period_exp
    mod = f.n
    idx = np.arange(mod, dtype=np.int64)
    phases = np.outer(idx, idx) % mod
    return np.exp(2j * np.pi * phases / mod) @ f.values * float(p) ** (-M)


def oracle_inner(f: TestFunction, g: TestFunction) -> complex:
    """<f, g> by point evaluation on a one-level-finer grid.

    The points a/p^N for a < p^(N+M+1) represent the cosets of
    p^(M+1) Z_p inside B_N, each of measure p^(-(M+1)); summing point
    values over them must reproduce the coarse integral.
    """
    assert (f.prime, f.support_exp, f.period_exp) == (
        g.prime,
        g.support_exp,
        g.period_exp,
    )
    p, N, M = f.prime, f.support_exp, f.period_exp
    fine = p ** (N + M + 1)
    acc = 0j
    for a in range(fine):
        x = PadicRational(p, a, N)
        acc += evaluate(f, x) * complex(evaluate(g, x)).conjugate()
    return acc * p ** (-(M + 1))


def oracle_poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Schoolbook product of two coefficient lists (ascending powers)."""
    out = np.zeros(len(a) + len(b) - 1, dtype=np.complex128)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def oracle_gram_residual(phi: TestFunction) -> float:
    """Stage-3 Gram residual by one roll and inner product per offset.

    max |<phi, phi(. - d/p^N)>| over d in [1, p^(N+M)) with v_p(d) < N.
    """
    p, N, M = phi.prime, phi.support_exp, phi.period_exp
    worst = 0.0
    for d in range(1, phi.n):
        v, r = 0, d
        while r % p == 0:
            r //= p
            v += 1
        if v < N:
            ip = float(p) ** (-M) * np.vdot(np.roll(phi.values, d), phi.values)
            worst = max(worst, abs(ip))
    return worst


def oracle_v0_residual(phi: TestFunction, psi: TestFunction) -> float:
    """max |<phi(.-a), psi(.-b)>| over a, b in I_p, one offset at a time.

    The difference classes are d/p^N with |d| < p^N; phi is lifted to the
    frame of psi before each roll and inner product.
    """
    p, N = phi.prime, phi.support_exp
    f = reframe(phi, N, psi.period_exp)
    scale = float(p) ** (-psi.period_exp)
    worst = 0.0
    for d in range(-(p**N) + 1, p**N):
        worst = max(worst, abs(scale * np.vdot(np.roll(psi.values, d), f.values)))
    return worst


def oracle_wavelet_residuals(
    phi: TestFunction, mask: TrigPolynomial, psi: TestFunction
) -> tuple[float, float]:
    """(factorization, V_0) residuals of one wavelet, each from its own transforms.

    fourier(psi) against n(xi/p^N) times fourier(phi) at p xi, relative to
    the largest expected value; and the cross-correlation of phi, lifted to
    the frame of psi, with psi by a forward DFT of each and one inverse,
    relative to ||phi|| ||psi||.
    """
    p, N, M = phi.prime, phi.support_exp, phi.period_exp
    phat = fourier(phi)
    idx = np.arange(psi.n)
    # the library's mask grid: polyval's rounding (oracle_mask_grid) would
    # swamp the machine-zero residuals this is compared at
    mask_vals = mask.values_on_depth_grid(M + 1 + N)[idx % p ** (M + 1 + N)]
    expected = mask_vals * phat.values[idx % phat.n]
    fact = float(np.max(np.abs(fourier(psi).values - expected)))
    scale = float(np.max(np.abs(expected)))
    fact = fact / scale if scale > 0 else fact
    f = reframe(phi, N, psi.period_exp)
    corr = float(p) ** (-psi.period_exp) * np.fft.ifft(
        np.fft.fft(f.values) * np.conj(np.fft.fft(psi.values))
    )
    d = np.arange(-(p**N) + 1, p**N)
    orth = float(np.max(np.abs(corr[d % psi.n])))
    bound = norm_l2(phi) * norm_l2(psi)
    return fact, orth / bound if bound > 0 else orth


def oracle_mask_grid(m: TrigPolynomial, t: int) -> np.ndarray:
    """m(j / p^t) for j < p^t, by polyval at the characters exp(2 pi i j / p^t)."""
    n = m.prime**t
    z = np.exp(2j * np.pi * np.arange(n) / n)
    return np.asarray(np.polynomial.polynomial.polyval(z, m.coeffs), dtype=np.complex128)


def oracle_hat_value_at(m: TrigPolynomial, xi: PadicRational) -> complex:
    """Single-point product formula: prod_{t=1..s+N} m(u/p^t) at xi = u/p^s."""
    out = 1.0 + 0j
    for t in range(1, xi.exp + m.scale + 1):
        out *= m.value(PadicRational(m.prime, xi.num, t))
    return out


def oracle_tap_sum(phi: TestFunction, mask: TrigPolynomial) -> TestFunction:
    """The wavelet sum_k h_k phi(x/p - k/p^(N+1)) of a mask, one roll per tap.

    phi(x/p - k/p^(N+1)) is the dilate phi(x/p) on the frame (N, M+1)
    rolled by k, so the wavelet is built in space, never through a
    transform.
    """
    N, M = phi.frame
    g = reframe(dilate(phi, -1), N, M + 1)
    acc = np.zeros(g.n, dtype=np.complex128)
    for k, tap in enumerate(mask.taps):
        acc += tap * np.roll(g.values, k)
    return TestFunction(phi.prime, N, M + 1, acc)


def oracle_roll_columns(values: np.ndarray, count: int) -> np.ndarray:
    """Matrix whose column k is np.roll(values, k), for 0 <= k < count, by an index gather."""
    idx = np.arange(values.shape[0])
    return values[(idx[:, None] - np.arange(count)[None, :]) % values.shape[0]]


def oracle_window_solve(
    phi: TestFunction, target: np.ndarray, rolls: int
) -> tuple[np.ndarray, np.ndarray]:
    """Window taps and sup residuals for the rolls of target by k < rolls, in space.

    The window generators phi(x/p - k/p^(N+1)) are the rolls by k of the
    dilate g = phi(x/p) on the frame (N, M+1). g vanishes off p Z, so
    generator k meets only the grid rows a = k (mod p), and the window
    splits into p identical blocks g(p (i - j)), one per residue. Every
    residue of every roll is solved against that block by lstsq with the
    full window's rank cut, on all p^(N+M+1) rows. Returns the taps
    (p^(N+1) x rolls) and each roll's sup residual.
    """
    N, M = phi.frame
    p = phi.prime
    g = reframe(dilate(phi, -1), N, M + 1)
    block = oracle_roll_columns(g.values[::p], p**N)
    targets = oracle_roll_columns(target, rolls)
    rows = block.shape[0]
    # Column r * rolls + c of rhs holds the rows a = r (mod p) of target c.
    rhs = targets.reshape(rows, p * rolls)
    rcond = np.finfo(float).eps * max(p ** (N + M + 1), block.shape[1])
    taps = np.linalg.lstsq(block, rhs, rcond=rcond)[0]
    misfit = np.abs(block @ taps - rhs).reshape(rows * p, rolls)
    return taps.reshape(p ** (N + 1), rolls), np.max(misfit, axis=0, initial=0.0)


def oracle_apply_refinement(m: TrigPolynomial, f: TestFunction) -> TestFunction:
    """One refinement step sum_k h_k f(x/p - k/p^(N+1)) on the refined frame.

    f(x/p - k/p^(N+1)) = g(x - k/p^N) with g the dilate f(x/p), so the sum
    is a tap-weighted combination of grid translates of g; the result lands
    in D_N^(M+1) and is re-framed to the refined frame (N+1, M+1).
    """
    N = m.scale
    g = reframe(dilate(f, -1), N, f.period_exp + 1)
    acc = np.zeros(g.n, dtype=np.complex128)
    for k, tap in enumerate(m.taps):
        if tap != 0:
            acc += tap * np.roll(g.values, k)
    out = TestFunction(f.prime, N, f.period_exp + 1, acc)
    return reframe(out, N + 1, f.period_exp + 1)


def oracle_apply_refinement_fourier(m: TrigPolynomial, f: TestFunction) -> TestFunction:
    """Same step on the transform side: ghat(xi) = m(xi/p^N) fhat(p xi)."""
    p, N, M = f.prime, m.scale, f.period_exp
    fhat = fourier(f)
    idx = np.arange(p ** (N + M + 2))
    # Point l/p^(M+1): mask argument has depth M+1+N, fhat argument l/p^M.
    mask_vals = oracle_mask_grid(m, M + 1 + N)[idx % p ** (M + 1 + N)]
    ghat = TestFunction(p, M + 1, N + 1, mask_vals * fhat.values[idx % fhat.n])
    return inv_fourier(ghat)


def oracle_level_matrix(
    funcs: list[TestFunction], N: int, j: int, frame: tuple[int, int]
) -> np.ndarray:
    """Columns p^(j/2) f(p^-j x - k/p^(N+j)), built one TestFunction at a time."""
    p = funcs[0].prime
    cols = []
    for f in funcs:
        for k in range(p ** (N + j)):
            g = dilate(shift(f, PadicRational(p, k, N + j)), -j, normalized=True)
            cols.append(reframe(g, *frame).values)
    return np.column_stack(cols)


def oracle_analyze(f: TestFunction, ws, j0: int, j1: int):
    """The multilevel transform by dense lstsq on all grid rows, level by level.

    Every level matrix is built column by column (oracle_level_matrix); each
    projection and each detail expansion is numpy's default lstsq on the
    full working frame.
    """
    from padic_mra import CoefficientTree

    N = ws.support_exp
    frame = (max(N, f.support_exp), max(ws.period_exp + 1 + j1, f.period_exp))
    target = reframe(f, *frame).values
    v_top = oracle_level_matrix([ws.phi], N, j1, frame)
    c, _, _, _ = np.linalg.lstsq(v_top, target, rcond=None)
    approx = v_top @ c
    input_residual = float(np.max(np.abs(approx - target), initial=0.0))
    details, split_residuals = {}, {}
    for j in range(j1 - 1, j0 - 1, -1):
        vj = oracle_level_matrix([ws.phi], N, j, frame)
        c, _, _, _ = np.linalg.lstsq(vj, approx, rcond=None)
        smooth = vj @ c
        residue = approx - smooth
        wj = oracle_level_matrix(ws.wavelets, N, j, frame)
        dj, _, _, _ = np.linalg.lstsq(wj, residue, rcond=None)
        split_residuals[j] = float(np.max(np.abs(wj @ dj - residue), initial=0.0))
        details[j] = dj.reshape(ws.r, -1)
        approx = smooth
    return CoefficientTree(
        prime=ws.prime, j0=j0, j1=j1, approx=c, details=details,
        input_residual=input_residual, split_residuals=split_residuals,
        frame=frame, tol=ws.tol,
    )


def oracle_synthesize(tree, ws) -> np.ndarray:
    """Values of the function a tree describes, as dense level matrices times coefficients."""
    N = ws.support_exp
    acc = oracle_level_matrix([ws.phi], N, tree.j0, tree.frame) @ tree.approx
    for j, dj in tree.details.items():
        acc = acc + oracle_level_matrix(ws.wavelets, N, j, tree.frame) @ dj.reshape(-1)
    return acc


def oracle_multilevel_gram(ws, j0: int, j1: int) -> tuple[np.ndarray, list[int]]:
    """Gram of phi's level-j0 translates and the wavelets' at levels j0..j1-1, dense.

    Every column is built one TestFunction at a time (oracle_level_matrix)
    on the working frame (N, M+1+j1) of analyze, and the Gram is
    p^-M' a* a on all its grid rows, M' that frame's period exponent.
    Returns the Gram and the column count of each block: phi's first, then
    one per level.
    """
    N, M = ws.support_exp, ws.period_exp
    frame = (N, M + 1 + j1)
    blocks = [oracle_level_matrix([ws.phi], N, j0, frame)]
    blocks += [oracle_level_matrix(ws.wavelets, N, j, frame) for j in range(j0, j1)]
    a = np.column_stack(blocks)
    return float(ws.prime) ** (-frame[1]) * (a.conj().T @ a), [b.shape[1] for b in blocks]


def oracle_padded_wavelet_masks(phi: TestFunction, lset) -> list[TrigPolynomial]:
    """The wavelet masks with the degree padded to p^N by a power of z - 1.

    n_nu(z) = z^((nu-1) p^N) (z - 1)^(p^N - #L) prod_{l in L} (z - chi_p(l/p^(M+N))),
    each product expanded by schoolbook convolution.
    """
    p, (N, M) = phi.prime, phi.frame
    roots = [1.0 + 0j] * (p**N - lset.size) + [
        character(PadicRational(p, l, M + N)) for l in lset.members
    ]
    base = np.array([1.0 + 0j])
    for root in roots:
        base = oracle_poly_mul(base, np.array([-root, 1.0 + 0j]))
    return [
        TrigPolynomial(p, np.concatenate([np.zeros((nu - 1) * p**N), base]), scale=N)
        for nu in range(1, p)
    ]


def _oracle_translates(funcs: list[TestFunction], count: int) -> np.ndarray:
    return np.column_stack([np.roll(f.values, k) for f in funcs for k in range(count)])


def oracle_inclusion_residual(ws) -> float:
    """Inclusion residual solved in the space domain on all p^(N+M+1) rows.

    Targets phi(x/p - k/p^(N+1)), k < p^(N+1), against the unit-norm
    translates phi(. - k/p^N) and psi_nu(. - k/p^N), k < p^N; the sup
    residual is relative to max |phi|.
    """
    p, N, M = ws.prime, ws.support_exp, ws.period_exp
    span = _oracle_translates([reframe(ws.phi, N, M + 1), *ws.wavelets], p**N)
    norms = np.linalg.norm(span, axis=0)
    span = span / np.where(norms > 0, norms, 1.0)
    targets = _oracle_translates([reframe(dilate(ws.phi, -1), N, M + 1)], p ** (N + 1))
    sol, _, _, _ = np.linalg.lstsq(span, targets, rcond=None)
    residual = np.max(np.abs(span @ sol - targets))
    return float(residual / np.max(np.abs(targets)))


def oracle_span_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Sup residual of expressing the columns of b through a, and of a through b."""
    sol_ab, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    sol_ba, _, _, _ = np.linalg.lstsq(b, a, rcond=None)
    res_ab = float(np.max(np.abs(a @ sol_ab - b), initial=0.0))
    res_ba = float(np.max(np.abs(b @ sol_ba - a), initial=0.0))
    return max(res_ab, res_ba)


def oracle_haar_span_residual(phi: TestFunction) -> float:
    """Span residual of phi's translates against the ball indicator's.

    Both systems are the translates by k/p^N, k < p^N, on phi's frame.
    """
    p, N, M = phi.prime, phi.support_exp, phi.period_exp
    return oracle_span_residual(
        _oracle_translates([phi], p**N), _oracle_translates([omega(p, N, M)], p**N)
    )


def oracle_wavelet_gram(ws) -> np.ndarray:
    """Gram p^-(M+1) a* a of the wavelet translates on all p^(N+M+1) rows."""
    p, N, M = ws.prime, ws.support_exp, ws.period_exp
    a = _oracle_translates(ws.wavelets, p**N)
    return float(p) ** (-(M + 1)) * (a.conj().T @ a)


QUARTIC_ZEROS = [
    PadicRational(2, 1, 2),
    PadicRational(2, 3, 3),
    PadicRational(2, 7, 4),
    PadicRational(2, 15, 4),
]


@pytest.fixture(scope="session")
def quartic_mask():
    return mask_from_roots(2, 2, QUARTIC_ZEROS)


@pytest.fixture(scope="session")
def quartic_phi(quartic_mask):
    return refinable_from_mask(quartic_mask, 1)


@pytest.fixture()
def transform_lengths(monkeypatch) -> list[int]:
    """The length of every transform numpy.fft makes during the test, one entry per vector.

    numpy.fft is one module object, so this sees every caller in the
    library; clear the list to start a new count.
    """
    lengths: list[int] = []

    def counting(real):
        def spy(a, n=None, axis=-1, **kwargs):
            a = np.asarray(a)
            lengths.extend([a.shape[axis]] * (a.size // a.shape[axis]))
            return real(a, n, axis, **kwargs)

        return spy

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    return lengths


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260825)
