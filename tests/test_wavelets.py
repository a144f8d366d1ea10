"""Wavelet masks and functions, frame bounds, the transform."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_mra import (
    TestFunction,
    TrigPolynomial,
    allclose,
    analyze,
    build_wavelet_set,
    check_mra,
    check_orthonormal_shifts,
    dilate,
    fourier,
    frame_bounds,
    haar_mask,
    hat_from_mask,
    inner_product,
    kozyrev_set,
    l_set,
    lincomb,
    mask_from_roots,
    norm_l2,
    recover_mask,
    refinable_from_mask,
    reframe,
    shift,
    shift_mask,
    sphere_values,
    support_margin,
    synthesize,
    verify_wavelet_set,
    wavelet_masks,
)
from conftest import (
    oracle_analyze,
    oracle_apply_refinement_fourier,
    oracle_inclusion_residual,
    oracle_multilevel_gram,
    oracle_padded_wavelet_masks,
    oracle_synthesize,
    oracle_tap_sum,
    oracle_v0_residual,
    oracle_wavelet_gram,
    oracle_wavelet_residuals,
)
from padic_mra.config import DEFAULT_TOL, GRID_CAP_ENV
from padic_mra.errors import (
    PreconditionError,
    UnsupportedConfigurationError,
    VerificationError,
)
from padic_mra.generators import random_covering_mask, random_function, random_unimodular_mask
from padic_mra import _translates, mra, test_functions, wavelets
from padic_mra._translates import _support_bins
from padic_mra.wavelets import (
    CoefficientTree,
    WaveletSet,
    _dilated,
    _frame_spectra,
    _spectra,
    _v0_residuals,
    wavelet_functions,
)
from padic_mra.padic_core import PadicRational


@pytest.fixture(scope="module")
def haar2():
    phi = refinable_from_mask(haar_mask(2), 0)
    return build_wavelet_set(phi, haar_mask(2))


@pytest.fixture(scope="module")
def haar3():
    phi = refinable_from_mask(haar_mask(3), 0)
    return build_wavelet_set(phi, haar_mask(3))


@pytest.fixture(scope="module")
def quartic_ws(quartic_mask, quartic_phi):
    return build_wavelet_set(quartic_phi, quartic_mask)


class TestWaveletMasks:
    def test_haar2_taps(self, haar2):
        assert len(haar2.masks) == 1
        assert np.allclose(haar2.masks[0].taps, [-2.0, 2.0])

    def test_haar3_taps_are_shifted_windows(self, haar3):
        taps = [m.taps for m in haar3.masks]
        assert np.allclose(taps[0], [-3.0, 3.0])
        assert np.allclose(taps[1], [0.0, -3.0, 3.0])

    def test_public_masks_carry_no_grid(self, haar3):
        # only the build caches the masks' refined grids, which it needs anyway
        masks = wavelet_masks(haar3.phi, haar3.scaling_mask)
        assert [m.coeffs.tolist() for m in masks] == [m.coeffs.tolist() for m in haar3.masks]
        assert not any(m._grid_cache for m in masks)

    def test_quartic_mask_count_and_degree(self, quartic_ws):
        # p = 2, N = 2: one mask of degree p^N = #L = 4
        assert len(quartic_ws.masks) == 1
        assert quartic_ws.masks[0].degree == 4

    def test_refuses_oversized_lset(self):
        m = mask_from_roots(
            2,
            1,
            [PadicRational(2, 1, 2), PadicRational(2, 3, 3), PadicRational(2, 7, 3)],
        )
        phi = refinable_from_mask(m, 1)
        with pytest.raises(UnsupportedConfigurationError):
            wavelet_masks(phi, m)

    def test_refuses_oversized_mask_degree(self):
        phi = refinable_from_mask(haar_mask(2), 0)
        wide = TrigPolynomial.from_taps(2, np.array([1.0, 0.5, 0.5]), scale=0)
        with pytest.raises(UnsupportedConfigurationError):
            wavelet_masks(phi, wide)

    @pytest.mark.parametrize("refusal", ["degree", "lset"])
    def test_refusal_traceback_holds_no_grid(self, refusal):
        # a caller that keeps the refusal keeps its traceback's frames: both
        # refusals come before any refined-grid array, and the build drops phi-hat
        if refusal == "degree":
            phi = refinable_from_mask(haar_mask(5), 4)
            m0 = TrigPolynomial.from_taps(5, np.full(6, 5 / 6), scale=0)
        else:
            roots = [PadicRational(2, 1, 2), PadicRational(2, 3, 3), PadicRational(2, 7, 3)]
            m0 = mask_from_roots(2, 1, roots)
            phi = refinable_from_mask(m0, 6)
        with pytest.raises(UnsupportedConfigurationError) as info:
            build_wavelet_set(phi, m0)
        tb = info.value.__traceback__
        assert tb.tb_next is not None
        while tb is not None:
            for name, value in tb.tb_frame.f_locals.items():
                if isinstance(value, np.ndarray):
                    assert value.size < phi.n, (tb.tb_frame.f_code.co_name, name, value.size)
            tb = tb.tb_next

    def test_rejects_scale_mismatch(self, quartic_phi):
        with pytest.raises(PreconditionError):
            wavelet_masks(quartic_phi, haar_mask(2))
        # unlike l_set, the mask construction does not lift a frame (1, -1)
        with pytest.raises(PreconditionError, match="re-frame first"):
            wavelet_masks(dilate(refinable_from_mask(haar_mask(2), 0), 1), haar_mask(2))


class TestWaveletFunctions:
    def test_haar2_wavelet_values(self, haar2):
        assert np.allclose(haar2.wavelets[0].values, [-2.0, 2.0])

    def test_v0_orthogonality_is_machine_exact(self, quartic_ws):
        rep = verify_wavelet_set(quartic_ws)
        assert rep.v0_residual < 1e-12
        assert rep.factorization_residual < 1e-12

    def test_wrong_mask_is_rejected(self, quartic_phi, quartic_mask):
        good = wavelet_masks(quartic_phi, quartic_mask)
        broken = TrigPolynomial(2, good[0].coeffs * 1.01 + 0.01, scale=2)
        with pytest.raises(VerificationError):
            wavelet_functions(quartic_phi, [broken])

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e6, 1e9])
    def test_wrong_mask_is_rejected_at_any_scale(self, quartic_phi, quartic_mask, c):
        good = wavelet_masks(quartic_phi, quartic_mask)
        broken = TrigPolynomial(2, c * (good[0].coeffs * 1.01 + 0.01), scale=2)
        with pytest.raises(VerificationError):
            wavelet_functions(quartic_phi, [broken])

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1e6, 1e9])
    def test_scaled_masks_still_verify(self, quartic_phi, quartic_mask, c):
        good = wavelet_masks(quartic_phi, quartic_mask)
        scaled = [TrigPolynomial(2, c * mk.coeffs, scale=2) for mk in good]
        psis = wavelet_functions(quartic_phi, scaled)
        ws = WaveletSet(quartic_phi, quartic_mask, psis, scaled)
        assert verify_wavelet_set(ws).ok
        assert frame_bounds(ws).ok

    def test_large_taps_verify(self):
        # p = 2, N = 5, #L = 1: the padded wavelet taps reach 3e8, so an
        # absolute residual of a correct set is far above tol
        mask = random_covering_mask(np.random.default_rng(5), 2, 5, 1)
        phi = refinable_from_mask(mask, 1)
        padded = oracle_padded_wavelet_masks(phi, l_set(phi))
        ws = WaveletSet(phi, mask, wavelet_functions(phi, padded), padded)
        assert np.max(np.abs(ws.masks[0].taps)) > 1e8
        assert verify_wavelet_set(ws).ok
        assert frame_bounds(ws).ok
        unpadded = build_wavelet_set(phi, mask)
        assert verify_wavelet_set(unpadded).ok
        assert frame_bounds(unpadded).ok

    def test_masks_carry_no_padding_factor(self):
        for p, N in ((2, 3), (2, 5), (3, 2), (5, 1)):
            for ws in _covering_sets(p, N, seed=7 * p + N, draws=3):
                size = l_set(ws.phi).size
                for nu, mk in enumerate(ws.masks, start=1):
                    assert mk.degree == (nu - 1) * p**N + size

    def test_seven_roadmap_draws_verify(self):
        # one stream, in this order; with the padding factor only two of
        # them verified and p = 3, N = 5 raised VerificationError
        rng = np.random.default_rng(5)
        for p, N in ((2, 7), (2, 8), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)):
            mask = random_covering_mask(rng, p, N, 1)
            ws = build_wavelet_set(refinable_from_mask(mask, 1), mask)
            assert verify_wavelet_set(ws).ok, (p, N)
            assert frame_bounds(ws).ok, (p, N)

    def test_many_roots_keep_their_zeros(self):
        # p = 2, N = 6, #L = 40: B expanded root by root missed its zeros on
        # phi's bins by up to 3.9e-7, and construction refused the set
        rng = np.random.default_rng((33, 0, 23, 3))
        mask = [random_covering_mask(rng, 2, 6, 1) for _ in range(2)][-1]
        phi = refinable_from_mask(mask, 1)
        ws = build_wavelet_set(phi, mask)
        assert l_set(phi).size == 40
        rep = frame_bounds(ws)
        assert rep.ok and rep.v0_residual <= 1e-12
        want = oracle_tap_sum(phi, ws.masks[0]).values
        assert np.max(np.abs(ws.wavelets[0].values - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "case",
        ["quartic-1", "quartic-3", "haar-2", "haar-3", "haar-5",
         "kozyrev-2", "kozyrev-3", "kozyrev-5",
         "covering-2-3", "covering-2-6", "covering-3-3", "covering-5-2"],
    )
    def test_wavelets_match_tap_sum_oracle(self, case, quartic_mask):
        # built from their transforms, the wavelets are the tap sums in space
        sets = _oracle_sets(case, quartic_mask)
        assert sets
        for ws in sets:
            for mk, psi in zip(ws.masks, wavelet_functions(ws.phi, ws.masks)):
                want = oracle_tap_sum(ws.phi, mk).values
                assert np.max(np.abs(psi.values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mask_wider_than_the_window_is_refused(self, quartic_phi):
        # N = 2: the refined window holds p^(N+1) = 8 taps
        wide = TrigPolynomial(2, np.full(9, 1 / 9), scale=2)
        with pytest.raises(PreconditionError, match="9 taps exceed the window"):
            wavelet_functions(quartic_phi, [wide])

    @pytest.mark.parametrize(
        "p, N, M", [(2, 2, 0), (3, 1, 0), (5, 1, 0), (2, 1, 2), (3, 2, 1), (7, 1, 1)]
    )
    def test_strided_v0_residual_matches_brute_force(self, p, N, M, rng):
        # any phi in D_N^M has Phi0 zero off the bins p l; at M = 0 the
        # difference classes |d| < p^N wrap around phi's own grid. Row s
        # reads psi(. - s), psi rolled by s p^N, off the same correlation.
        for _ in range(4):
            phi = random_function(rng, p, N, M)
            psi = random_function(rng, p, N, M + 1)
            want = [oracle_v0_residual(phi, TestFunction(p, N, M + 1, np.roll(psi.values, s * p**N)))
                    for s in range(p)]
            got = _v0_residuals(fourier(phi).values, fourier(psi).values[:, None], p, N, p)[:, 0]
            assert got == pytest.approx(want, rel=1e-12)
            assert _v0_residual(fourier(phi).values, fourier(psi).values, p, N) == pytest.approx(want[0], rel=1e-12)

    @pytest.mark.parametrize(
        "case", ["haar-3", "haar-5", "haar-7", "covering-3-2", "covering-5-1", "covering-7-1"]
    )
    def test_wavelets_are_integer_translates_of_the_first(self, case, quartic_mask):
        # n_nu = z^((nu-1) p^N) n_1: psi_nu = psi_1(. - (nu-1)), a roll by (nu-1) p^N
        sets = _oracle_sets(case, quartic_mask)
        assert sets
        for ws in sets:
            first = ws.wavelets[0].values
            for nu, psi in enumerate(ws.wavelets[1:], start=2):
                shifted = np.roll(first, (nu - 1) * ws.prime**ws.support_exp)
                assert np.max(np.abs(psi.values - shifted)) <= 1e-13 * np.max(np.abs(first))

    @pytest.mark.parametrize(
        "case", ["haar-3", "haar-5", "haar-7", "covering-3-2", "covering-5-1", "covering-7-1"]
    )
    def test_built_grids_and_wavelets_match_fresh_ones(self, case, quartic_mask):
        # the build transforms only psi_1 and n_1: every other mask's cached grid
        # and every other wavelet must equal what their own coefficients give
        sets = _oracle_sets(case, quartic_mask)
        assert sets
        for ws in sets:
            t = ws.support_exp + ws.period_exp + 1
            fresh = [TrigPolynomial(ws.prime, mk.coeffs, mk.scale) for mk in ws.masks]
            for mk, new in zip(ws.masks, fresh):
                want = new.values_on_depth_grid(t)
                assert np.max(np.abs(mk.values_on_depth_grid(t) - want)) <= 1e-13 * np.max(np.abs(want))
            for psi, want in zip(ws.wavelets, wavelet_functions(ws.phi, fresh)):
                assert np.max(np.abs(psi.values - want.values)) <= 1e-13 * np.max(np.abs(want.values))

    def test_fft_v0_residual_matches_brute_force(self, quartic_ws, haar3, rng):
        for ws in (quartic_ws, haar3):
            p, N, M = ws.prime, ws.support_exp, ws.period_exp
            hat = fourier(ws.phi).values
            for psi in ws.wavelets:
                got = _v0_residual(hat, fourier(psi).values, p, N)
                assert got == pytest.approx(oracle_v0_residual(ws.phi, psi), abs=1e-13)
            for _ in range(8):
                psi = random_function(rng, p, N, M + 1)
                want = oracle_v0_residual(ws.phi, psi)
                assert want > 1e-3
                got = _v0_residual(hat, fourier(psi).values, p, N)
                assert got == pytest.approx(want, rel=1e-12)


def _v0_residual(hat, spec, p, N):
    return float(_v0_residuals(hat, spec[:, None], p, N)[0, 0])


def _assert_residual_matches(got, want):
    if want < 1e-13:
        assert abs(got - want) <= 1e-15, (got, want)
    else:
        assert got == pytest.approx(want, rel=1e-12)


def _oracle_sets(case, quartic_mask):
    family, *args = case.split("-")
    args = [int(a) for a in args]
    if family == "quartic":
        return [build_wavelet_set(refinable_from_mask(quartic_mask, args[0]), quartic_mask)]
    if family == "haar":
        m = haar_mask(args[0])
        return [build_wavelet_set(refinable_from_mask(m, 0), m)]
    if family == "kozyrev":
        return [kozyrev_set(args[0])]
    p, N = args
    return _covering_sets(p, N, seed=100 * p + N, draws=4)


def _one_wavelet_residuals(ws, mk, psi):
    """verify_wavelet_set's (factorization, V_0) residuals of the set of psi alone."""
    rep = verify_wavelet_set(WaveletSet(ws.phi, ws.scaling_mask, [psi], [mk], ws.tol))
    return rep.factorization_residual, rep.v0_residual


class TestSharedSpectra:
    """Wavelet residuals read off shared transforms against per-wavelet ones."""

    @pytest.mark.parametrize(
        "case",
        ["quartic-1", "quartic-3", "quartic-5", "haar-2", "haar-3", "haar-5", "haar-7",
         "kozyrev-2", "kozyrev-3", "kozyrev-5", "kozyrev-7",
         "covering-2-3", "covering-2-4", "covering-2-5", "covering-2-6",
         "covering-3-2", "covering-3-3", "covering-5-1", "covering-5-2", "covering-7-1"],
    )
    def test_residuals_match_per_wavelet_oracle(self, case, quartic_mask):
        sets = _oracle_sets(case, quartic_mask)
        assert sets
        for ws in sets:
            pairs = list(zip(ws.masks, ws.wavelets))
            want = [oracle_wavelet_residuals(ws.phi, mk, psi) for mk, psi in pairs]
            for (mk, psi), (fact, orth) in zip(pairs, want):
                got = _one_wavelet_residuals(ws, mk, psi)
                _assert_residual_matches(got[0], fact)
                _assert_residual_matches(got[1], orth)
            # the whole set reads the same residuals off one batched transform
            rep = verify_wavelet_set(ws)
            _assert_residual_matches(rep.factorization_residual, max(f for f, _ in want))
            _assert_residual_matches(rep.v0_residual, max(o for _, o in want))

    @pytest.mark.parametrize(
        "case", ["quartic-1", "haar-3", "kozyrev-5", "covering-2-4", "covering-3-2"]
    )
    def test_spectra_match_refined_grid_transforms(self, case, quartic_mask):
        # phi's two columns come from its own grid: placed every p bins, and tiled over p
        for ws in _oracle_sets(case, quartic_mask):
            N, M = ws.support_exp, ws.period_exp
            gens = [reframe(ws.phi, N, M + 1), *ws.wavelets, reframe(dilate(ws.phi, -1), N, M + 1)]
            want = np.column_stack([fourier(g).values for g in gens])
            got = _spectra(ws)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("c", [1e-9, 1e-6, 1.0, 1e6, 1e9])
    def test_scaled_and_broken_masks_match_oracle(self, quartic_phi, quartic_mask, c):
        good = wavelet_masks(quartic_phi, quartic_mask)[0].coeffs
        ws = WaveletSet(quartic_phi, quartic_mask, [], [])
        for coeffs in (c * good, c * (good * 1.01 + 0.01)):
            mk = TrigPolynomial(2, coeffs, scale=2)
            psi = oracle_tap_sum(quartic_phi, mk)
            got = _one_wavelet_residuals(ws, mk, psi)
            want = oracle_wavelet_residuals(quartic_phi, mk, psi)
            _assert_residual_matches(got[0], want[0])
            _assert_residual_matches(got[1], want[1])

    @pytest.mark.parametrize("case", ["haar5", "haar7", "quartic", "quartic-nudged"])
    def test_each_generator_is_transformed_once(self, case, quartic_mask, transform_lengths):
        # a fresh quartic mask: no grid cached by an earlier test
        quartic = (TrigPolynomial(2, quartic_mask.coeffs, 2), 3)
        m0, M = {"haar5": (haar_mask(5), 2), "haar7": (haar_mask(7), 2)}.get(case, quartic)
        phi = refinable_from_mask(m0, M)
        # the build, the checks and frame_bounds run on phi's coarsest exact frame
        # (N, M0): M0 = 0 for Haar and 1 for the quartic. One value moved by
        # 1e-13 makes phi no reframe, so they keep the declared frame (N, M).
        M0 = {"haar5": 0, "haar7": 0, "quartic": 1}.get(case, M)
        if case == "quartic-nudged":
            nudged = phi.values.copy()
            nudged[-1] += 1e-13
            phi = TestFunction(2, 2, M, nudged)
        masks = wavelet_masks(phi, m0)
        ws = build_wavelet_set(phi, m0)
        p, N, r = ws.prime, ws.support_exp, ws.r
        # numpy.fft is one module object: the spy sees every caller
        assert wavelets.np.fft is mra.np.fft is test_functions.np.fft
        refined = p ** (N + M0 + 1)

        def transforms(call):
            """The number of refined-grid transforms call makes; the rest fit phi's grid."""
            transform_lengths.clear()
            call()
            assert all(n == refined or n <= p ** (N + M0) for n in transform_lengths)
            return transform_lengths.count(refined)

        # phi, phi(x/p) and every V_0 product are read on phi's own grid. Per
        # mask: its grid and its wavelet's inverse transform. wavelet_functions
        # runs on the declared frame.
        transform_lengths.clear()
        wavelet_functions(phi, masks)
        assert all(n <= p ** (N + M + 1) for n in transform_lengths)
        assert transform_lengths.count(p ** (N + M + 1)) <= 2 * r
        # the build transforms only psi_1: B's coefficients, n_1's grid and
        # psi_1, whatever r; on phi's grid, phi and psi_1's one correlation
        assert transforms(lambda: build_wavelet_set(phi, m0)) <= 3
        assert len(transform_lengths) - transform_lengths.count(refined) <= 2
        # the build cached each mask's grid, so only the wavelets are transformed;
        # the inclusion test transforms its d misfit directions, none for a valid set
        reports = []
        assert transforms(lambda: reports.append(frame_bounds(ws))) == r
        assert reports[0].inclusion_count.deficiency == 0
        assert transforms(lambda: check_mra(phi)) == 0
        assert len(transform_lengths) <= 3


class TestFrameBounds:
    def test_haar2_is_tight(self, haar2):
        rep = frame_bounds(haar2)
        assert rep.ok
        assert rep.A == pytest.approx(4.0, abs=1e-12)
        assert rep.B == pytest.approx(4.0, abs=1e-12)

    def test_haar2_normalized_is_parseval(self, haar2):
        rep = frame_bounds(haar2.normalize())
        assert abs(rep.A - 1.0) + abs(rep.B - 1.0) < 1e-9

    def test_haar3_spectrum(self, haar3):
        rep = frame_bounds(haar3)
        assert rep.A == pytest.approx(3.0, abs=1e-9)
        assert rep.B == pytest.approx(9.0, abs=1e-9)

    def test_quartic_bounds(self, quartic_ws):
        rep = frame_bounds(quartic_ws)
        assert 0 < rep.A <= rep.B
        assert rep.A == pytest.approx(0.20986302253359868, rel=1e-9)
        assert rep.B == pytest.approx(79.60930217859695, rel=1e-9)

    def test_sandwich_inequality(self, quartic_ws, rng):
        rep = frame_bounds(quartic_ws)
        p, N = quartic_ws.prime, quartic_ws.support_exp
        gens = [
            shift(psi, PadicRational(p, k, N))
            for psi in quartic_ws.wavelets
            for k in range(p**N)
        ]
        for _ in range(20):
            c = rng.normal(size=len(gens)) + 1j * rng.normal(size=len(gens))
            f = lincomb(c, gens)
            energy = sum(abs(inner_product(f, g)) ** 2 for g in gens)
            q = norm_l2(f) ** 2
            slack = 1e-8 * max(q, 1.0)
            assert rep.A * q - slack <= energy <= rep.B * q + slack

    def test_lower_bound_is_read_at_the_rank_cut(self):
        # a valid set has (p - 1) #L nonzero eigenvalues; a floor at 1e-9 B
        # dropped genuine ones on these draws, and read A at 1.40e-9 B on
        # draw 36, whose smallest genuine eigenvalue is 2.94e-11 B
        rng = np.random.default_rng(3)
        masks = [random_covering_mask(rng, 5, 2, 1) for _ in range(40)]
        for i in (2, 36, 37):
            phi = refinable_from_mask(masks[i], 1)
            rep = frame_bounds(build_wavelet_set(phi, masks[i]))
            genuine = np.sort(rep.spectrum)[::-1][: 4 * l_set(phi).size]
            assert rep.A == genuine[-1], i
            if i == 36:
                assert rep.A == pytest.approx(2.94e-11 * rep.B, rel=1e-2)


def _covering_sets(p, N, seed, draws, padded=False):
    """Wavelet sets of seeded covering masks at M = 1; refusals are left out.

    With padded=True the wavelet masks are the padded oracle's.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(draws):
        mask = random_covering_mask(rng, p, N, 1)
        try:
            phi = refinable_from_mask(mask, 1)
            ws = build_wavelet_set(phi, mask)
            if padded:
                masks = oracle_padded_wavelet_masks(phi, l_set(phi))
                ws = WaveletSet(phi, mask, wavelet_functions(phi, masks), masks)
            out.append(ws)
        except (UnsupportedConfigurationError, VerificationError):
            pass
    return out


def _scaled(ws, c):
    return WaveletSet(
        TestFunction(ws.prime, *ws.phi.frame, c * ws.phi.values),
        ws.scaling_mask,
        [TestFunction(ws.prime, *psi.frame, c * psi.values) for psi in ws.wavelets],
        ws.masks,
        ws.tol,
    )


def _nonzero_extremes(gram: np.ndarray) -> tuple[float, float]:
    lam = np.linalg.eigvalsh(gram)
    lam = lam[lam > 1e-9 * lam[-1]]
    return float(lam[0]), float(lam[-1])


def _verdicts(phi: TestFunction, m0: TrigPolynomial) -> dict:
    """check_mra's verdicts and L, the build's outcome, and frame_bounds' verdicts, count and bounds."""
    report = check_mra(phi)
    ortho = report.orthonormality
    out = {
        "frame": (report.support_exp, report.period_exp, report.lset.period_exp),
        "verdicts": (
            report.refinable, report.criterion_ok, report.axiom_a_route, report.axiom_a_ok,
            report.set_rule_ok, report.haar_equivalent, report.fit_rows, ortho.char_sums_ok,
            ortho.hat_supported_in_unit_ball, ortho.unit_modulus_ok, ortho.gram_ok, ortho.norm_ok, ortho.verdict,
        ),
        "L": report.lset.members,
    }
    try:
        ws = build_wavelet_set(phi, m0)
    except (UnsupportedConfigurationError, VerificationError) as exc:
        out["build"] = type(exc).__name__
        return out
    out["build"] = [psi.frame for psi in ws.wavelets]
    fr = frame_bounds(ws)
    out["frame_ok"] = (fr.ok, vars(fr.inclusion_count))
    out["bounds"] = (fr.A, fr.B)
    return out


class TestReframing:
    @given(
        st.sampled_from(["covering", "unimodular", "haar"]),
        st.sampled_from([2, 3, 5]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_verdicts_match_the_declared_frame(self, declared_frame, family, p, N, k, seed):
        # phi on its coarsest exact frame (N, M0), declared on (N, M0 + k)
        rng = np.random.default_rng(seed)
        if family == "haar":
            m0 = haar_mask(p)
        elif family == "unimodular":
            m0 = random_unimodular_mask(rng, p, N)
        else:
            m0 = random_covering_mask(rng, p, N, 1)
        M0 = test_functions._coarsest_period(refinable_from_mask(m0, 1))
        phi = reframe(refinable_from_mask(m0, M0), m0.scale, M0 + k)
        assert mra._coarsest_period(phi) == M0
        got = _verdicts(phi, m0)
        with declared_frame():
            assert mra._coarsest_period(phi) == wavelets._coarsest_period(phi) == M0 + k
            want = _verdicts(phi, m0)
        assert got.pop("frame") == want.pop("frame") == (phi.support_exp, M0 + k, M0 + k)
        if "bounds" in want:
            assert got.pop("bounds") == pytest.approx(want.pop("bounds"), rel=1e-10)
        assert got == want


class TestRefinement:
    """ok covers the MRA premise: the scaling mask refines phi."""

    @pytest.fixture(scope="class")
    def constant_mask_set(self, quartic_phi):
        # the constant mask 1 passes every check that reads only phi and
        # the wavelets: the wavelets are built from phi and L alone
        return build_wavelet_set(quartic_phi, TrigPolynomial(2, np.array([1.0 + 0j]), scale=2))

    def test_constant_mask_is_not_ok(self, constant_mask_set):
        rep = frame_bounds(constant_mask_set)
        assert rep.refinement_residual > 1.0
        assert max(rep.v0_residual, rep.factorization_residual, rep.inclusion_residual) <= 1e-12
        assert (rep.A, rep.B) == pytest.approx((0.2098630225, 79.6093022))
        assert not rep.ok and not verify_wavelet_set(constant_mask_set).ok

    def test_valid_sets_refine(self, quartic_mask, haar2, haar3):
        sets = [
            haar2,
            haar3,
            *(build_wavelet_set(refinable_from_mask(quartic_mask, M), quartic_mask) for M in (1, 3, 5)),
            *(kozyrev_set(p) for p in (2, 3, 5)),
            *_covering_sets(2, 4, seed=4, draws=3),
            *_covering_sets(3, 2, seed=2, draws=3),
        ]
        for ws in sets:
            rep = frame_bounds(ws)
            assert rep.ok and rep.refinement_residual <= 1e-12

    def test_residual_matches_tap_oracle(self, quartic_ws, constant_mask_set, haar3):
        # phi-hat against the transform of one refinement step, its mask read
        # by polyval, on the frame (N+1, M+1)
        for ws in (quartic_ws, constant_mask_set, haar3):
            phi = ws.phi
            N, M = phi.frame
            want = fourier(oracle_apply_refinement_fourier(ws.scaling_mask, phi)).values
            have = fourier(reframe(phi, N + 1, M + 1)).values
            oracle = np.max(np.abs(have - want)) / np.max(np.abs(have))
            assert verify_wavelet_set(ws).refinement_residual == pytest.approx(oracle, rel=1e-9, abs=1e-13)

    def test_scaling_mask_of_another_prime_is_refused(self, haar3):
        with pytest.raises(PreconditionError, match="scaling mask has prime 2"):
            WaveletSet(haar3.phi, haar_mask(2), haar3.wavelets, haar3.masks)


class TestMultilevelFrame:
    """Claim (d): the levels of W_j are mutually orthogonal dilates of W_0."""

    @pytest.mark.parametrize("case", ["quartic_ws", "haar2", "haar3", "kozyrev", "covering-0", "covering-1"])
    def test_levels_keep_the_level0_bounds(self, case, request):
        family, _, draw = case.partition("-")
        if family == "covering":
            ws = _covering_sets(2, 3, seed=0, draws=2)[int(draw)]
        else:
            ws = kozyrev_set(3) if case == "kozyrev" else request.getfixturevalue(case)
        rep = frame_bounds(ws)
        # covering sets reach B = 68 here: their products are read at B's scale
        cross_tol = 1e-13 * (rep.B if family == "covering" else 1.0)
        # phi's own translate system, the level-j0 block of the oracle at j0 = 0
        gram, sizes = oracle_multilevel_gram(ws, 0, 1)
        a_phi, b_phi = _nonzero_extremes(gram[: sizes[0], : sizes[0]])
        for j0 in (0, 1):
            for j1 in range(j0 + 1, j0 + 4):
                gram, sizes = oracle_multilevel_gram(ws, j0, j1)
                edges = np.cumsum([0, *sizes])
                for i in range(len(sizes)):
                    for k in range(i + 1, len(sizes)):
                        cross = gram[edges[i] : edges[i + 1], edges[k] : edges[k + 1]]
                        assert np.max(np.abs(cross)) <= cross_tol, (j0, j1, i, k)
                wavelets = _nonzero_extremes(gram[sizes[0] :, sizes[0] :])
                assert wavelets == pytest.approx((rep.A, rep.B), rel=1e-9)
                assert _nonzero_extremes(gram) == pytest.approx(
                    (min(a_phi, rep.A), max(b_phi, rep.B)), rel=1e-9
                )
        if case == "quartic_ws":
            assert (rep.A, rep.B) == pytest.approx((0.209863, 79.6093), rel=1e-6)
            assert (min(a_phi, rep.A), max(b_phi, rep.B)) == pytest.approx((0.0484338, 79.6093), rel=1e-6)
        if case == "haar3":
            assert (rep.A, rep.B, a_phi, b_phi) == pytest.approx((3.0, 9.0, 1.0, 1.0))


class TestSupportRows:
    """Inclusion and Gram on the Fourier support against the full-grid oracles."""

    @pytest.mark.parametrize(
        "p, N", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 1), (5, 2)]
    )
    def test_inclusion_verdict_matches_full_grid_oracle(self, p, N):
        compared = 0
        for ws in _covering_sets(p, N, seed=100 * p + N, draws=4):
            want = oracle_inclusion_residual(ws)
            if DEFAULT_TOL / 100 < want < 100 * DEFAULT_TOL:
                continue  # too close to tol for either route to be the authority
            got = verify_wavelet_set(ws).inclusion_residual
            assert (got <= DEFAULT_TOL) == (want <= DEFAULT_TOL), (got, want)
            compared += 1
        assert compared > 0

    @pytest.mark.parametrize(
        "case",
        ["quartic-1", "quartic-3", "quartic-5", "haar-2", "haar-3", "haar-5",
         "kozyrev-2", "kozyrev-3", "kozyrev-5"],
    )
    def test_frame_constants_match_full_grid_gram(self, case, quartic_mask):
        family, k = case.split("-")
        k = int(k)
        if family == "quartic":
            ws = build_wavelet_set(refinable_from_mask(quartic_mask, k), quartic_mask)
        elif family == "haar":
            ws = build_wavelet_set(refinable_from_mask(haar_mask(k), 0), haar_mask(k))
        else:
            ws = kozyrev_set(k)
        rep = frame_bounds(ws)
        spectrum = np.linalg.eigvalsh(oracle_wavelet_gram(ws))
        B = spectrum[-1]
        A = spectrum[spectrum > 1e-9 * B][0]
        assert rep.B == pytest.approx(B, rel=1e-10)
        assert rep.A == pytest.approx(A, rel=1e-10)
        assert rep.spectrum.shape == spectrum.shape
        assert np.max(np.abs(rep.spectrum - spectrum)) <= 1e-10 * B

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_dropped_wavelet_fails_inclusion(self, quartic_ws, N):
        sets = [quartic_ws, *_covering_sets(2, N, seed=N, draws=3)]
        assert any(verify_wavelet_set(ws).ok for ws in sets)
        for ws in sets:
            dropped = WaveletSet(ws.phi, ws.scaling_mask, [], [], ws.tol)
            assert verify_wavelet_set(dropped).inclusion_residual >= 0.1

    def test_dropped_wavelet_follows_the_count(self):
        # W_0 lives on (p - 1) #L bins and r' wavelets bring r' p^N
        # translates, so inclusion survives dropping the last wavelet
        # exactly when (r - 1) p^N >= (p - 1) #L
        sides = []
        for p, N in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]:
            for ws in _covering_sets(p, N, seed=5, draws=8):
                assert verify_wavelet_set(ws).ok
                dropped = WaveletSet(
                    ws.phi, ws.scaling_mask, ws.wavelets[:-1], ws.masks[:-1], ws.tol
                )
                counted = (ws.r - 1) * p**N >= (p - 1) * l_set(ws.phi).size
                got = verify_wavelet_set(dropped).inclusion_residual <= DEFAULT_TOL
                assert got == counted, (p, N, l_set(ws.phi).size)
                sides.append(counted)
                want = oracle_inclusion_residual(dropped)
                if not DEFAULT_TOL / 100 < want < 100 * DEFAULT_TOL:
                    assert got == (want <= DEFAULT_TOL), (p, N, want)
        assert True in sides and False in sides

    def test_inclusion_sweep_matches_oracle_and_count(self):
        # every set with its last wavelets dropped, down to none
        sides = {True: 0, False: 0}
        for p, N in [(2, 3), (2, 4), (3, 2), (3, 3), (5, 1), (5, 2)]:
            for ws in _covering_sets(p, N, seed=11 * p + N, draws=4):
                size = l_set(ws.phi).size
                for keep in range(ws.r + 1):
                    dropped = WaveletSet(
                        ws.phi, ws.scaling_mask, ws.wavelets[:keep], ws.masks[:keep], ws.tol
                    )
                    rep = verify_wavelet_set(dropped)
                    count = rep.inclusion_count
                    assert count.support_bins == count.target_bins == p * size
                    assert count.wavelet_translates == keep * p**N
                    assert count.rank + count.deficiency == count.support_bins
                    # d = 0 is the count: rank p #L, and nothing to misfit
                    assert (count.deficiency == 0) == (keep * p**N >= (p - 1) * size)
                    assert (rep.inclusion_residual == 0.0) == (count.deficiency == 0)
                    ok = rep.inclusion_residual <= DEFAULT_TOL
                    assert ok == (count.deficiency == 0)
                    want = oracle_inclusion_residual(dropped)
                    if not DEFAULT_TOL / 100 < want < 100 * DEFAULT_TOL:
                        assert ok == (want <= DEFAULT_TOL), (p, N, keep, want)
                    sides[ok] += 1
        assert sides[True] >= 10 and sides[False] >= 10, sides

    def test_rounding_rows_stay_out_of_the_support(self):
        # a p = 5, N = 2 set with #L = 8 whose wavelet spectra carry 13
        # rounding bins at 1.4-2.3e-13 of their peaks; kept, they made the
        # inclusion lstsq raise LinAlgError (SVD did not converge)
        rng = np.random.default_rng((21, 0, 124, 7))
        mask = [random_covering_mask(rng, 5, 2, 1) for _ in range(3)][-1]
        phi = refinable_from_mask(mask, 1)
        rep = frame_bounds(build_wavelet_set(phi, mask))
        assert l_set(phi).size == 8
        assert rep.ok
        count = rep.inclusion_count
        assert count.support_bins == count.target_bins == 5 * 8
        assert count.deficiency == 0

    def test_component_off_the_support_is_rejected(self, quartic_ws):
        ws = quartic_ws
        psi = ws.wavelets[0]
        g = reframe(dilate(ws.phi, -1), ws.support_exp, ws.period_exp + 1)
        off = np.nonzero(np.abs(np.fft.fft(g.values)) < 1e-9)[0]
        assert off.size > 0
        # a pure character on the grid: one DFT bin, outside supp phi-hat(p .)
        wave = np.exp(2j * np.pi * off[-1] * np.arange(psi.n) / psi.n)
        bent = psi.values + 0.1 * np.max(np.abs(psi.values)) * wave
        bent_ws = WaveletSet(
            ws.phi, ws.scaling_mask, [TestFunction(2, *psi.frame, bent)], ws.masks, ws.tol
        )
        rep = verify_wavelet_set(bent_ws)
        assert not rep.ok
        assert rep.inclusion_residual > DEFAULT_TOL

    @pytest.mark.parametrize("c", [1e-10, 1e10])
    def test_verdict_is_scale_free(self, quartic_ws, c):
        sets = [
            quartic_ws,
            *_covering_sets(2, 5, seed=5, draws=3),
            *_covering_sets(3, 3, seed=3, draws=3),
            *_covering_sets(2, 5, seed=5, draws=3, padded=True),
            *_covering_sets(3, 3, seed=3, draws=3, padded=True),
        ]
        verdicts = [verify_wavelet_set(ws).ok for ws in sets]
        assert True in verdicts and False in verdicts
        for ws, ok in zip(sets, verdicts):
            assert verify_wavelet_set(_scaled(ws, c)).ok == ok

    def test_lstsq_sees_only_support_rows(self, quartic_ws, haar3, monkeypatch):
        # frame_bounds solves nothing by lstsq: inclusion and the Gram take
        # SVDs, and every one sees only the support rows
        sets = [
            quartic_ws,
            haar3,
            *_covering_sets(2, 5, seed=5, draws=3),
            *_covering_sets(3, 2, seed=2, draws=3),
            *_covering_sets(5, 2, seed=2, draws=3),
        ]
        seen = []
        real = np.linalg.svd

        def spy(a, *args, **kwargs):
            seen.append(a.shape[0])
            return real(a, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("frame_bounds called lstsq")

        monkeypatch.setattr(wavelets.np.linalg, "svd", spy)
        monkeypatch.setattr(wavelets.np.linalg, "lstsq", refuse)
        for ws in sets:
            seen.clear()
            rep = frame_bounds(ws)
            assert seen and max(seen) <= ws.prime ** (ws.support_exp + 1)
            assert seen[0] == rep.inclusion_count.support_bins

    def test_every_grid_builder_applies_the_cap(
        self, quartic_phi, quartic_mask, quartic_ws, monkeypatch, rng
    ):
        # phi lives on 2^3 points, its wavelets on the refined frame's 2^4
        f = random_function(rng, 2, 2, 1)
        tree = analyze(f, quartic_ws)
        b = PadicRational(2, 1, 2)
        monkeypatch.setenv(GRID_CAP_ENV, "8")
        # each of these builds at most 2^3 points
        check_orthonormal_shifts(quartic_phi)
        shift_mask(quartic_phi, b)
        hat_from_mask(quartic_mask, 1)
        sphere_values(quartic_mask, 1)
        monkeypatch.setenv(GRID_CAP_ENV, "4")
        with pytest.raises(PreconditionError, match="grid cap"):
            check_orthonormal_shifts(quartic_phi)
        monkeypatch.setenv(GRID_CAP_ENV, "8")
        # the refusal comes before the first draw, not after 1024 redraws
        state = rng.bit_generator.state
        with pytest.raises(PreconditionError, match="grid cap"):
            random_covering_mask(rng, 2, 2, 1)
        assert rng.bit_generator.state == state
        for call in (
            lambda: recover_mask(quartic_phi),
            lambda: shift_mask(quartic_phi, b, same_scale=False),
            lambda: hat_from_mask(quartic_mask, 2),
            lambda: sphere_values(quartic_mask, 2),
            lambda: support_margin(quartic_mask, 1),
            lambda: build_wavelet_set(quartic_phi, quartic_mask),
            lambda: wavelet_functions(quartic_phi, quartic_ws.masks),
            lambda: verify_wavelet_set(quartic_ws),
            lambda: frame_bounds(quartic_ws),
            lambda: analyze(f, quartic_ws),
            lambda: synthesize(tree, quartic_ws),
        ):
            with pytest.raises(PreconditionError, match="grid cap"):
                call()


class TestWaveletSetShape:
    """Wavelet i pairs with mask i, on phi's prime and the frame (N, M+1)."""

    def test_wavelet_without_mask_is_refused(self, haar3):
        extra = reframe(haar3.phi, 0, 1)
        with pytest.raises(PreconditionError, match="3 wavelets but 2 masks"):
            WaveletSet(haar3.phi, haar3.scaling_mask, [*haar3.wavelets, extra], haar3.masks)
        # given a mask of its own, the extra wavelet is checked against V_0
        ws = WaveletSet(
            haar3.phi,
            haar3.scaling_mask,
            [*haar3.wavelets, extra],
            [*haar3.masks, haar_mask(3)],
        )
        rep = verify_wavelet_set(ws)
        assert not rep.ok
        assert rep.v0_residual > 0.5

    @pytest.mark.parametrize("bad", ["frame", "wavelet-prime", "mask-prime"])
    def test_mismatched_member_is_refused(self, haar3, bad):
        psis, masks = list(haar3.wavelets), list(haar3.masks)
        if bad == "frame":
            psis[0] = reframe(psis[0], 1, 1)
        elif bad == "wavelet-prime":
            psis[0] = TestFunction(5, 0, 1, np.ones(5))
        else:
            masks[0] = TrigPolynomial(5, masks[0].coeffs, scale=0)
        with pytest.raises(PreconditionError):
            WaveletSet(haar3.phi, haar3.scaling_mask, psis, masks)


def _rank_at_the_cut(a: np.ndarray, n: int) -> int:
    return _translates._rank(np.linalg.svd(a, compute_uv=False), n, a.shape[1])


class TestLeastSquares:
    def test_one_lstsq_in_the_library(self):
        src = Path(wavelets.__file__).parent
        calls = {f.name: f.read_text().count("np.linalg.lstsq(") for f in src.glob("*.py")}
        assert {name: n for name, n in calls.items() if n} == {"_translates.py": 1}

    def test_mra_builds_no_phases(self):
        # every translate phase comes from _translates; the refinement
        # window is phi's own translate system, so mra.py needs none
        text = Path(mra.__file__).read_text()
        assert "np.exp(" not in text and "einsum" not in text

    def test_one_transform_module_in_the_library(self):
        src = Path(wavelets.__file__).parent
        users = {f.name for f in src.glob("*.py") if "np.fft" in f.read_text()}
        assert users == {"test_functions.py"}

    def test_every_solve_takes_the_full_grid_rank_cut(
        self, quartic_phi, quartic_ws, rng, monkeypatch
    ):
        p, (N, M) = 2, quartic_phi.frame
        b = PadicRational(2, 3, 2)
        # the working frame of analyze at j1 = 2 is (N, M + 3)
        f = random_function(rng, 2, N, M + 3)
        refined = p ** (N + M + 1)
        entry_points = [
            # #L > p^N: the window's SVD; under the count nothing is solved
            (lambda: check_mra(random_function(rng, 2, N, M)), refined),
            (lambda: recover_mask(quartic_phi), refined),
            (lambda: shift_mask(quartic_phi, b, same_scale=False), refined),
            (lambda: shift_mask(quartic_phi, b), p ** (N + M)),
            (lambda: verify_wavelet_set(quartic_ws), refined),
            (lambda: frame_bounds(quartic_ws), refined),
            (lambda: analyze(f, quartic_ws, j0=0, j1=2), f.n),
        ]
        # every lstsq and the inclusion SVD take their cut from _rcond
        cuts, solves = [], []
        real_rcond, real_lstsq = _translates._rcond, np.linalg.lstsq

        def rcond_spy(n, columns):
            cuts.append(real_rcond(n, columns))
            return cuts[-1]

        def lstsq_spy(a, b, rcond=None):
            solves.append(rcond)
            return real_lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(_translates, "_rcond", rcond_spy)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
        for call, n in entry_points:
            cuts.clear()
            solves.clear()
            call()
            assert cuts
            assert all(c >= np.finfo(float).eps * n for c in cuts), (n, cuts)
            assert all(c in cuts for c in solves), (n, solves, cuts)
        cuts.clear()
        check_mra(quartic_phi)
        assert not cuts

    def test_range_and_complement_split_the_lstsq_fit(self, rng):
        # a tall rank-deficient block: 6 rows, 4 columns of rank 3, n = 64
        a = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        a = np.column_stack([a, a[:, 0] + 1e-17 * a[:, 1]])
        y = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        x = _translates._solve(a, y, 64)
        q = _translates._complement(a, 64)
        assert _rank_at_the_cut(a, 64) == 3 and q.shape == (6, 3)
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
        assert np.max(np.abs((a @ x - y) + q @ (q.conj().T @ y))) <= 1e-12
        # _factor's u is the other side: the fit itself is the projection on it
        u = _translates._factor(a, 64)[0]
        assert u.shape == (6, 3)
        assert np.max(np.abs(a @ x - u @ (u.conj().T @ y))) <= 1e-12
        # wide: 3 independent rows, then a fourth that the cut folds into the first
        assert _translates._complement(a[:, :3].T, 64).shape == (3, 0)
        q = _translates._complement(a.T, 64)
        x = _translates._solve(a.T, y[:4], 64)
        assert _rank_at_the_cut(a.T, 64) == 3 and q.shape == (4, 1)
        assert np.max(np.abs((a.T @ x - y[:4]) + q @ (q.conj().T @ y[:4]))) <= 1e-12


class TestKozyrev:
    def test_p2_is_the_haar_wavelet(self):
        ws = kozyrev_set(2)
        assert np.allclose(ws.wavelets[0].values, [1.0, -1.0])

    def test_p3_taps_are_characters(self):
        ws = kozyrev_set(3)
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(ws.wavelets[0].values, [1.0, w, w**2])
        assert np.allclose(ws.wavelets[1].values, [1.0, w**2, w**4])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_orthonormal_system(self, p):
        ws = kozyrev_set(p)
        for i, a in enumerate(ws.wavelets):
            assert norm_l2(a) == pytest.approx(1.0, abs=1e-12)
            for b in ws.wavelets[i + 1 :]:
                assert abs(inner_product(a, b)) < 1e-12

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
    def test_verifies_at_every_supported_prime(self, p):
        ver = verify_wavelet_set(kozyrev_set(p))
        assert ver.ok
        assert ver.inclusion_residual <= 1e-12

    def test_builds_no_tap_window_reference(self, monkeypatch):
        calls = []
        real = wavelets.wavelet_masks

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(wavelets, "wavelet_masks", spy)
        kozyrev_set(3)
        assert not calls

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_parseval(self, p):
        rep = frame_bounds(kozyrev_set(p))
        assert abs(rep.A - 1.0) < 1e-10
        assert abs(rep.B - 1.0) < 1e-10


class TestTransform:
    def test_round_trip_haar(self, haar2, rng):
        # for the unit-ball scaling function the truncated level-2 space
        # is all of D_0^2, so any such f must reconstruct exactly
        f = random_function(rng, 2, 0, 2)
        tree = analyze(f, haar2.normalize(), j0=0, j1=2)
        g = synthesize(tree, haar2.normalize())
        assert tree.input_residual < 1e-9
        assert allclose(f, g, tol=1e-8)

    def test_round_trip_quartic(self, quartic_ws, rng):
        f = random_function(rng, 2, 2, 1)
        tree = analyze(f, quartic_ws, j0=0, j1=2)
        g = synthesize(tree, quartic_ws)
        assert allclose(f, g, tol=1e-8)

    def test_single_level_shapes(self, haar2, rng):
        f = random_function(rng, 2, 1, 1)
        tree = analyze(f, haar2, j0=0, j1=1)
        assert tree.approx.shape == (1,)
        assert set(tree.details) == {0}
        assert tree.details[0].shape == (1, 1)

    def test_input_outside_truncation_reports_residual(self, haar2, rng):
        f = random_function(rng, 2, 3, 2)  # finer than the j1 = 1 window
        tree = analyze(f, haar2, j0=0, j1=1)
        assert tree.input_residual > 1e-3

    @pytest.mark.parametrize("case", ["haar2", "haar3", "quartic_ws"])
    def test_level_matrices_match_per_column_oracle(self, case, request, rng):
        # the transform on the support against dense solves on level
        # matrices built column by column
        ws = request.getfixturevalue(case)
        for j1 in range(5):
            for in_space in (True, False):
                _assert_matches_dense_oracle(ws, _transform_input(ws, rng, 0, j1, in_space), 0, j1)

    @pytest.mark.parametrize(
        "case", ["haar-5", "quartic-1", "quartic-3", "kozyrev-3", "covering", "wide"]
    )
    def test_tree_matches_dense_oracle(self, case, quartic_mask, rng):
        family, _, k = case.partition("-")
        j1s, extra = range(4), 0
        if family == "haar":
            ws = build_wavelet_set(refinable_from_mask(haar_mask(5), 0), haar_mask(5))
            j1s = range(3)
        elif family == "quartic":
            ws = build_wavelet_set(refinable_from_mask(quartic_mask, int(k)), quartic_mask)
        elif family == "kozyrev":
            ws = kozyrev_set(3)
        elif family == "covering":
            # #L < p^N: the wavelet masks have degree below the tap window
            ws = next(w for w in _covering_sets(2, 3, seed=0, draws=4) if l_set(w.phi).size < 8)
            j1s = range(3)
        else:
            # f lives on a larger ball than phi: the level translates do not
            # span the support bins, and the levels j < a roll by r = p^(a-j)
            ws, extra = build_wavelet_set(refinable_from_mask(haar_mask(2), 0), haar_mask(2)), 1
        for j1 in j1s:
            for j0 in range(j1 + 1):
                for in_space in (True, False):
                    f = _transform_input(ws, rng, extra, j1, in_space, j0)
                    _assert_matches_dense_oracle(ws, f, j0, j1)

    @pytest.mark.parametrize("case, extra", [("haar2", 2), ("haar3", 1), ("haar3", 2), ("quartic_ws", 1)])
    def test_larger_balls_match_dense_oracle(self, case, extra, request, rng):
        # step = p^a: the levels j >= a go through the block of p^(N+a)
        # rolls by 1, each level j < a through that of the p^(N+j) rolls by p^(a-j)
        ws = request.getfixturevalue(case)
        for j1 in range(4 if ws.prime == 2 else 3):
            for j0 in range(j1 + 1):
                _assert_matches_dense_oracle(ws, _transform_input(ws, rng, extra, j1, False), j0, j1)

    @pytest.mark.parametrize("case", ["haar2", "quartic_ws", "wide", "wide-2"])
    def test_lstsq_sees_only_support_bins(self, case, request, rng, monkeypatch):
        # analyze calls no lstsq: the projections, the details and the
        # level-j0 coefficients go through one SVD per generator set and
        # roll stride r = max(p^a / p^j, 1), each of a level-0 block on
        # the level-0 support bins; f lives on a ball p^a wider than phi
        extra = {"wide": 1, "wide-2": 2}.get(case, 0)
        ws = request.getfixturevalue("haar2" if extra else case)
        p, N, j1 = ws.prime, ws.support_exp, 4
        f = _transform_input(ws, rng, extra, j1, False)
        frame = (f.support_exp, f.period_exp)
        n = f.n

        def bins(funcs):
            cols = [fourier(reframe(g, *frame)).values for g in funcs]
            return _support_bins(np.column_stack(cols)).size

        factored, cuts = [], []
        real_factor, real_rcond = wavelets._factor, _translates._rcond

        def lstsq_spy(a, b, rcond=None):
            raise AssertionError("analyze called lstsq")

        def factor_spy(a, n):
            factored.append(a.shape)
            return real_factor(a, n)

        def rcond_spy(n, columns):
            cuts.append(real_rcond(n, columns))
            return cuts[-1]

        monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
        monkeypatch.setattr(wavelets, "_factor", factor_spy)
        monkeypatch.setattr(_translates, "_rcond", rcond_spy)
        analyze(f, ws, j0=0, j1=j1)
        # phi's block first (the input projection), then the wavelets', for
        # r = 1 and then for each r = p^i the levels j < a need
        want = [
            (bins(funcs), len(funcs) * p ** (N + extra - i))
            for i in range(extra + 1)
            for funcs in ([ws.phi], ws.wavelets)
        ]
        assert factored == want
        # the rank cut is no lower than the one lstsq takes on all n grid rows
        assert cuts and all(c >= np.finfo(float).eps * n for c in cuts)

    @pytest.mark.parametrize("case", ["haar3", "quartic_ws"])
    def test_every_level_is_gathered_from_level_0(self, case, request):
        # the level-j spectra read off the level-0 transform equal the
        # transforms of the dilates, reframed one by one
        ws = request.getfixturevalue(case)
        p, N, M = ws.prime, ws.support_exp, ws.period_exp
        for extra in (0, 1):
            frame = (N + extra, M + 1 + 4)
            funcs = [ws.phi, *ws.wavelets]
            spectra = _frame_spectra(funcs, frame)
            for j in range(5):
                want = np.column_stack(
                    [fourier(reframe(dilate(g, -j, normalized=True), *frame)).values for g in funcs]
                )
                assert np.max(np.abs(_dilated(spectra, p, j) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_level0_transform_serves_every_level(self, quartic_ws, rng, monkeypatch):
        # analyze reframes f, phi and each wavelet once, whatever the level
        # count; synthesize reframes the wavelets only when there are details
        calls = []
        real = wavelets.reframe

        def spy(f, *frame):
            calls.append(f)
            return real(f, *frame)

        monkeypatch.setattr(wavelets, "reframe", spy)
        for j0, j1 in ((0, 1), (0, 4), (2, 2)):
            f = random_function(rng, 2, 2, 2 + j1)
            calls.clear()
            tree = analyze(f, quartic_ws, j0=j0, j1=j1)
            assert len(calls) == quartic_ws.r + 2
            calls.clear()
            synthesize(tree, quartic_ws)
            assert len(calls) == (quartic_ws.r + 1 if tree.details else 1)

    @pytest.mark.parametrize("p, j1", [(2, 12), (3, 7)])
    def test_round_trip_reach(self, p, j1, rng):
        # n = 8192 and 6561, and p times that for an input one ball wider
        # than phi (a = 1); the input is the library's synthesis of a random
        # tree, and Haar's blocks have full column rank, so the
        # minimum-norm coefficients are the tree's own
        ws = build_wavelet_set(refinable_from_mask(haar_mask(p), 0), haar_mask(p))

        def coeffs(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for extra in (0, 1):
            frame = (extra, 1 + j1)
            tree = CoefficientTree(
                p, 0, j1, coeffs(1), {j: coeffs(ws.r, p**j) for j in range(j1)}, 0.0, {}, frame, ws.tol
            )
            f = synthesize(tree, ws)
            got = analyze(f, ws, j0=0, j1=j1)
            assert got.input_residual < 1e-9
            assert max(got.split_residuals.values()) < 1e-9
            assert allclose(f, synthesize(got, ws), tol=1e-9)
            assert np.allclose(got.approx, tree.approx, atol=1e-9)
            for j in range(j1):
                assert np.allclose(got.details[j], tree.details[j], atol=1e-9)

    def test_round_trip_haar_j1_10(self, haar2, rng):
        # n = 2048: dense level solves took about 2 s here
        f = _transform_input(haar2, rng, 0, 10, True)
        tree = analyze(f, haar2, j0=0, j1=10)
        assert tree.input_residual < 1e-9
        assert max(tree.split_residuals.values()) < 1e-9
        assert allclose(f, synthesize(tree, haar2), tol=1e-9)

    @pytest.mark.parametrize("zero", ["phi", "wavelet 1"])
    def test_refuses_an_identically_zero_generator(self, haar3, rng, zero):
        def zeroed(g):
            return TestFunction(g.prime, *g.frame, np.zeros(g.n))

        if zero == "phi":
            ws = WaveletSet(zeroed(haar3.phi), haar3.scaling_mask, haar3.wavelets, haar3.masks)
        else:
            psis = [haar3.wavelets[0], zeroed(haar3.wavelets[1])]
            ws = WaveletSet(haar3.phi, haar3.scaling_mask, psis, haar3.masks)
        f = random_function(rng, 3, 0, 3)
        with pytest.raises(PreconditionError, match=f"{zero} is identically zero"):
            analyze(f, ws, j0=0, j1=2)

    def test_rejects_bad_level_order(self, haar2, rng):
        f = random_function(rng, 2, 1, 1)
        with pytest.raises(PreconditionError):
            analyze(f, haar2, j0=2, j1=1)

    def test_normalize_keeps_the_set_valid(self, quartic_ws):
        assert verify_wavelet_set(quartic_ws.normalize()).ok
        for psi in quartic_ws.normalize().wavelets:
            assert norm_l2(psi) == pytest.approx(1.0, abs=1e-12)


def _transform_input(ws, rng, extra, j1, in_space, j0=0):
    """A function on the working frame of levels j0..j1, support p^(N + extra).

    In space: the dense oracle's synthesis of a random tree, so it lies in
    the level-j1 truncated space. Otherwise a generic random function.
    """
    p, N = ws.prime, ws.support_exp
    frame = (N + extra, ws.period_exp + 1 + j1)
    if not in_space:
        return random_function(rng, p, *frame)

    def coeffs(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    tree = CoefficientTree(
        p, j0, j1, coeffs(p ** (N + j0)),
        {j: coeffs(ws.r, p ** (N + j)) for j in range(j0, j1)},
        0.0, {}, frame, ws.tol,
    )
    return TestFunction(p, *frame, oracle_synthesize(tree, ws))


def _assert_matches_dense_oracle(ws, f, j0, j1):
    got, want = analyze(f, ws, j0=j0, j1=j1), oracle_analyze(f, ws, j0, j1)
    scale = max(1.0, float(np.max(np.abs(f.values))))

    def close(a, b):
        return np.max(np.abs(a - b), initial=0.0) <= 1e-10 * max(1.0, np.max(np.abs(b), initial=0.0))

    assert got.frame == want.frame
    assert close(got.approx, want.approx)
    assert set(got.details) == set(want.details)
    for j in want.details:
        assert got.details[j].shape == want.details[j].shape
        assert close(got.details[j], want.details[j])
        assert abs(got.split_residuals[j] - want.split_residuals[j]) <= 1e-10 * scale
    assert abs(got.input_residual - want.input_residual) <= 1e-10 * scale
    rebuilt = synthesize(got, ws).values
    assert np.max(np.abs(rebuilt - oracle_synthesize(got, ws))) <= 1e-10 * scale
