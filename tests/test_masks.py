"""Masks, the depth-product transform, and the refinement operator."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    QUARTIC_ZEROS,
    oracle_apply_refinement,
    oracle_apply_refinement_fourier,
    oracle_hat_value_at,
    oracle_mask_grid,
    oracle_poly_mul,
)
from padic_mra import (
    TestFunction,
    TrigPolynomial,
    allclose,
    check_mra,
    fourier,
    haar_mask,
    hat_from_mask,
    mask_from_roots,
    omega,
    recover_mask,
    refinable_from_mask,
    reframe,
    shift_mask,
    sphere_values,
    support_margin,
)
from padic_mra.config import GRID_CAP_ENV
from padic_mra.errors import PreconditionError, SupportViolationError
from padic_mra.generators import (
    random_covering_mask,
    random_noise_mask,
    random_unimodular_mask,
)
from padic_mra.masks import _depth_product
from padic_mra.test_functions import _coarsest_period
from padic_mra.padic_core import PadicRational, character


class TestTrigPolynomial:
    def test_taps_are_p_times_coeffs(self):
        m = TrigPolynomial.from_taps(3, np.array([1.0, 1.0, 1.0]), scale=0)
        assert np.allclose(m.coeffs, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(m.taps, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, -np.inf)])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(PreconditionError, match="finite"):
            TrigPolynomial(2, np.array([0.5, bad]), scale=0)

    def test_a_replaced_mask_computes_its_own_grids(self):
        m = haar_mask(3)
        grid = m.values_on_depth_grid(2)
        doubled = replace(m, coeffs=2 * m.coeffs)
        assert np.array_equal(doubled.values_on_depth_grid(2), 2 * grid)
        assert np.array_equal(m.values_on_depth_grid(2), grid)

    def test_degree_ignores_trailing_zeros(self):
        m = TrigPolynomial(2, np.array([0.5, 0.5, 0.0, 0.0]), scale=0)
        assert m.degree == 1

    def test_value_is_polynomial_in_the_character(self):
        m = TrigPolynomial(2, np.array([0.25, 0.25, 0.5]), scale=1)
        xi = PadicRational(2, 3, 2)
        z = character(xi)
        assert m.value(xi) == pytest.approx(0.25 + 0.25 * z + 0.5 * z * z)

    def test_depth_grid_matches_pointwise_values(self):
        m = haar_mask(3)
        t = 2
        grid = m.values_on_depth_grid(t)
        for a in range(3**t):
            assert grid[a] == pytest.approx(m.value(PadicRational(3, a, t)))

    @pytest.mark.parametrize("p, N, M", [(2, 2, 3), (3, 2, 2), (5, 1, 2), (7, 1, 1)])
    def test_depth_grid_matches_polyval_oracle(self, p, N, M, rng):
        # up to p^(N+1) coefficients, more than p^t at the shallow depths: the fold
        masks = [
            haar_mask(p),
            random_covering_mask(rng, p, N, M),
            random_unimodular_mask(rng, p, N),
            random_noise_mask(rng, p, N),
            TrigPolynomial(p, rng.normal(size=p ** (N + 1)) + 0j, scale=N),
        ]
        deepest = N + M + 1
        for m in masks:
            scale = np.sum(np.abs(m.coeffs))
            # each depth on its own, then every depth as a stride of the deepest
            depths = range(1, deepest + 1)
            fresh = [TrigPolynomial(p, m.coeffs, N).values_on_depth_grid(t) for t in depths]
            strided = TrigPolynomial(p, m.coeffs, N)
            strided.values_on_depth_grid(deepest)
            for t in depths:
                want = oracle_mask_grid(m, t)
                for got in (fresh[t - 1], strided.values_on_depth_grid(t)):
                    assert got.shape == (p**t,)
                    # polyval's own rounding reached 2.4e-14 of the scale, the
                    # fold's 4e-16, against an extended-precision sum
                    assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("p, N, M", [(2, 2, 4), (3, 1, 2), (5, 0, 3), (7, 1, 1)])
    def test_refinement_evaluates_each_mask_once(self, p, N, M, rng, transform_lengths):
        drawn = random_covering_mask(rng, p, N, M)
        m = TrigPolynomial(p, drawn.coeffs, N)  # no grid cached by the draw's own check
        transform_lengths.clear()
        phi = refinable_from_mask(m, M)
        # M0, phi's coarsest exact period exponent: the draws at (3, 1, 2) and
        # (7, 1, 1) live on their whole declared ball and are no reframe
        M0 = {(2, 2, 4): 0, (5, 0, 3): 0}.get((p, N, M), M)
        assert _coarsest_period(phi) == M0
        # one mask grid, at depth N+M+1 or, if shallower, the deepest probe
        # (p^(N+1)-1)/(p-1), strided for every other depth, and phi from its
        # transform on its coarsest grid: for M0 = M as without the probes
        mask_depth = {(5, 0, 3): 1}.get((p, N, M), N + M + 1)
        assert sorted(transform_lengths) == sorted([p**mask_depth, p ** (N + M0)])

    def test_a_refusal_past_the_probes_adds_the_decided_grid(self, transform_lengths):
        # m(1/2) = 0.4: no sphere vanishes; p = 2, N = 0 probes sphere 1 only
        m = TrigPolynomial(2, np.array([0.7, 0.3]), scale=0)
        transform_lengths.clear()
        with pytest.raises(SupportViolationError):
            refinable_from_mask(m, 5)
        assert sorted(transform_lengths) == [2, 2**6]

    def test_an_early_stop_keeps_to_tol(self):
        # Haar plus 1e-11 (z - 1): m(1/2) = -2e-11, below the support floor
        # but above tol = 1e-12, which decides on sphere M+1 as before
        m = TrigPolynomial(2, np.array([0.5 - 1e-11, 0.5 + 1e-11]), scale=0)
        with pytest.raises(SupportViolationError):
            refinable_from_mask(m, 2, tol=1e-12)
        assert _coarsest_period(refinable_from_mask(m, 2)) == 0


class TestMaskFromRoots:
    def test_quartic_coefficients_by_schoolbook_product(self, quartic_mask):
        poly = np.array([1.0 + 0j])
        for z in QUARTIC_ZEROS:
            poly = oracle_poly_mul(poly, np.array([-character(z), 1.0 + 0j]))
        poly = poly / poly.sum()
        assert quartic_mask.degree == 4
        assert np.allclose(quartic_mask.coeffs, poly, atol=1e-14)
        assert quartic_mask.at_one() == pytest.approx(1.0)

    def test_prescribed_points_are_zeros(self, quartic_mask):
        for z in QUARTIC_ZEROS:
            assert abs(quartic_mask.value(z)) < 1e-14

    def test_rejects_duplicate_character(self):
        # 1/2 and 3/2 have the same fractional part, hence the same zero
        with pytest.raises(PreconditionError):
            mask_from_roots(2, 1, [PadicRational(2, 1, 1), PadicRational(2, 3, 1)])

    def test_rejects_integer_zero(self):
        with pytest.raises(PreconditionError):
            mask_from_roots(2, 1, [PadicRational(2, 2, 0)])

    def test_coefficients_are_the_character_product_bit_for_bit(self):
        # one np.convolve per root, each root the character of its zero
        rng = np.random.default_rng(17)
        for p, N in ((2, 6), (3, 3), (5, 2)):
            for _ in range(5):
                depths = rng.integers(1, N + 3, size=p ** (N + 1) - 1)
                zeros = {PadicRational(p, int(rng.integers(1, p**t)), int(t)) for t in depths}
                # distinct points of (0, 1): distinct characters, none equal to 1
                zeros = [z for z in zeros if z.exp > 0]
                poly = np.array([1.0 + 0j])
                for z in zeros:
                    poly = np.convolve(poly, np.array([-character(z), 1.0 + 0j]))
                got = mask_from_roots(p, N, zeros).coeffs
                assert np.array_equal(got, poly / np.sum(poly))

    def test_rejects_budget_overflow(self):
        zeros = [PadicRational(2, k, 3) for k in range(1, 8, 2)]
        assert len(zeros) == 4  # budget for scale 0 is 2^1 - 1 = 1
        with pytest.raises(PreconditionError):
            mask_from_roots(2, 0, zeros)


class TestRefinableFromMask:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_haar_solution_is_unit_ball_indicator(self, p):
        phi = refinable_from_mask(haar_mask(p), 0)
        assert phi.frame == (0, 0)
        assert np.abs(phi.values - omega(p).values).max() < 1e-12

    def test_quartic_zero_pattern(self, quartic_phi):
        # phat on the half-integer grid vanishes at 1/2, 1, 3/2, 5/2
        phat = fourier(quartic_phi)
        assert phat.frame == (1, 2)
        for l in (1, 2, 3, 5):
            assert abs(phat.values[l]) < 1e-9
        assert abs(phat.values[0]) == pytest.approx(1.0, abs=1e-9)
        # but the support is genuinely bigger than the unit ball
        assert abs(phat.values[7]) > 1e-3

    def test_quartic_needs_period_one(self, quartic_mask):
        with pytest.raises(SupportViolationError) as err:
            refinable_from_mask(quartic_mask, 0)
        assert err.value.magnitude > 1e-3

    def test_hat_from_mask_agrees_with_pointwise_product(self, quartic_mask):
        phat = hat_from_mask(quartic_mask, 1)
        for l, xi in enumerate(phat.grid_points()):
            assert phat.values[l] == pytest.approx(
                oracle_hat_value_at(quartic_mask, xi), abs=1e-12
            )

    def test_grid_cap_is_enforced(self):
        with pytest.raises(PreconditionError):
            refinable_from_mask(haar_mask(2), 25)

    def test_refine_and_check_share_one_grid_cap(self, monkeypatch):
        # both build the refined frame (N, M+1): 2^(M+1) points at N = 0
        monkeypatch.setenv(GRID_CAP_ENV, "64")
        phi = refinable_from_mask(haar_mask(2), 5)
        assert check_mra(phi).criterion_ok
        with pytest.raises(PreconditionError):
            refinable_from_mask(haar_mask(2), 6)
        with pytest.raises(PreconditionError):
            check_mra(omega(2, 0, 6))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(PreconditionError, match="tolerance"):
            refinable_from_mask(haar_mask(2), 1, tol=tol)
        with pytest.raises(PreconditionError, match="tolerance"):
            check_mra(omega(2, 0, 1), tol=tol)

    def test_prime_above_the_maximum_is_refused(self):
        for call in (
            lambda: refinable_from_mask(haar_mask(19), 0),
            lambda: check_mra(omega(19, 0, 0)),
            lambda: recover_mask(omega(19, 0, 0)),
            lambda: shift_mask(omega(19, 0, 0), PadicRational(19, 1, 0)),
            lambda: shift_mask(omega(19, 0, 0), PadicRational(19, 1, 0), same_scale=False),
            lambda: hat_from_mask(haar_mask(19), 0),
            lambda: sphere_values(haar_mask(19), 1),
            lambda: support_margin(haar_mask(19), 0),
        ):
            with pytest.raises(PreconditionError, match="exceeds the supported maximum"):
                call()


class TestDepthProduct:
    # depth 12 at p = 5 would be 244 million points
    @pytest.mark.parametrize("p, max_depth", [(2, 12), (3, 12), (5, 8)])
    def test_telescoped_product_matches_pointwise_oracle(self, p, max_depth, rng):
        masks = [random_covering_mask(rng, p, 1, 1), random_noise_mask(rng, p, 1)]
        for m in masks:
            for depth in range(1, max_depth + 1):
                got = _depth_product(m, depth)
                assert got.shape == (p**depth,)
                ls = np.arange(p**depth)
                if ls.size > 256:
                    # l = 0 stays: phi-hat(0) = 1 sets the scale of the product
                    ls = np.concatenate([[0], rng.choice(ls[1:], size=255, replace=False)])
                points = [PadicRational(p, int(l), depth - 1) for l in ls]
                want = np.array([oracle_hat_value_at(m, xi) for xi in points])
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got[ls] - want)) <= 1e-13 * scale


class TestSupportDecision:
    def test_sphere_values_haar(self):
        # the Haar product vanishes on every unit residue of sphere 1
        units, vals = sphere_values(haar_mask(2), 1)
        assert list(units) == [1]
        assert abs(vals[0]) < 1e-15

    def test_single_sphere_decides_deeper_spheres(self, rng):
        for _ in range(10):
            p = int(rng.choice([2, 3]))
            N = int(rng.integers(0, 2))
            M = int(rng.integers(0, 2))
            m = random_covering_mask(rng, p, N, M)
            ok, _, _ = support_margin(m, M)
            for s in range(M + 1, M + 4):
                _, vals = sphere_values(m, s)
                assert (np.abs(vals).max() <= 1e-9) == ok

    def test_noise_masks_usually_fail_support(self, rng):
        hits = 0
        for _ in range(10):
            m = random_noise_mask(rng, 2, 1)
            ok, _, _ = support_margin(m, 1)
            hits += not ok
        assert hits == 10


class TestRefinementOperator:
    def test_haar_fixed_point(self):
        phi = refinable_from_mask(haar_mask(2), 0)
        g = oracle_apply_refinement(haar_mask(2), phi)
        assert allclose(g, phi, tol=1e-12)

    def test_quartic_fixed_point(self, quartic_mask, quartic_phi):
        g = oracle_apply_refinement(quartic_mask, quartic_phi)
        assert allclose(g, quartic_phi, tol=1e-12)

    def test_time_and_fourier_routes_agree(self, rng):
        for _ in range(5):
            p = int(rng.choice([2, 3]))
            m = random_covering_mask(rng, p, 1, 1)
            phi = refinable_from_mask(m, 1)
            a = oracle_apply_refinement(m, phi)
            b = oracle_apply_refinement_fourier(m, phi)
            assert allclose(a, b, tol=1e-9)

    def test_non_fixed_function_moves(self):
        # the indicator of 2Z_2 is not refinable under the Haar mask
        f = TestFunction(2, 1, 1, np.array([1.0, 0, 0, 0], dtype=np.complex128))
        g = oracle_apply_refinement(haar_mask(2), f)
        assert not allclose(g, reframe(f, 2, 2), tol=1e-3)


class TestCoveringGenerator:
    def test_draw_with_m0_off_one_is_redrawn(self):
        # The first clean-looking draw from this stream has m(0) off 1 by
        # 9.3e-10; the generator must treat it as unclean and draw again.
        m = random_covering_mask(np.random.default_rng((99, 1392)), 5, 2, 1)
        assert abs(m.at_one() - 1.0) <= 1e-12
        assert support_margin(m, 1)[0]

    def test_long_run_of_unclean_draws_is_not_a_refusal(self):
        # At p = 5, N = 2 about one draw in eight is clean; this stream
        # needs 73 draws, more than a 64-try budget allows.
        m = random_covering_mask(np.random.default_rng((5, 3838)), 5, 2, 1)
        ok, _, worst = support_margin(m, 1)
        assert ok and worst <= 1e-12
