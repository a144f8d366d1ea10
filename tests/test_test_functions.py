"""The finite function spaces D_N^M and their Fourier engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import oracle_fourier, oracle_inner, oracle_reframe
from padic_mra import (
    TestFunction,
    allclose,
    common_frame,
    dilate,
    evaluate,
    fourier,
    inner_product,
    inv_fourier,
    lincomb,
    norm_l2,
    omega,
    reframe,
    shift,
    zero_function,
)
from padic_mra.errors import PreconditionError
from padic_mra.padic_core import PadicRational, character


@st.composite
def functions(draw):
    p = draw(st.sampled_from([2, 3]))
    N = draw(st.integers(min_value=-1, max_value=2))
    M = draw(st.integers(min_value=max(0, -N), max_value=3 - max(N, 0)))
    n = p ** (N + M)
    re = draw(
        st.lists(
            st.floats(min_value=-4, max_value=4, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    im = draw(
        st.lists(
            st.floats(min_value=-4, max_value=4, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return TestFunction(p, N, M, np.array(re) + 1j * np.array(im))


class TestConstruction:
    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            TestFunction(2, -2, 1, np.array([1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            TestFunction(2, 1, 1, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(PreconditionError, match="finite"):
            TestFunction(2, 1, 0, np.array([1.0, bad]))

    def test_values_are_read_only(self):
        f = omega(2)
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_omega_is_unit_ball_indicator(self):
        f = omega(3, 0, 1)
        assert evaluate(f, PadicRational(3, 2, 0)) == 1.0
        assert evaluate(f, PadicRational(3, 1, 1)) == 0.0  # |1/3|_3 = 3 > 1


class TestEvaluation:
    def test_outside_support_is_zero(self):
        f = TestFunction(2, 1, 1, np.arange(4, dtype=np.complex128))
        assert evaluate(f, PadicRational(2, 1, 2)) == 0.0  # norm 4 > 2

    def test_constant_on_period_cosets(self):
        f = TestFunction(2, 0, 2, np.arange(4, dtype=np.complex128))
        # x and x + 4 lie in the same coset of p^2 Z_2
        assert evaluate(f, PadicRational(2, 3, 0)) == evaluate(
            f, PadicRational(2, 7, 0)
        )

    @given(functions())
    def test_grid_points_recover_values(self, f):
        for a, x in enumerate(f.grid_points()):
            assert evaluate(f, x) == f.values[a]


class TestReframe:
    @given(functions())
    def test_pointwise_neutral(self, f):
        g = reframe(f, max(f.support_exp, 0) + 1, f.period_exp + 1)
        for x in g.grid_points():
            assert evaluate(g, x) == pytest.approx(evaluate(f, x), abs=1e-12)

    @given(functions())
    def test_measure_neutral(self, f):
        g = reframe(f, f.support_exp + 1, f.period_exp + 1)
        assert norm_l2(g) == pytest.approx(norm_l2(f), abs=1e-12)

    def test_cannot_shrink(self):
        f = omega(2, 1, 1)
        with pytest.raises(ValueError):
            reframe(f, 0, 1)

    @given(
        st.sampled_from([2, 3]),
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_the_index_formula_bit_for_bit(self, p, N, M, dN, dM, seed):
        assume(0 <= N + M <= 3)
        vals = np.random.default_rng(seed).normal(size=(p ** (N + M), 2)) @ np.array([1, 1j])
        vals[::2] = -0.0  # signed zeros must be copied as they are
        f = TestFunction(p, N, M, vals)
        g = reframe(f, N + dN, M + dM)
        assert g.frame == (N + dN, M + dM)
        assert g.values.tobytes() == oracle_reframe(f, N + dN, M + dM).astype(np.complex128).tobytes()


class TestShiftDilate:
    def test_shift_moves_the_grid(self):
        f = TestFunction(2, 1, 1, np.array([1.0, 0, 0, 0], dtype=np.complex128))
        g = shift(f, PadicRational(2, 1, 1))  # by 1/2
        assert evaluate(g, PadicRational(2, 1, 1)) == 1.0
        assert evaluate(g, PadicRational(2, 0, 0)) == 0.0

    @given(functions(), st.integers(min_value=-2, max_value=2))
    def test_dilate_is_exact_reindexing(self, f, j):
        g = dilate(f, j)
        assert g.frame == (f.support_exp + j, f.period_exp - j)
        assert np.array_equal(g.values, f.values)

    @given(functions(), st.integers(min_value=-2, max_value=2))
    def test_normalized_dilation_preserves_norm(self, f, j):
        assert norm_l2(dilate(f, j, normalized=True)) == pytest.approx(
            norm_l2(f), rel=1e-12, abs=1e-12
        )

    def test_dilate_evaluates_at_scaled_argument(self):
        f = TestFunction(2, 0, 2, np.arange(4, dtype=np.complex128))
        g = dilate(f, 1)  # g(x) = f(x/2)... no: g(x) = f(2x), support grows
        x = PadicRational(2, 3, 1)
        assert evaluate(g, x) == evaluate(f, x * PadicRational(2, 1, -1))


class TestInnerProduct:
    def test_omega_has_unit_norm(self):
        assert norm_l2(omega(3, 0, 2)) == pytest.approx(1.0)

    @given(functions())
    @settings(max_examples=25, deadline=None)
    def test_matches_fine_grid_oracle(self, f):
        assert inner_product(f, f) == pytest.approx(oracle_inner(f, f), abs=1e-10)

    def test_conjugate_linear_in_second_slot(self):
        f = TestFunction(2, 0, 1, np.array([1 + 1j, 2.0]))
        g = TestFunction(2, 0, 1, np.array([0 + 1j, 1.0]))
        assert inner_product(f, g) == pytest.approx(
            np.conj(inner_product(g, f))
        )

    def test_lincomb(self):
        f = omega(2, 0, 1)
        g = TestFunction(2, 0, 1, np.array([1.0, -1.0], dtype=np.complex128))
        h = lincomb([2.0, 1j], [f, g])
        assert np.allclose(h.values, 2.0 * f.values + 1j * g.values)


class TestFourier:
    def test_indicator_of_pZp(self):
        # f = 1 on 2Z_2, 0 on 1 + 2Z_2; hat is (1/2) * indicator of B_1
        f = TestFunction(2, 0, 1, np.array([1.0, 0.0], dtype=np.complex128))
        fhat = fourier(f)
        assert fhat.frame == (1, 0)
        assert np.allclose(fhat.values, [0.5, 0.5])
        assert np.allclose(fhat.values, oracle_fourier(f))

    @given(functions())
    @settings(max_examples=40, deadline=None)
    def test_matches_character_sum_oracle(self, f):
        assert np.allclose(fourier(f).values, oracle_fourier(f), atol=1e-10)

    @given(functions())
    @settings(max_examples=40, deadline=None)
    def test_plancherel(self, f):
        assert norm_l2(fourier(f)) == pytest.approx(norm_l2(f), abs=1e-10)

    @given(functions())
    @settings(max_examples=40, deadline=None)
    def test_double_transform_is_reflection(self, f):
        g = fourier(fourier(f))
        n = f.n
        reflected = f.values[(-np.arange(n)) % n]
        assert g.frame == f.frame
        assert np.allclose(g.values, reflected, atol=1e-10)

    @given(functions())
    @settings(max_examples=40, deadline=None)
    def test_inverse_round_trip(self, f):
        assert allclose(inv_fourier(fourier(f)), f, tol=1e-10)

    @given(functions())
    @settings(max_examples=25, deadline=None)
    def test_direct_and_fast_agree(self, f):
        # direct: p^-M * sum_x f(x) chi_p(x xi) with the exact p-adic character
        fhat = fourier(f)
        scale = float(f.prime) ** (-f.period_exp)
        points = f.grid_points()
        direct = np.array(
            [
                scale * sum(v * character(x * xi) for v, x in zip(f.values, points))
                for xi in fhat.grid_points()
            ]
        )
        assert np.allclose(direct, fhat.values, atol=1e-10)

    def test_shift_rule(self):
        f = TestFunction(2, 1, 2, np.arange(8, dtype=np.complex128) - 3j)
        b = PadicRational(2, 3, 1)
        lhs = fourier(shift(f, b))
        fhat = fourier(f)
        twist = np.array([character(b * xi) for xi in fhat.grid_points()])
        assert np.allclose(lhs.values, twist * fhat.values, atol=1e-12)

    @given(functions(), st.integers(min_value=-2, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_dilation_rule(self, f, j):
        # hat of f(p^j .) is p^j f-hat(p^-j .): same index array, scaled
        lhs = fourier(dilate(f, j))
        rhs = fourier(f)
        assert lhs.frame == (rhs.support_exp - j, rhs.period_exp + j)
        assert np.allclose(lhs.values, (f.prime**j) * rhs.values, atol=1e-9)


class TestCommonFrame:
    def test_lifts_both(self):
        f = omega(2, 0, 0)
        g = omega(2, 1, 2)
        fc, gc = common_frame(f, g)
        assert fc.frame == gc.frame == (1, 2)

    def test_allclose_across_frames(self):
        f = omega(2, 0, 1)
        assert allclose(f, reframe(f, 2, 3))
        assert not allclose(f, zero_function(2, 0, 1))
