"""Multiresolution verdicts: L sets, mask recovery, shift masks, orthonormality."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from padic_mra import (
    TestFunction,
    check_haar_equivalence,
    check_mra,
    check_orthonormal_shifts,
    dilate,
    fourier,
    haar_mask,
    inv_fourier,
    l_set,
    mask_from_roots,
    omega,
    recover_mask,
    refinable_from_mask,
    reframe,
    shift,
    shift_mask,
)
from conftest import (
    oracle_fourier,
    oracle_gram_residual,
    oracle_haar_span_residual,
    oracle_window_solve,
)
from padic_mra.errors import NotRefinableError, PreconditionError, SupportViolationError
from padic_mra.generators import (
    random_covering_mask,
    random_function,
    random_unimodular_mask,
)
from padic_mra.padic_core import PadicRational, enumerate_Ip_ball


def _covering_phi_p2_n4():
    mask = random_covering_mask(np.random.default_rng(11), 2, 4, 1)
    return refinable_from_mask(mask, 1)


def _oversized_phi():
    # three prescribed zeros at scale 1 leave #L = 3 > p^N = 2
    zeros = [PadicRational(2, 1, 2), PadicRational(2, 3, 3), PadicRational(2, 7, 3)]
    return refinable_from_mask(mask_from_roots(2, 1, zeros), 1)


class TestLSet:
    def test_quartic_members(self, quartic_phi):
        ls = l_set(quartic_phi)
        assert ls.members == (0, 4, 6, 7)
        assert ls.size == 4
        assert ls.bound == 4
        assert ls.within_bound

    def test_haar_is_a_single_index(self):
        ls = l_set(refinable_from_mask(haar_mask(3), 0))
        assert ls.members == (0,)
        assert ls.within_bound

    def test_margins_are_reported(self, quartic_phi):
        ls = l_set(quartic_phi)
        assert ls.min_member_abs > 1e-3
        assert ls.max_excluded_abs < 1e-9


class TestRecoverMask:
    def test_haar(self):
        rec = recover_mask(omega(2, 0, 1))
        assert rec.ok
        assert rec.residual < 1e-12
        assert np.allclose(rec.mask.taps[:2], [1.0, 1.0], atol=1e-9)

    def test_quartic(self, quartic_mask, quartic_phi):
        rec = recover_mask(quartic_phi)
        assert rec.ok
        assert np.allclose(
            rec.mask.taps[:5], quartic_mask.taps[:5], atol=1e-8
        )

    def test_non_refinable_raises(self):
        f = TestFunction(2, 1, 1, np.array([1.0, 0, 0, 1.0], dtype=np.complex128))
        with pytest.raises(NotRefinableError):
            recover_mask(f)

    def test_zero_mean_rejected(self):
        f = TestFunction(2, 0, 1, np.array([1.0, -1.0], dtype=np.complex128))
        with pytest.raises(PreconditionError):
            recover_mask(f)


class TestShiftMask:
    @pytest.mark.parametrize("num,exp", [(1, 1), (3, 2)])
    def test_quartic_same_scale(self, quartic_phi, num, exp):
        sol = shift_mask(quartic_phi, PadicRational(2, num, exp))
        assert sol.ok
        assert sol.pointwise_residual < 1e-9

    def test_quartic_refined_window_all_translates(self, quartic_phi):
        for b in enumerate_Ip_ball(2, 2):
            sol = shift_mask(quartic_phi, b, same_scale=False)
            assert sol.ok, f"refined shift mask failed at b = {b}"

    def test_oversized_lset_blocks_refined_mode(self):
        phi = _oversized_phi()
        ls = l_set(phi)
        assert not ls.within_bound
        results = [
            shift_mask(phi, b, same_scale=False).ok for b in enumerate_Ip_ball(2, 1)
        ]
        assert not all(results)

    def test_solution_reports_both_residuals(self, quartic_phi):
        sol = shift_mask(quartic_phi, PadicRational(2, 1, 2))
        assert sol.pointwise_residual <= sol.tol
        assert sol.mode == "same_scale"


class TestCheckMra:
    def test_haar_full_verdict(self):
        report = check_mra(omega(2, 0, 1))
        assert report.refinable
        assert report.criterion_ok
        assert report.axiom_a_ok
        assert report.orthonormality.verdict
        assert report.haar_equivalent is True

    def test_quartic_verdict(self, quartic_phi):
        report = check_mra(quartic_phi)
        assert report.criterion_ok
        assert report.refinable
        # shifts are non-orthogonal, so Haar equivalence is never attempted
        assert not report.orthonormality.verdict
        assert report.haar_equivalent is None

    def test_criterion_stable_under_dilation(self, quartic_phi):
        base = check_mra(quartic_phi).criterion_ok
        for j in (1, 2):
            assert check_mra(dilate(quartic_phi, j)).criterion_ok == base

    def test_negative_frame_is_lifted(self):
        f = dilate(omega(2, 0, 1), -1)  # frame (-1, 2)
        report = check_mra(f)
        assert (report.support_exp, report.period_exp) == (0, 2)
        # a shrunken indicator is not refinable at the lifted scale:
        # its refined pieces sit at 0 and 1/2, but B_{-1} splits at 0 and 2
        assert not report.refinable
        assert not report.criterion_ok
        # l_set and check_orthonormal_shifts lift the frame the same way
        assert l_set(f) == report.lset
        ortho = vars(check_orthonormal_shifts(f))
        assert ortho.keys() == vars(report.orthonormality).keys()
        for key, value in vars(report.orthonormality).items():
            assert np.array_equal(ortho[key], value), key

    def test_zero_mean_rejected(self):
        f = TestFunction(2, 0, 1, np.array([1.0, -1.0], dtype=np.complex128))
        with pytest.raises(PreconditionError):
            check_mra(f)

    def test_mean_value_is_the_transform_at_zero(self, quartic_phi, rng):
        phis = [
            omega(3, 1, 1),
            quartic_phi,
            _covering_phi_p2_n4(),
            refinable_from_mask(random_unimodular_mask(rng, 3, 1), 1),
            random_function(rng, 5, 1, 2),
        ]
        for phi in phis:
            want = fourier(phi).values[0]
            assert abs(check_mra(phi).mean_value - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("case", ["haar2", "haar3", "quartic", "covering", "oversized"])
    def test_axiom_a_block_matches_per_translate_solves(self, case, quartic_phi):
        phi = {
            # the ball indicator framed at N = 1, so p translates per block
            "haar2": lambda: omega(2, 1, 1),
            "haar3": lambda: omega(3, 1, 1),
            "quartic": lambda: quartic_phi,
            "covering": _covering_phi_p2_n4,
            # #L = 3 > p^N = 2: every roll is solved
            "oversized": _oversized_phi,
        }[case]()
        p, (N, M) = phi.prime, phi.frame
        report = check_mra(phi)
        assert report.axiom_a_route == ("solved" if case == "oversized" else "derived")
        taps, residuals = oracle_window_solve(phi, reframe(phi, N, M + 1).values, p**N)
        scale = np.max(np.abs(phi.values))
        assert report.axiom_a_ok == bool(np.all(residuals <= report.tol))
        assert abs(report.axiom_a_residual - np.max(residuals)) <= 1e-12 * scale
        assert abs(report.refine_residual - residuals[0]) <= 1e-12 * scale
        for k in range(p**N):
            single = shift_mask(phi, PadicRational(p, k, N), same_scale=False)
            assert single.mode == "refined"
            assert single.ok == (residuals[k] <= report.tol)
            assert abs(single.pointwise_residual - residuals[k]) <= 1e-12 * scale
            assert np.max(np.abs(single.coefficients - taps[:, k])) <= 1e-10
        fit = recover_mask(phi)
        assert np.max(np.abs(fit.mask.taps - taps[:, 0])) <= 1e-10

    def test_no_lstsq_and_an_svd_only_over_the_count(self, quartic_phi, monkeypatch):
        unimodular = refinable_from_mask(random_unimodular_mask(np.random.default_rng(4), 2, 2), 1)
        calls = {"lstsq": 0, "svd": 0}
        real = {name: getattr(np.linalg, name) for name in calls}

        def counting(name):
            def spy(*args, **kwargs):
                calls[name] += 1
                return real[name](*args, **kwargs)

            return spy

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        # Haar equivalence is read off the L set, whether it is decided
        # (orthonormal translates) or not (the quartic); the taps are
        # recover_mask's, so nothing is solved, and only #L > p^N projects
        # the translates on one SVD of the window block
        for phi, haar, svds in (
            (quartic_phi, None, 0),
            (omega(2, 1, 1), True, 0),
            (omega(3, 1, 1), True, 0),
            (unimodular, True, 0),
            (_oversized_phi(), None, 1),
        ):
            calls.update(lstsq=0, svd=0)
            assert check_mra(phi).haar_equivalent is haar
            assert calls == {"lstsq": 0, "svd": svds}

    def test_under_the_count_nothing_is_solved_and_every_transform_is_on_phis_grid(
        self, quartic_phi, monkeypatch
    ):
        # p = 2, N = 11, M = 1 with #L = p^N, where the taps solve took 7.0 s
        big = refinable_from_mask(random_unimodular_mask(np.random.default_rng(1), 2, 11), 1)
        solves, lengths = [], []

        def spy(module, name, record):
            real = getattr(module, name)

            def wrapped(a, *args, **kwargs):
                record.append(a.shape[0])
                return real(a, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        for name in ("lstsq", "svd"):
            spy(np.linalg, name, solves)
        for name in ("fft", "ifft"):
            spy(np.fft, name, lengths)
        # every transform is on phi's coarsest exact grid p^(N+M0). The ball
        # indicator with one value moved by 1e-13 is no reframe, and keeps its
        # declared grid, as do the quartic and the covering phi at M = M0 = 1.
        nudged = omega(3, 1, 1).values.copy()
        nudged[-1] += 1e-13
        nudged = TestFunction(3, 1, 1, nudged)
        for phi, M0 in ((big, 0), (quartic_phi, 1), (omega(3, 1, 1), 0), (_covering_phi_p2_n4(), 1), (nudged, 1)):
            lengths.clear()
            report = check_mra(phi)
            assert report.criterion_ok and report.axiom_a_route == "derived"
            assert lengths and set(lengths) == {phi.prime ** (phi.support_exp + M0)}
            if phi is big:
                assert report.lset.size == report.fit_rows == 2**11
        assert not solves


class TestOrthonormality:
    def test_haar_passes_all_stages(self):
        rep = check_orthonormal_shifts(refinable_from_mask(haar_mask(2), 0))
        assert rep.char_sums_ok
        assert rep.hat_supported_in_unit_ball
        assert rep.unit_modulus_ok is True
        assert rep.gram_ok
        assert rep.norm_ok
        assert rep.verdict

    def test_quartic_fails_with_evidence(self, quartic_phi):
        rep = check_orthonormal_shifts(quartic_phi)
        assert not rep.verdict
        assert max(rep.char_sum_residuals) > 1e-3
        # support extends past B_0, so the modulus stage does not apply
        assert rep.hat_supported_in_unit_ball is False
        assert rep.unit_modulus_ok is None

    def test_unimodular_pattern_passes(self, rng):
        m = random_unimodular_mask(rng, 3, 1)
        phi = refinable_from_mask(m, 0)
        rep = check_orthonormal_shifts(phi)
        assert rep.verdict
        assert rep.hat_supported_in_unit_ball
        assert rep.unit_modulus_ok is True


class TestGramStage:
    def test_fft_gram_matches_brute_force(self, quartic_phi, rng):
        phis = [
            quartic_phi,
            refinable_from_mask(haar_mask(3), 1),
            refinable_from_mask(random_unimodular_mask(rng, 2, 1), 2),
        ]
        phis += [random_function(rng, p, N, M) for p, N, M in ((2, 2, 2), (3, 1, 2), (5, 1, 1), (2, 0, 3))]
        for phi in phis:
            rep = check_orthonormal_shifts(phi)
            oracle = oracle_gram_residual(phi)
            assert rep.gram_residual == pytest.approx(oracle, rel=1e-9, abs=1e-13)


@pytest.fixture(scope="module")
def sweep_reports(quartic_phi):
    """(phi, check_mra(phi)) for the quartic and seeded draws at M <= 2.

    The draws are covering and unimodular masks at p = 2, N <= 4; p = 3,
    N <= 2; and p = 5, N = 1.
    """
    rng = np.random.default_rng(31)
    phis = [quartic_phi]
    for p, N in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)):
        for M in range(3):
            masks = [random_covering_mask(rng, p, N, M) for _ in range(5)]
            masks += [random_unimodular_mask(rng, p, N) for _ in range(2)]
            for m in masks:
                try:
                    phis.append(refinable_from_mask(m, M))
                except SupportViolationError:
                    pass
    return [(phi, check_mra(phi)) for phi in phis]


class TestHaarEquivalence:
    def test_l_set_decision_matches_dense_span_oracle(self, sweep_reports):
        # Under the criterion the translates span the ball-indicator
        # translates exactly when L is the unit-ball residues p^M Z/p^(N+M);
        # the quartic's L is not, and its span differs.
        sides = {True: 0, False: 0}
        for i, (phi, report) in enumerate(sweep_reports):
            if not report.criterion_ok:
                continue
            p, N, M = phi.prime, phi.support_exp, phi.period_exp
            unit_ball = report.lset.members == tuple(range(0, p ** (N + M), p**M))
            assert unit_ball == (oracle_haar_span_residual(phi) <= report.tol)
            if report.haar_equivalent is not None:
                assert report.haar_equivalent is unit_ball
            if i == 0:
                assert not unit_ball
            sides[unit_ball] += 1
        assert sides[True] >= 20 and sides[False] >= 20

    def test_orthogonal_scaling_functions_are_haar(self, sweep_reports):
        # The paper's claim (b): an orthonormal MRA generator is 1-periodic
        # (its transform lives in the unit ball) and generates the Haar MRA.
        orthonormal = 0
        for _, report in sweep_reports:
            if report.orthonormality.verdict and report.criterion_ok:
                assert report.orthonormality.hat_supported_in_unit_ball
                assert report.haar_equivalent is True
                orthonormal += 1
        assert orthonormal >= 20

    def test_haar_dilate_is_equivalent(self):
        phi = refinable_from_mask(haar_mask(2), 0)
        assert check_haar_equivalence(phi) is True

    def test_unimodular_pattern_is_equivalent(self, rng):
        m = random_unimodular_mask(rng, 2, 1)
        phi = refinable_from_mask(m, 0)
        assert check_haar_equivalence(phi) is True

    def test_requires_orthonormal_shifts(self, quartic_phi):
        with pytest.raises(PreconditionError):
            check_haar_equivalence(quartic_phi)


def _random_support_phi(rng, p, N, M, closed):
    """phi whose transform is random on a random L with 0 in L and #L <= p^N.

    closed=True builds L from whole orbits l, p l, p^2 l, ... mod p^(N+M),
    so p L lies in L; otherwise L is any such set.
    """
    q = p ** (N + M)
    size = int(rng.integers(1, p**N + 1))
    members = {0}
    for _ in range(8 * size):
        if len(members) >= size:
            break
        l = int(rng.integers(1, q))
        orbit = {l * p**i % q for i in range(N + M + 1)} if closed else {l}
        if len(members | orbit) <= p**N:
            members |= orbit
    hat = np.zeros(q, dtype=np.complex128)
    idx = np.array(sorted(members))
    hat[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    hat[0] = 1.0
    return inv_fourier(TestFunction(p, M, N, hat))


@pytest.fixture(scope="module")
def window_sweep():
    """Seeded draws on both sides of the count and of refinability.

    Covering masks (refinable, #L on both sides of p^N), unimodular masks
    (#L = p^N), random transforms on a random L under the count, closed
    under multiplication by p or not, and generic functions (#L > p^N).
    """
    rng = np.random.default_rng(4)
    phis = []
    for p, N in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        for M in range(3):
            for m in [random_covering_mask(rng, p, N, M) for _ in range(3)]:
                try:
                    phis.append(refinable_from_mask(m, M))
                except SupportViolationError:
                    pass
            phis.append(refinable_from_mask(random_unimodular_mask(rng, p, N), M))
            phis += [_random_support_phi(rng, p, N, M, closed) for closed in (True, False, False)]
            phis.append(random_function(rng, p, N, M))
    return phis


class TestWindowFitSweep:
    """check_mra's transform-side window fit against the dense space-domain oracle."""

    def test_verdicts_and_residuals_match_the_oracle(self, window_sweep):
        kinds = {"non-refinable under the count": 0, "refinable over the count": 0, "solved": 0}
        for phi in window_sweep:
            p, (N, M) = phi.prime, phi.frame
            report = check_mra(phi)
            taps, res = oracle_window_solve(phi, reframe(phi, N, M + 1).values, p**N)
            size = int(np.count_nonzero(np.abs(oracle_fourier(phi)) > report.tol))
            scale = np.max(np.abs(phi.values))
            assert report.lset.size == size
            assert report.refinable == (res[0] <= report.tol)
            assert report.axiom_a_ok == bool(np.all(res <= report.tol))
            assert report.criterion_ok == (report.refinable and size <= p**N)
            assert abs(report.refine_residual - res[0]) <= 1e-12 * scale
            assert abs(report.axiom_a_residual - np.max(res)) <= 1e-12 * scale
            if report.refinable:
                assert np.max(np.abs(recover_mask(phi).mask.taps - taps[:, 0])) <= 1e-10
            else:
                with pytest.raises(NotRefinableError):
                    recover_mask(phi)
            if size <= p**N:
                assert report.set_rule_ok == report.refinable
                kinds["non-refinable under the count"] += not report.refinable
            else:
                kinds["refinable over the count"] += report.refinable
            kinds["solved"] += report.axiom_a_route == "solved"
            assert (report.axiom_a_route == "derived") == (report.fit_rows <= p**N)
        assert all(count >= 5 for count in kinds.values()), kinds

    def test_axiom_a_fails_at_a_larger_roll(self, window_sweep):
        # over the count a refinable phi can still miss axiom (a): only the
        # rolls past 0 show it, so those rolls must be solved
        missed = [
            r for r in map(check_mra, window_sweep)
            if r.refinable and not r.axiom_a_ok
        ]
        assert missed and all(r.axiom_a_route == "solved" for r in missed)

    def test_refined_shifts_with_an_integer_part_match_the_oracle(self, window_sweep):
        # b = k/p^N + j, 0 < j < p^M, is a roll by k + j p^N on phi's grid
        checked = 0
        for phi in window_sweep:
            p, (N, M) = phi.prime, phi.frame
            scale = np.max(np.abs(phi.values))
            integer_parts = {1, p**M - 1} if M else set()
            for k in {0, p**N - 1}:
                for j in integer_parts:
                    b = PadicRational(p, k + j * p**N, N)
                    sol = shift_mask(phi, b, same_scale=False)
                    target = reframe(shift(phi, b), N, M + 1).values
                    taps, res = oracle_window_solve(phi, target, 1)
                    assert np.max(np.abs(sol.coefficients - taps[:, 0])) <= 1e-10
                    assert abs(sol.pointwise_residual - res[0]) <= 1e-12 * scale
                    checked += 1
        assert checked >= 100

    def test_a_small_genuine_bin_stays_in_the_fit_on_a_large_grid(self):
        # p = 2, N = 6, #L = 21: one bin of phi-hat sits at 8.8e-9 of its
        # peak. Reframing to M = 10 moves neither, so the fit must keep that
        # bin; a support floor growing with n dropped it there and called
        # phi non-refinable with residual 1.7e-8
        rng = np.random.default_rng((52, 0, 318, 3))
        mask = [random_covering_mask(rng, 2, 6, 1) for _ in range(3)][-1]
        phi = reframe(refinable_from_mask(mask, 1), 6, 10)
        hat = np.sort(np.abs(fourier(phi).values))[::-1]
        assert 8e-9 < hat[20] / hat[0] < 9e-9
        report = check_mra(phi)
        taps, res = oracle_window_solve(phi, reframe(phi, 6, 11).values, 1)
        assert report.lset.size == report.fit_rows == 21
        assert report.axiom_a_route == "derived"
        assert report.refinable and res[0] <= report.tol
        assert abs(report.refine_residual - res[0]) <= 1e-12 * np.max(np.abs(phi.values))

    def test_check_mra_memory_at_p2_n9(self):
        # #L = p^N = 512: the fit holds one 512 x 512 block; the dense
        # window with its rolled targets peaked at 56 MB
        phi = refinable_from_mask(random_unimodular_mask(np.random.default_rng(1), 2, 9), 1)
        tracemalloc.start()
        try:
            report = check_mra(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.criterion_ok and report.lset.size == 2**9
        assert peak < 28 * 2**20
