"""Deciding multiresolution properties of a candidate scaling function.

Everything here consumes a concrete element phi of D_N^M and produces
verdicts backed by residuals:

  * l_set: the indices l where the transform is nonzero on its grid. The
    cardinality bound #L <= p^N against p^N is the whole MRA criterion for
    refinable phi, so the set and its margins are first-class data.
  * recover_mask: fit the refinement equation phi(x) = sum_k h_k
    phi(x/p - k/p^(N+1)) by least squares on the transform side, and
    return the taps when the sup-norm residual of that identity on the full
    refined grid is within tolerance. It is the one source of taps.
  * shift_mask: express a translate phi(. - b) through phi, either at the
    same scale (coefficients on the translates phi(. - k/p^N), fitted on
    the bins where phi-hat lives and then verified pointwise) or through the
    refined-scale window phi(x/p - k/p^(N+1)), 0 <= k < p^(N+1). The window
    suffices whenever any refined expansion exists: translates with
    |a|_p > p^(N+1) vanish on B_N, so a minimal expansion never needs them.
  * check_orthonormal_shifts / check_mra: stacked evidence reports; every
    verdict is a residual comparison or read off a set those comparisons
    decided, and a report holds only what was computed.
  * check_haar_equivalence: reads check_mra's Haar verdict. Under the
    criterion #L <= p^N the translates phi(. - k/p^N), k < p^N, span
    exactly the functions whose transform lives on L: their transforms at
    l/p^M are phi-hat(l/p^M) z_l^k with distinct nodes
    z_l = chi_p(l/p^(N+M)), a Vandermonde system of full row rank. The ball
    indicator's L is the unit-ball residues p^M Z/p^(N+M), so span equality
    with its translates is the set equality of the two L sets.

check_mra compares S0, the bins where phi-hat lives, with the count
p^N. Under it the refinement window's rolls span every vector on the bins
S = S0 + p^(N+M) {0..p-1} where phi(x/p) lives (a Vandermonde system with
distinct nodes), so the refinement misfit is phi's transform off S, one
inverse transform on phi's own grid, and a translate by k/p^N, a phase on
the same bins, has the same misfit: axiom (a) is that residual. Otherwise
the window is p copies of phi's own translate system (_window_fit): a
target splits into p residue classes on phi's frame, each fitted by phi's
p^N rolls, and the classes partition the refined grid, so the largest
class sup is the refined sup. recover_mask and refined shift_mask solve
for taps that way; over the count check_mra projects phi's classes on one
SVD, class r of the translate by k/p^N being phi's class r - k.
By Plancherel the Gram row <phi, phi(. - d/p^N)> over every d is one
inverse transform of |phi-hat|^2, and stage 1's character sums are
entries of the same row. check_mra transforms phi once for the mean, the
L set, the refinement residual and the orthonormality stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, check_limits
from .errors import NotRefinableError, PreconditionError
from .masks import TrigPolynomial
from ._translates import (
    _chunks,
    _factor,
    _fit,
    _solve,
    _sup,
    _support_bins,
    _support_rows,
    _translates,
)
from .padic_core import PadicRational
from .test_functions import (
    TestFunction,
    _fourier_values,
    _inv_fourier_values,
    fourier,
    norm_l2,
    reframe,
    shift,
)

__all__ = [
    "LSet",
    "l_set",
    "MaskRecovery",
    "recover_mask",
    "ShiftMaskSolution",
    "shift_mask",
    "OrthonormalityReport",
    "check_orthonormal_shifts",
    "check_haar_equivalence",
    "MraReport",
    "check_mra",
]


def _require_frame(f: TestFunction) -> tuple[int, int]:
    N, M = f.frame
    if N < 0 or M < 0:
        raise PreconditionError(
            f"frame ({N}, {M}) must have N, M >= 0; re-frame first"
        )
    return N, M


def _lifted(f: TestFunction) -> TestFunction:
    """f on the frame with negative components lifted to zero; every value is kept."""
    return reframe(f, max(f.support_exp, 0), max(f.period_exp, 0))


# --------------------------------------------------------------------------
# The L set


@dataclass
class LSet:
    """Indices l in [0, p^(M+N)) with |phat(l/p^M)| above tolerance.

    min_member_abs / max_excluded_abs expose how close the decision came to
    the threshold from either side.
    """

    prime: int
    support_exp: int
    period_exp: int
    tol: float
    members: tuple[int, ...]
    min_member_abs: float
    max_excluded_abs: float

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def bound(self) -> int:
        """The criterion bound p^N."""
        return self.prime**self.support_exp

    @property
    def within_bound(self) -> bool:
        return self.size <= self.bound


def l_set(phi: TestFunction, tol: float = DEFAULT_TOL) -> LSet:
    """The L set of phi, its frame's negative components lifted to zero first."""
    phi = _lifted(phi)
    return _l_set(phi, fourier(phi).values, tol)


def _l_set(phi: TestFunction, hat: np.ndarray, tol: float) -> LSet:
    """l_set from hat, the values of fourier(phi) that the caller already has."""
    N, M = _require_frame(phi)
    mags = np.abs(hat)
    member_mask = mags > tol
    members = tuple(int(i) for i in np.nonzero(member_mask)[0])
    min_in = float(mags[member_mask].min()) if members else 0.0
    excluded = mags[~member_mask]
    max_out = float(excluded.max()) if excluded.size else 0.0
    return LSet(phi.prime, N, M, tol, members, min_in, max_out)


# --------------------------------------------------------------------------
# Refinement-equation fitting


def _window_fit(
    hat: np.ndarray, t: np.ndarray, offsets: np.ndarray, p: int, N: int, M: int, taps: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Fit residue classes of t, a function on phi's frame, through phi's p^N rolls.

    The window generator phi(x/p - k/p^(N+1)), k = r + p m, lives on the
    refined-grid indices a = r (mod p), where it is phi rolled by m; class o
    of t is b -> t[(p b + o) mod p^(N+M)]. Each class is fitted on the bins
    where phi-hat lives with the refined grid's rank cut, by lstsq (taps) or
    as a projection on one _factor of the block, in chunks. Returns the
    coefficients x[m, j] of class offsets[j] (None unless taps), so the tap
    h[r + p m] is x[m, r], and each class's sup misfit in space.
    """
    q, n = t.shape[0], p ** (N + M + 1)
    rows = _support_rows(hat[:, None], p**N)
    a = _translates(rows.spectra, rows.phases, p**N)
    u = None if taps else _factor(a, n)[0]
    x, sups = [], []
    for chunk in _chunks(offsets.size, q):
        y = _fourier_values(t[(p * np.arange(q)[:, None] + offsets[chunk]) % q], p, M)
        misfit = -y
        if taps:
            x.append(_solve(a, y[rows.bins], n))
            misfit[rows.bins] += a @ x[-1]
        else:
            misfit[rows.bins] += u @ (u.conj().T @ y[rows.bins])
        sups.append(np.max(np.abs(_inv_fourier_values(misfit, p, N)), axis=0, initial=0.0))
    return (np.hstack(x) if taps else None), np.concatenate(sups)


@dataclass
class MaskRecovery:
    """A fitted mask and the sup-norm residual of the refinement identity."""

    mask: TrigPolynomial
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


def recover_mask(phi: TestFunction, tol: float = DEFAULT_TOL) -> MaskRecovery:
    """Fit the refinement equation; raise NotRefinableError when it fails.

    The minimum-norm least-squares solution on the bins where phi(x/p)
    lives is used directly: if any tap vector satisfies the identity to
    tolerance, the minimizer does too, so success is equivalent to
    solvability. Its residual is measured on the full refined grid.
    """
    N, M = _require_frame(phi)
    check_limits(phi.prime, N + M + 1, tol)
    hat = fourier(phi).values
    if abs(hat[0]) <= tol:
        raise PreconditionError(
            f"phi integrates to {hat[0]:.3e}; a scaling candidate needs "
            "a nonzero mean"
        )
    x, residuals = _window_fit(hat, phi.values, np.arange(phi.prime), phi.prime, N, M)
    mask = TrigPolynomial.from_taps(phi.prime, x.reshape(-1), scale=N)
    fit = MaskRecovery(mask, float(np.max(residuals)), tol)
    if not fit.ok:
        raise NotRefinableError(fit.residual, tol)
    return fit


# --------------------------------------------------------------------------
# Shift expansions


@dataclass
class ShiftMaskSolution:
    """Best expansion of phi(. - b), with its pointwise residual.

    mode 'same_scale': phi(. - b) ~ sum_{k < p^N} alpha_k phi(. - k/p^N),
    with alpha the least-squares fit of the transforms on the bins where
    phi-hat lives; the residual is the sup misfit of the identity in space,
    one inverse transform of the transform misfit.
    mode 'refined': phi(. - b) ~ sum_{k < p^(N+1)} h_k phi(x/p - k/p^(N+1)),
    fitted on the transform side and measured on the refined grid.
    """

    b: PadicRational
    mode: str
    coefficients: np.ndarray
    pointwise_residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.pointwise_residual <= self.tol


def shift_mask(
    phi: TestFunction,
    b: PadicRational,
    same_scale: bool = True,
    tol: float = DEFAULT_TOL,
) -> ShiftMaskSolution:
    N, M = _require_frame(phi)
    p = phi.prime
    check_limits(p, N + M if same_scale else N + M + 1, tol)
    if b.prime != p:
        raise PreconditionError(f"mixed primes {p} and {b.prime}")
    if b.norm() > p**N:
        raise PreconditionError(f"|b|_p = {b.norm():g} exceeds p^N = {p**N}")

    # |b|_p <= p^N keeps phi(. - b) on phi's frame, where a translate by
    # k/p^N is a roll by k.
    hat, target = fourier(phi).values, shift(phi, b)
    if same_scale:
        y = fourier(target).values
        (alpha,), fit = _fit(hat[:, None], y, p**N)
        residual = _sup(_inv_fourier_values(fit - y, p, N))
        return ShiftMaskSolution(b, "same_scale", alpha, residual, tol)
    x, residuals = _window_fit(hat, target.values, np.arange(p), p, N, M)
    return ShiftMaskSolution(b, "refined", x.reshape(-1), float(np.max(residuals)), tol)


# --------------------------------------------------------------------------
# Orthonormality of the translate system


@dataclass
class OrthonormalityReport:
    """Three stacked tests of <phi(.-a), phi(.-b)> = delta over a, b in I_p.

    Stage 1 (character sums): sum_l |phat(l/p^M)|^2 chi(l k / p^(M+N)) must
    equal p^N delta_{k0} for 0 <= k < p^N.
    Stage 2 (exact characterization, applicable when supp phat lies in the
    unit ball): |phat| = 1 at every grid point of B_0; None when the support
    condition fails.
    Stage 3 (Gram, the verdict authority): ||phi|| = 1 and
    <phi, phi(. - d/p^N)> = 0 for every d in [1, p^(N+M)) with v_p(d) < N.
    Those d are the difference classes of distinct I_p translates together
    with their unit-ball-periodic copies. Translates further than p^N apart
    have disjoint supports and are orthogonal without computation, so they
    are not tested.
    """

    tol: float
    char_sum_residuals: np.ndarray
    char_sums_ok: bool
    hat_supported_in_unit_ball: bool
    unit_modulus_ok: bool | None
    gram_residual: float
    gram_ok: bool
    norm_value: float
    norm_ok: bool
    verdict: bool


def check_orthonormal_shifts(
    phi: TestFunction, tol: float = DEFAULT_TOL
) -> OrthonormalityReport:
    """Orthonormality of phi's translates, its frame's negative components lifted to zero first."""
    phi = _lifted(phi)
    N, M = phi.frame
    check_limits(phi.prime, N + M, tol)
    return _orthonormality(phi, fourier(phi).values, tol)


def _orthonormality(phi: TestFunction, hat: np.ndarray, tol: float) -> OrthonormalityReport:
    """check_orthonormal_shifts from hat, the values of fourier(phi)."""
    N, M = phi.frame
    p = phi.prime
    n = p ** (N + M)
    # By Plancherel row[d] = <phi, phi(. - d/p^N)>, the Gram row of stage 3;
    # p^N row[k] is the conjugate of stage 1's character sum at k.
    row = _inv_fourier_values(np.abs(hat) ** 2, p, N)

    # Stage 1: the periodization identity, evaluated by exact character
    # sums. Their targets are real, so the conjugate has the same residuals.
    sums = p**N * row[: p**N]
    targets = np.zeros(p**N, dtype=np.complex128)
    targets[0] = p**N
    char_res = np.abs(sums - targets)
    char_ok = bool(np.max(char_res, initial=0.0) <= tol)

    # Stage 2: where it applies, unit modulus on the unit ball is equivalent.
    outside = np.arange(n) % p**M != 0
    in_ball = not np.any(np.abs(hat[outside]) > tol)
    inside_vals = hat[~outside]
    modulus_ok: bool | None = None
    if in_ball:
        modulus_ok = bool(np.max(np.abs(np.abs(inside_vals) - 1.0), initial=0.0) <= tol)

    # Stage 3: the Gram row for every d at once. v_p(d) < N means p^N does
    # not divide d, which also leaves out d = 0, the norm, checked
    # separately.
    classes = np.arange(n) % p**N != 0
    gram_res = _sup(row[classes])
    gram_ok = gram_res <= tol
    norm_value = norm_l2(phi)
    norm_ok = abs(norm_value - 1.0) <= tol

    return OrthonormalityReport(
        tol=tol,
        char_sum_residuals=char_res,
        char_sums_ok=char_ok,
        hat_supported_in_unit_ball=bool(in_ball),
        unit_modulus_ok=modulus_ok,
        gram_residual=float(gram_res),
        gram_ok=bool(gram_ok),
        norm_value=norm_value,
        norm_ok=bool(norm_ok),
        verdict=bool(gram_ok and norm_ok),
    )


def check_haar_equivalence(phi: TestFunction, tol: float = DEFAULT_TOL) -> bool:
    """Span equality of {phi(. - k/p^N)} with the ball-indicator translates.

    Precondition: phi is an orthogonal MRA generator, with orthonormal
    translates and the MRA criterion. Reads check_mra's haar_equivalent,
    the set equality of L with the unit-ball residues.
    """
    _require_frame(phi)
    report = check_mra(phi, tol)
    if not report.orthonormality.verdict:
        raise PreconditionError("translates are not orthonormal")
    if not report.criterion_ok:
        raise PreconditionError("phi does not satisfy the MRA criterion")
    return bool(report.haar_equivalent)


# --------------------------------------------------------------------------
# The assembled report


@dataclass
class MraReport:
    """Everything check_mra measured, with the criterion verdict.

    criterion_ok is exactly: refinable, and #L <= p^N. fit_rows is |S0|,
    the number of bins where phi-hat lives, and axiom_a_route says how it
    compares with p^N. "derived": under the count the refinement residual
    is phi's transform off the bins where phi(x/p) lives, and every
    translate phi(. - k/p^N), k < p^N, has that same residual, so
    axiom_a_residual is refine_residual. "solved": over the count every
    residue class of phi and its translates was projected on one SVD of
    phi's translate block, and axiom_a_residual is the largest residual.
    set_rule_ok, p L within L mod p^(N+M), is forced by refinability and
    under the count implies it: a cross-check read off the L set.
    haar_equivalent is None unless the translates are orthonormal and the
    criterion holds; then it says whether L is the unit-ball residues.
    """

    prime: int
    support_exp: int
    period_exp: int
    tol: float
    mean_value: complex
    refinable: bool
    refine_residual: float
    lset: LSet
    criterion_ok: bool
    fit_rows: int
    axiom_a_residual: float
    axiom_a_route: str
    axiom_a_ok: bool
    set_rule_ok: bool
    orthonormality: OrthonormalityReport
    haar_equivalent: bool | None


def check_mra(phi: TestFunction, tol: float = DEFAULT_TOL) -> MraReport:
    """Decide whether phi generates a multiresolution analysis.

    Negative frame components are lifted to zero first (pointwise-neutral).
    Rejects candidates with zero mean: the criterion is not defined there.
    The prime, tol and the refined grid p^(N+M+1) pass config.check_limits.

    Density and trivial intersection hold for every nonzero-mean phi with
    compact Fourier support (every sphere |xi| = p^s dilates into B_{-N},
    where the transform is the mean; for orthonormal translates classical
    sufficiency gives both too), so the report holds nothing for them.

    For an orthonormal phi that meets the criterion, Haar equivalence is
    the set equality of L with the unit-ball residues; no solve is needed.
    """
    phi = _lifted(phi)
    N, M = phi.frame
    p = phi.prime
    check_limits(p, N + M + 1, tol)

    # One transform serves the mean phi-hat(0) = p^-M sum phi, the L set,
    # the refinement residual and the orthonormality stages.
    hat = fourier(phi).values
    hat0 = hat[0]
    if abs(hat0) <= tol:
        raise PreconditionError(
            f"phi integrates to {hat0:.3e}; the MRA criterion needs a "
            "nonzero mean"
        )

    # The route is the integer count, not a solve's rank. Under it the
    # window's rolls span every vector on the bins s with s mod p^(N+M) in
    # S0, and phi's transform on the refined frame is hat(l) at bin p l, so
    # the misfit is hat at the l whose p l falls outside, on phi's own grid.
    s0 = _support_bins(hat[:, None])
    if s0.size <= p**N:
        route = "derived"
        off = np.where(np.isin(p * np.arange(hat.size) % hat.size, s0), 0, hat)
        refine_residual = axiom_a_residual = _sup(_inv_fourier_values(off, p, N))
    else:
        # Class r of the translate by k/p^N is phi's class r - k, so the
        # p^N + p - 1 offsets below cover every translate, the last p phi.
        route = "solved"
        res = _window_fit(hat, phi.values, np.arange(1 - p**N, p), p, N, M, taps=False)[1]
        refine_residual, axiom_a_residual = float(np.max(res[-p:])), float(np.max(res))
    refinable = refine_residual <= tol
    ls = _l_set(phi, hat, tol)
    criterion_ok = bool(refinable and ls.within_bound)
    members = np.array(ls.members, dtype=np.int64)
    set_rule_ok = bool(np.all(np.isin(p * members % p ** (N + M), members)))

    ortho = _orthonormality(phi, hat, tol)
    haar_equivalent = None
    if ortho.verdict and criterion_ok:
        haar_equivalent = ls.members == tuple(range(0, p ** (N + M), p**M))
    return MraReport(
        prime=p,
        support_exp=N,
        period_exp=M,
        tol=tol,
        mean_value=complex(hat0),
        refinable=refinable,
        refine_residual=refine_residual,
        lset=ls,
        criterion_ok=criterion_ok,
        fit_rows=int(s0.size),
        axiom_a_residual=axiom_a_residual,
        axiom_a_route=route,
        axiom_a_ok=axiom_a_residual <= tol,
        set_rule_ok=set_rule_ok,
        orthonormality=ortho,
        haar_equivalent=haar_equivalent,
    )
