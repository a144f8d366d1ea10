"""Wavelet systems attached to a refinable function.

Given an MRA generator phi in D_N^M with scaling mask m_0, the p-1 wavelet
masks are built as polynomials in z = chi_p(xi):

    n_nu(z) = z^((nu-1) p^N) * B(z),   B(z) = prod_{l in L} (z - chi_p(l / p^(M+N)))

B kills exactly the residues mod p^(M+N) where the transform of phi lives,
which is what makes every wavelet translate orthogonal to V_0; the z-power
spreads the p-1 masks over disjoint tap windows starting at (nu-1) p^N. At
bin s of a transform on the refined frame, translate k of wavelet nu is
G(s) B(z_s) z_s^((nu-1) p^N + k), G the transform of phi(x/p) and
z_s = chi_p(s/p^(N+M+1)): the p-1 windows together are one Vandermonde
system in the distinct nodes z_s, with exponents below (p-1) p^N and rows
scaled by G B. B vanishes on the V_0 bins, so the wavelets live on the
other (p-1) #L bins of the support of G, and #L <= p^N gives full row rank
there: V_1 = V_0 + W_0. A padding factor (z - 1)^(p^N - #L), which would
raise the degree of B to p^N, is left out: it adds nothing to that count,
and on the bins nearest z = 1 it is far below rounding, so a set built
with it can fail its own inclusion test. B's coefficients are one
inverse transform of its values on the depth-(N+M+1) grid.

Each wavelet, the tap combination psi = sum_k g_k phi(x/p - k/p^(N+1)) in
D_N^(M+1), is built from its transform Psi on that frame: at k/p^(M+1),
psi-hat(xi) = n(xi/p^N) phi-hat(p xi) is the mask on the depth-(N+M+1)
grid times phi-hat(k/p^M), entry k mod p^(N+M) of phi's transform on its
own grid. psi is one inverse transform of that product. phi is
transformed once, on its own p^(N+M) points: on the frame (N, M+1) its
transform Phi0 is those values placed every p bins, phi-hat vanishing off
B_M, and that of phi(x/p), p^-1 phi-hat(p xi), is them tiled p times over
p. Construction checks orthogonality to V_0 before anything is returned;
by Plancherel the inner products are the inverse transform of
Phi0 conj(Psi), which lives on the bins p l, so they are one inverse
transform on phi's own grid of its p-strided bins. So a build transforms
phi once and, per wavelet, evaluates the mask by one transform, makes
one inverse transform on the refined grid and one on phi's. Every
wavelet residual is relative to the scale of what it compares: a verdict
must not change when a wavelet is multiplied by a constant, and the
expanded taps of a supplied mask can be of any size.

Frame quality is read off the Gram matrix of the translate system: on the
span, sum_i |<f, g_i>|^2 sits between A and B times ||f||^2 exactly when A
and B are the extreme nonzero Gram eigenvalues. The inclusion test and the
Gram are computed on the support rows of _translates, the bins where
phi(x/p), phi or some wavelet lives: p #L of them for a valid set. The
inclusion test solves for no target: one SVD of the span gives the d
directions it cannot reach, and the misfit of every target is its
component along them, zero when d = 0. The wavelets' one batched
transform and phi's own give those bins, the V_0 residual and the
factorization residual, which checks each given wavelet against its
mask; so verify_wavelet_set and frame_bounds transform each wavelet once
on the refined grid and phi once on its own, besides the mask grids
(cached on each mask, so a set that was just built has them).

The multilevel transform runs on support rows too, and reads every level
off one level-0 transform. A translate by k/p^(N+j) before the dilation
by p^-j is one by k/p^N after it, a roll by k step on the working frame,
and the transform of the level-j dilate at xi is p^(-j/2) times that of
the generator at p^j xi: a gather and a scale of one transform of phi and
the wavelets (_dilated), with no per-level dilation, reframing or
transform. Level j's rolls split by k step mod p^j into mutually
orthogonal classes, each the level-0 block of the rolls by r under a
phase, r = 1 when step <= p^j; when f lives on a larger ball than phi
(step = p^a) a level j < a has one class, on the rolls by p^(a-j). So
every fit of the transform, the V_j projections, the details of every
level and the level-j0 coefficients, is a DFT over the level-j bins above
each level-0 bin followed by one pseudo-inverse of a level-0 block,
factored once per call and roll stride, with no lstsq. Synthesis
multiplies each gathered spectrum by the character sum of its
coefficients, level by level. No step builds an n-row matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TOL, check_limits
from .errors import PreconditionError, UnsupportedConfigurationError, VerificationError
from ._translates import (
    _SupportRows,
    _chunks,
    _complement,
    _factor,
    _rank,
    _sup,
    _support_bins,
    _support_rows,
    _translate_sum,
    _translates,
)
from .masks import TrigPolynomial, haar_mask
from .mra import LSet, _l_set
from .test_functions import (
    TestFunction,
    _fourier_values,
    _inv_fourier_values,
    fourier,
    norm_l2,
    omega,
    reframe,
)

__all__ = [
    "WaveletSet",
    "wavelet_masks",
    "wavelet_functions",
    "build_wavelet_set",
    "verify_wavelet_set",
    "WaveletVerification",
    "InclusionCount",
    "FrameReport",
    "frame_bounds",
    "kozyrev_set",
    "CoefficientTree",
    "analyze",
    "synthesize",
]

# --------------------------------------------------------------------------
# Masks


def wavelet_masks(
    phi: TestFunction,
    m0: TrigPolynomial,
    tol: float = DEFAULT_TOL,
) -> list[TrigPolynomial]:
    """The p-1 wavelet masks for phi, or a refusal.

    Refuses (UnsupportedConfigurationError) when deg m_0 > (p-1) p^N or
    #L > p^N: outside that regime the tap-window construction is not
    guaranteed to produce a wavelet set, though user-supplied masks can
    still be verified downstream.
    """
    return _window_masks(phi, m0, _l_set(phi, fourier(phi).values, tol))


def _window_masks(phi: TestFunction, m0: TrigPolynomial, ls: LSet) -> list[TrigPolynomial]:
    """wavelet_masks given phi's L set."""
    N, M = phi.frame
    p = phi.prime
    if m0.scale != N:
        raise PreconditionError(
            f"mask scale {m0.scale} does not match the frame support {N}"
        )
    if not ls.within_bound:
        raise UnsupportedConfigurationError(
            f"#L = {ls.size} exceeds p^N = {ls.bound}; no wavelet-mask "
            "construction is attached to this configuration"
        )
    if m0.degree > (p - 1) * p**N:
        raise UnsupportedConfigurationError(
            f"deg m_0 = {m0.degree} exceeds (p-1) p^N = {(p - 1) * p**N}; "
            "the tap-window construction does not apply"
        )
    # B's coefficients from its values on the depth-(N+M+1) grid, whose nodes p l are its
    # roots chi_p(l/p^(M+N)): expanded root by root, they lost those zeros at large #L.
    n = p ** (N + M + 1)
    z = np.exp(2j * np.pi * np.arange(n) / n)
    values = np.ones(n, dtype=np.complex128)
    for l in ls.members:
        values *= z - z[p * l]
    base = _inv_fourier_values(values, p, N + M + 1)[: ls.size + 1]
    masks = []
    for nu in range(1, p):
        coeffs = np.concatenate([np.zeros((nu - 1) * p**N, dtype=np.complex128), base])
        masks.append(TrigPolynomial(p, coeffs, scale=N))
    return masks


def _factorized(hat: np.ndarray, mask: TrigPolynomial, p: int, N: int, M: int) -> np.ndarray:
    """n(xi/p^N) phi-hat(p xi) at xi = k/p^(M+1), from hat = fourier(phi).values.

    The mask is read on the depth-(N+M+1) grid, and phi-hat(k/p^M), entry
    k of hat, repeats with period p^(N+M) in k.
    """
    return mask.values_on_depth_grid(N + M + 1) * np.tile(hat, p)


def _v0_residual(hat: np.ndarray, spec: np.ndarray, p: int, N: int) -> float:
    """max |<phi(.-a), psi(.-b)>| over a, b in I_p, from hat = fourier(phi).values and Psi.

    Translates more than p^N apart have disjoint supports, so only the
    difference classes d/p^N with |d| < p^N need computing. By Plancherel
    <phi, psi(. - d/p^N)> is entry d of the inverse transform of
    Phi0 conj(Psi) on the frame (N, M+1). Phi0 is zero off the bins p l,
    so that transform repeats with period p^(N+M): it is the inverse
    transform of hat conj(Psi(p l)) on phi's own grid, read at d mod
    p^(N+M). At M = 0 the classes wrap onto that period.
    """
    corr = _inv_fourier_values(hat * np.conj(spec[::p]), p, N)
    d = np.arange(-(p**N) + 1, p**N)
    return float(np.max(np.abs(corr[d % hat.shape[0]])))


def _relative(residual: float, scale: float) -> float:
    return residual / scale if scale > 0 else residual


def _wavelet_residuals(
    phi: TestFunction,
    hat: np.ndarray,
    mask: TrigPolynomial,
    psi: TestFunction,
    spec: np.ndarray,
) -> tuple[float, float]:
    """Scale-free (factorization, V_0-orthogonality) residuals of one wavelet.

    hat is phi's transform on its own grid and spec Psi, psi's on the
    frame (N, M+1). The factorization residual is relative to
    max |n(xi/p^N) phi-hat(p xi)| and the orthogonality residual to
    ||phi|| ||psi||, the Cauchy-Schwarz bound of every inner product it
    scans.
    """
    N, M = phi.frame
    p = phi.prime
    expected = _factorized(hat, mask, p, N, M)
    fact = _relative(_sup(spec - expected), _sup(expected))
    orth = _relative(_v0_residual(hat, spec, p, N), norm_l2(phi) * norm_l2(psi))
    return fact, orth


def wavelet_functions(
    phi: TestFunction,
    masks: list[TrigPolynomial],
    tol: float = DEFAULT_TOL,
) -> list[TestFunction]:
    """The wavelet of each mask, verified before it is returned.

    psi is the inverse transform of psi-hat(xi) = n(xi/p^N) phi-hat(p xi)
    on the full refined grid, the tap combination of the mask's taps.
    Refuses (PreconditionError) a mask with more than p^(N+1) taps, and
    raises VerificationError naming a mask whose wavelet has a translate
    not orthogonal to V_0.
    """
    check_limits(phi.prime, phi.support_exp + phi.period_exp + 1, tol)
    return _wavelet_functions(phi, masks, tol, fourier(phi).values)


def _wavelet_functions(
    phi: TestFunction, masks: list[TrigPolynomial], tol: float, hat: np.ndarray
) -> list[TestFunction]:
    """wavelet_functions given hat = fourier(phi).values."""
    N, M = phi.frame
    p = phi.prime
    out = []
    for i, mk in enumerate(masks):
        if mk.prime != p:
            raise PreconditionError(f"mask {i} has prime {mk.prime}, expected {p}")
        if len(mk.coeffs) > p ** (N + 1):
            raise PreconditionError(
                f"mask {i}: {len(mk.coeffs)} taps exceed the window p^(N+1) = {p ** (N + 1)}"
            )
        spec = _factorized(hat, mk, p, N, M)
        psi = TestFunction(p, N, M + 1, _inv_fourier_values(spec, p, N))
        orth_res = _relative(_v0_residual(hat, spec, p, N), norm_l2(phi) * norm_l2(psi))
        if orth_res > tol:
            raise VerificationError(
                f"mask {i}: wavelet is not orthogonal to V_0 "
                f"(residual {orth_res:.3e})"
            )
        out.append(psi)
    return out


# --------------------------------------------------------------------------
# Wavelet sets


@dataclass
class WaveletSet:
    """A refinable function, its mask, and r verified wavelets with masks."""

    phi: TestFunction
    scaling_mask: TrigPolynomial
    wavelets: list[TestFunction]
    masks: list[TrigPolynomial]
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        # The checks pair wavelet i with mask i and read every wavelet on the
        # frame (N, M+1) of phi's prime; a set that breaks that is refused.
        p, frame = self.prime, (self.support_exp, self.period_exp + 1)
        if self.scaling_mask.prime != p:
            raise PreconditionError(f"scaling mask has prime {self.scaling_mask.prime}, expected {p}")
        if len(self.wavelets) != len(self.masks):
            raise PreconditionError(f"{len(self.wavelets)} wavelets but {len(self.masks)} masks")
        for i, (psi, mk) in enumerate(zip(self.wavelets, self.masks)):
            if (psi.prime, psi.frame, mk.prime) != (p, frame, p):
                raise PreconditionError(
                    f"wavelet {i} (prime {psi.prime}, frame {psi.frame}) or its mask "
                    f"(prime {mk.prime}) does not fit prime {p} and frame {frame}"
                )

    @property
    def prime(self) -> int:
        return self.phi.prime

    @property
    def support_exp(self) -> int:
        return self.phi.support_exp

    @property
    def period_exp(self) -> int:
        return self.phi.period_exp

    @property
    def r(self) -> int:
        return len(self.wavelets)

    def normalize(self) -> "WaveletSet":
        """Rescale each wavelet (and its mask) to unit L2 norm."""
        new_psis, new_masks = [], []
        for psi, mk in zip(self.wavelets, self.masks):
            nrm = norm_l2(psi)
            if nrm <= self.tol:
                raise PreconditionError("cannot normalize a null wavelet")
            new_psis.append(
                TestFunction(psi.prime, psi.support_exp, psi.period_exp, psi.values / nrm)
            )
            new_masks.append(TrigPolynomial(mk.prime, mk.coeffs / nrm, mk.scale))
        return replace(self, wavelets=new_psis, masks=new_masks)


def build_wavelet_set(
    phi: TestFunction,
    m0: TrigPolynomial,
    tol: float = DEFAULT_TOL,
) -> WaveletSet:
    """Wavelet masks and verified wavelets for phi, on the frame (N, M+1)."""
    check_limits(phi.prime, phi.support_exp + phi.period_exp + 1, tol)
    hat = fourier(phi).values
    try:
        masks = _window_masks(phi, m0, _l_set(phi, hat, tol))
    except UnsupportedConfigurationError:
        # The refusal's traceback keeps this frame alive for as long as the
        # caller keeps the exception; it need not keep the spectrum too.
        del hat
        raise
    psis = _wavelet_functions(phi, masks, tol, hat)
    return WaveletSet(phi, m0, psis, masks, tol)


@dataclass
class InclusionCount:
    """The count behind V_1 = V_0 + W_0: the bins |S| where phi, phi(x/p) or a
    wavelet lives, the bins |T| of phi(x/p) (p #L for a valid set), the r p^N
    wavelet translates, the rank of the unit-norm span on S at the solve's
    cut, and the deficiency d = |S| - rank, zero when inclusion holds."""

    support_bins: int
    target_bins: int
    wavelet_translates: int
    rank: int
    deficiency: int


@dataclass
class WaveletVerification:
    """Residual evidence that a wavelet set is one, with the inclusion count.

    refinement_residual checks the premise V_0 in V_1: the scaling mask
    refines phi, phi-hat(xi) = m_0(xi/p^N) phi-hat(p xi) on the refined
    grid, relative to sup |phi-hat|.
    """

    tol: float
    refinement_residual: float
    v0_residual: float
    factorization_residual: float
    inclusion_residual: float
    inclusion_count: InclusionCount

    @property
    def ok(self) -> bool:
        return (
            self.refinement_residual <= self.tol
            and self.v0_residual <= self.tol
            and self.factorization_residual <= self.tol
            and self.inclusion_residual <= self.tol
        )


def _spectra(ws: WaveletSet) -> np.ndarray:
    """Transforms on the frame (N, M+1) of phi, each wavelet and phi(x/p), one column each.

    The wavelets are one batched transform; phi's two columns are Phi0 and
    p^-1 phi-hat(p xi), from phi's own transform. For a valid set their
    joint support is that of phi(x/p): p #L bins.
    """
    p = ws.prime
    hat = fourier(ws.phi).values
    out = np.zeros((p * hat.shape[0], ws.r + 2), dtype=np.complex128)
    out[::p, 0] = hat
    for i, psi in enumerate(ws.wavelets):
        out[:, 1 + i] = psi.values
    out[:, 1:-1] = _fourier_values(out[:, 1:-1], p, ws.period_exp + 1)
    out[:, -1] = np.tile(hat, p) / p
    return out


def _inclusion(ws: WaveletSet, rows: _SupportRows, target_bins: int) -> tuple[float, InclusionCount]:
    """Relative sup residual of phi(x/p - a) through the level-0 translates, with its count.

    With Q the directions of the support rows the span cannot reach
    (_complement), target t misses by -Q Q* t there and by (F^-1 Q)(Q* t) in
    space: Q is transformed once for all p^(N+1) targets, none when d = 0.
    """
    p, N = ws.prime, ws.support_exp
    gens = rows.spectra[:, :-1]
    norms = np.linalg.norm(gens, axis=0)
    gens = gens / np.where(norms > 0, norms, 1.0)
    q = _complement(_translates(gens, rows.phases, p**N), rows.n)
    d = q.shape[1]
    count = InclusionCount(rows.bins.size, target_bins, ws.r * p**N, rows.bins.size - d, d)
    if d == 0:
        return 0.0, count
    reach = q.conj().T @ (rows.spectra[:, -1:] * rows.phases)
    padded = np.zeros((rows.n, d), dtype=np.complex128)
    padded[rows.bins] = q
    basis = _inv_fourier_values(padded, p, N)
    worst = max(_sup(basis @ reach[:, c]) for c in _chunks(reach.shape[1], rows.n))
    return _relative(worst, _sup(ws.phi.values)), count


def _verify(ws: WaveletSet, tol: float) -> tuple[WaveletVerification, _SupportRows]:
    """verify_wavelet_set, with the support rows that frame_bounds reuses.

    The full spectra are dropped once the per-wavelet residuals are read,
    before the inclusion test transforms its misfit basis.
    """
    p, N, M = ws.prime, ws.support_exp, ws.period_exp
    spectra = _spectra(ws)
    rows = _support_rows(spectra, p ** (N + 1))
    target_bins = _support_bins(spectra[:, -1:]).size
    hat = spectra[::p, 0]
    refinement = _relative(_sup(spectra[:, 0] - _factorized(hat, ws.scaling_mask, p, N, M)), _sup(hat))
    v0 = 0.0
    fact = 0.0
    for i, (mk, psi) in enumerate(zip(ws.masks, ws.wavelets)):
        f, o = _wavelet_residuals(ws.phi, hat, mk, psi, spectra[:, 1 + i])
        fact, v0 = max(fact, f), max(v0, o)
    del hat, spectra
    inclusion, count = _inclusion(ws, rows, target_bins)
    return WaveletVerification(tol, refinement, v0, fact, inclusion, count), rows


def verify_wavelet_set(ws: WaveletSet, tol: float | None = None) -> WaveletVerification:
    """Re-check a set from scratch: refinement, orthogonality, factorization, inclusion.

    Refinement: the scaling mask must refine phi (WaveletVerification), the
    MRA premise that the other checks do not read.

    Inclusion: every refined generator phi(x/p - a), a in I_p with
    |a|_p <= p^(N+1), must be expressible through the translates of phi and
    of the wavelets by I_p points of norm at most p^N. The system is solved
    on the support rows, its span columns scaled to unit norm so that the
    rank cut does not drop the phi columns beside much larger wavelet
    columns; the residual is the space-domain sup residual relative to the
    largest target value. The report carries the count behind it.
    """
    tol = ws.tol if tol is None else tol
    check_limits(ws.prime, ws.support_exp + ws.period_exp + 1, tol)
    return _verify(ws, tol)[0]


# --------------------------------------------------------------------------
# Frame bounds


@dataclass
class FrameReport(WaveletVerification):
    """The verification of a set, with the spectral frame bounds of its level-0 translates."""

    A: float
    B: float
    spectrum: np.ndarray
    generator_count: int

    @property
    def ok(self) -> bool:
        return 0 < self.A <= self.B and super().ok


def frame_bounds(ws: WaveletSet, tol: float | None = None) -> FrameReport:
    """Extreme nonzero Gram eigenvalues of {psi_nu(. - k/p^N)}.

    On the span of the system these are exactly the best frame constants:
    with G the Gram matrix and f = sum c_i g_i, sum_i |<f, g_i>|^2 = ||G c||^2
    falls between A c* G c and B c* G c. The nonzero eigenvalues are the
    largest ones, as many as the system's rank at the one rank cut
    (_translates._rank), and A is the smallest of them; redundant systems
    are frames of their span. By Parseval the Gram is read on the same
    support bins as the inclusion test of verify_wavelet_set, which are
    computed once for both.
    """
    tol = ws.tol if tol is None else tol
    p, N, M = ws.prime, ws.support_exp, ws.period_exp
    check_limits(p, N + M + 1, tol)
    verification, rows = _verify(ws, tol)
    # By Plancherel the Gram is p^-N a* a, a the kept-bin translates, so
    # its nonzero eigenvalues are p^-N times the squared singular values.
    a = _translates(rows.spectra[:, 1:-1], rows.phases, p**N)
    sv = np.linalg.svd(a, compute_uv=False)
    power = np.concatenate([sv**2, np.zeros(a.shape[1] - sv.size)])
    spectrum = np.sort(power) * float(p) ** (-N)
    lam_max = float(spectrum[-1]) if spectrum.size else 0.0
    if lam_max <= 0:
        raise PreconditionError("degenerate wavelet set: Gram matrix is zero")
    # sv[0] > 0 clears its own cut, so the rank is at least 1
    rank = _rank(sv, rows.n, a.shape[1])
    return FrameReport(
        **vars(verification),
        A=float(spectrum[-rank]),
        B=lam_max,
        spectrum=np.asarray(spectrum),
        generator_count=a.shape[1],
    )


# --------------------------------------------------------------------------
# The explicit character wavelets on the unit ball


def kozyrev_set(p: int, tol: float = DEFAULT_TOL) -> WaveletSet:
    """The classical character wavelets psi_nu(x) = chi_p(nu x / p) Omega(|x|).

    Built from their masks, taps g_k = exp(2 pi i nu k / p) over the ball
    indicator, then verified through frame_bounds: the set
    must be ok (orthogonal to the ball translates, and the refined ball
    translates phi(x/p - a) in the span of phi and the wavelets), and at
    N = 0 each wavelet has one translate, so the Gram is the wavelets' inner
    products and every eigenvalue within tol of 1 makes them orthonormal.
    """
    check_limits(p, 1, tol)
    phi = omega(p, 0, 0)
    masks = [
        TrigPolynomial.from_taps(
            p, np.exp(2j * np.pi * nu * np.arange(p) / p), scale=0
        )
        for nu in range(1, p)
    ]
    psis = _wavelet_functions(phi, masks, tol, fourier(phi).values)
    ws = WaveletSet(phi, haar_mask(p), psis, masks, tol)
    report = frame_bounds(ws, tol)
    spread = _sup(report.spectrum - 1.0)
    if not report.ok or spread > tol:
        raise VerificationError(
            f"character wavelets are not an orthonormal basis of W_0 "
            f"(inclusion {report.inclusion_residual:.3e}, "
            f"max |lambda - 1| {spread:.3e})"
        )
    return ws


# --------------------------------------------------------------------------
# Multilevel analysis and synthesis


@dataclass
class CoefficientTree:
    """Output of analyze: top-level remainder coefficients and details.

    approx holds the coefficients on the level-j0 scaling translates;
    details[j] has shape (r, p^(N+j)) for j0 <= j < j1. input_residual is
    the distance of the input from the level-j1 truncated space (zero, to
    tolerance, for representable inputs); split_residuals track how exactly
    each level's complement landed in the wavelet span.
    """

    prime: int
    j0: int
    j1: int
    approx: np.ndarray
    details: dict[int, np.ndarray]
    input_residual: float
    split_residuals: dict[int, float]
    frame: tuple[int, int]
    tol: float


def _working_frame(ws: WaveletSet, f: TestFunction, j1: int) -> tuple[int, int]:
    return (max(ws.support_exp, f.support_exp), max(ws.period_exp + 1 + j1, f.period_exp))


def _frame_spectra(funcs: list[TestFunction], frame: tuple[int, int]) -> np.ndarray:
    """Transforms of funcs on frame, one column each: their level-0 spectra."""
    gens = [reframe(f, *frame).values for f in funcs]
    return _fourier_values(np.column_stack(gens), funcs[0].prime, frame[1])


def _dilated(spectra: np.ndarray, p: int, j: int) -> np.ndarray:
    """Spectra of the level-j dilates p^(j/2) g(p^-j x), gathered from level 0.

    spectra holds the level-0 transforms, one column per generator, on the
    working frame. The transform of a dilate at xi is p^(-j/2) g-hat(p^j xi),
    so bin s reads bin p^j s mod n, xi and xi + p^N on a frame (N, M)
    being one coset.
    """
    n = spectra.shape[0]
    return spectra[(p**j * np.arange(n)) % n] * float(p) ** (-j / 2)


class _Levels:
    """The level-j rolls by step of some generators, fitted through level-0 factorizations.

    spectra holds the generators' level-0 transforms (one column each, on
    the working frame), step = p^a, and a level has p^(N+j) rolls. Each
    roll stride r = max(step / p^j, 1) has one level-0 block, factored by
    the first fit that needs it.
    """

    def __init__(self, spectra: np.ndarray, p: int, N: int, step: int) -> None:
        self.spectra, self.p, self.N, self.step = spectra, p, N, step
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}

    def fit(self, y: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-norm fit of the transform y through the level-j rolls, by one level-0 factorization.

        With size = p^j and r = max(step / size, 1), the level-0 block is the
        p^(N+a) / r rolls by r of the generators on their support bins,
        factored once (_factor) by the first level that needs it. Every
        support bin t is a multiple of size, and the level-j bins above it
        are s = (t + q n) / size, q < size. There the roll by k step =
        c + size r m, c < size, is G_j(s) times the twiddle
        exp(2 pi i t c / (size n)), omega^(q c) with omega = exp(2 pi i / size),
        and roll m by r at level 0, where G_j(s) = p^(-j/2) G_0(t). So the DFT
        over q splits y into size mutually orthogonal classes c: class c, its
        twiddle and scale undone, is fitted through the level-0 block, and
        the classes that are not multiples of step hold no roll and stay
        misfit. When step > size only class 0 holds rolls: each level-0
        row is repeated size times. The level's singular values are the
        block's, each repeated max(size / step, 1) times up to one scale, so
        both take the same cut. Returns the coefficients, one row per
        generator, and the transform of the fit.
        """
        p, step, size = self.p, self.step, self.p**j
        r = max(step // size, 1)
        if r not in self._blocks:
            count = p**self.N * step // r
            rows = _support_rows(self.spectra, count, r)
            a = _translates(rows.spectra, rows.phases, count)
            self._blocks[r] = (rows.bins, *_factor(a, rows.n))
        bins, u, sv, vh = self._blocks[r]
        n = y.shape[0]
        s = (bins[None, :] + n * np.arange(size)[:, None]) // size
        c = np.arange(0, size, step)
        twiddle = np.exp(2j * np.pi * ((c[:, None] * bins[None, :]) % (size * n)) / (size * n))
        z = np.conj(twiddle) * _inv_fourier_values(y[s], p, 0)[::step] * float(p) ** (-j / 2)
        w = u.conj().T @ z.T
        x = vh.conj().T @ (w / sv[:, None])
        classes = np.zeros((size, bins.size), dtype=np.complex128)
        classes[::step] = twiddle * (u @ w).T * float(p) ** (j / 2)
        fit = np.zeros_like(y)
        fit[s] = _fourier_values(classes, p, j)
        # row (generator, m) of x, column c / step: coefficient c / step + c.size m
        return x.reshape(self.spectra.shape[1], -1), fit


def analyze(
    f: TestFunction,
    ws: WaveletSet,
    j0: int = 0,
    j1: int = 1,
) -> CoefficientTree:
    """Peel f from level j1 down to j0 through orthogonal projections.

    At each level the orthogonal projection onto the truncated scaling
    space is subtracted and the complement is expanded over the wavelet
    translates; for f in the level-j1 truncated space the round trip with
    synthesize is exact to tolerance. Everything runs on the transform of
    f on the working frame, and every level's spectra are gathered from
    one level-0 transform of phi and the wavelets (_dilated). The
    projections, the details and the level-j0 coefficients, those of the
    last projection, are minimum-norm fits through one SVD of a level-0
    block of phi or of the wavelets per roll stride, made once per call
    and shared by every level (_Levels.fit); nothing is solved by lstsq.
    Refuses (PreconditionError) a phi or wavelet that is identically zero.
    The residuals are space-domain sup norms, read off one inverse
    transform each.
    """
    if f.prime != ws.prime:
        raise PreconditionError(f"mixed primes {ws.prime} and {f.prime}")
    if not 0 <= j0 <= j1:
        raise PreconditionError(f"need 0 <= j0 <= j1, got ({j0}, {j1})")
    frame = _working_frame(ws, f, j1)
    tol = ws.tol
    p, N = ws.prime, ws.support_exp
    check_limits(p, sum(frame), tol)
    # A translate by k/p^N on the working frame is a roll by k step.
    step = p ** (frame[0] - N)
    target = _fourier_values(reframe(f, *frame).values, p, frame[1])
    spectra = _frame_spectra([ws.phi, *ws.wavelets], frame)
    dead = np.flatnonzero(~spectra.any(axis=0))
    if dead.size:
        name = "phi" if dead[0] == 0 else f"wavelet {dead[0] - 1}"
        raise PreconditionError(f"{name} is identically zero: its translates have no support bins")
    phi, wavelets = (_Levels(g, p, N, step) for g in (spectra[:, :1], spectra[:, 1:]))

    approx, y = phi.fit(target, j1)
    input_residual = _sup(_inv_fourier_values(y - target, p, frame[0]))

    details: dict[int, np.ndarray] = {}
    split_residuals: dict[int, float] = {}
    for j in range(j1 - 1, j0 - 1, -1):
        # the coefficients of the last projection are the level-j0 ones
        approx, smooth = phi.fit(y, j)
        residue = y - smooth
        details[j], fit = wavelets.fit(residue, j)
        split_residuals[j] = _sup(_inv_fourier_values(fit - residue, p, frame[0]))
        y = smooth
    return CoefficientTree(
        prime=p,
        j0=j0,
        j1=j1,
        approx=approx[0],
        details=details,
        input_residual=input_residual,
        split_residuals=split_residuals,
        frame=frame,
        tol=tol,
    )


def synthesize(tree: CoefficientTree, ws: WaveletSet) -> TestFunction:
    """Rebuild the function a CoefficientTree describes.

    Each level is one product per generator: the transform of its dilate,
    gathered from one level-0 transform of phi and the wavelets
    (_dilated), times the character sum of its coefficients placed
    every step points.
    """
    if tree.prime != ws.prime:
        raise PreconditionError(f"mixed primes {ws.prime} and {tree.prime}")
    frame = tree.frame
    check_limits(ws.prime, sum(frame), ws.tol)
    p = ws.prime
    step = p ** (frame[0] - ws.support_exp)
    spectra = _frame_spectra([ws.phi, *ws.wavelets] if tree.details else [ws.phi], frame)
    acc = _translate_sum(_dilated(spectra[:, :1], p, tree.j0), np.reshape(tree.approx, (1, -1)), p, step)
    for j, dj in tree.details.items():
        acc += _translate_sum(_dilated(spectra[:, 1:], p, j), np.reshape(dj, (ws.r, -1)), p, step)
    return TestFunction(p, frame[0], frame[1], _inv_fourier_values(acc, p, frame[0]))
