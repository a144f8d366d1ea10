"""Scaling masks and the refinement equation.

A mask is a trigonometric polynomial m(xi) = sum_k c_k chi_p(k xi) in the
additive character chi_p. Because chi_p(k xi) = chi_p(xi)^k, the mask is an
ordinary polynomial P(z) evaluated at z = chi_p(xi), which is what makes
root placement and normalization exact. On the depth-t grid j / p^t the
character only sees k mod p^t, so the mask's values there are one
transform of its coefficients folded mod p^t, and a shallower grid is a
stride of a deeper one.

A scaling mask at scale N has fewer than p^(N+1) taps and m(0) = 1. The
refinable function it determines has transform

    phat(xi) = prod_{t >= 1} m(xi / p^t)

realized here as the finite product over depths t = 1 .. s+N at a point of
norm p^s; factors beyond that depth equal m on Z_p-integers, which is 1.
hat_from_mask and sphere_values read the same depth product. On the
uniform grid the product telescopes exactly: the depth-t product is the
depth-(t-1) product tiled p times, times m(l / p^t), so it costs O(p^t)
with no index arithmetic, the refinement identity holds on the grid by
construction, and every support decision reduces to one sphere of unit
residues. refinable_from_mask builds the product one depth at a time and
stops at the first sphere that vanishes. It applies check_mra's limits
(config.check_limits on the refined frame (N, M+1)) to its output;
hat_from_mask and sphere_values apply them to the grid of the depth
product they build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOL, check_limits, check_tol
from .errors import PreconditionError, SupportViolationError
from .padic_core import PadicRational, character
from ._translates import _SUPPORT_FLOOR
from .test_functions import TestFunction, _fourier_values, inv_fourier, reframe

__all__ = [
    "TrigPolynomial",
    "haar_mask",
    "mask_from_roots",
    "hat_from_mask",
    "refinable_from_mask",
    "support_margin",
    "sphere_values",
]


@dataclass(eq=False)
class TrigPolynomial:
    """m(xi) = sum_k coeffs[k] chi_p(k xi), with an optional scale N.

    taps are the refinement coefficients h_k = p * c_k of the equation
    phi(x) = sum_k h_k phi(x/p - k/p^(N+1)).
    """

    prime: int
    coeffs: np.ndarray
    scale: int | None = None
    _grid_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if c.shape[0] == 0:
            raise ValueError("a trigonometric polynomial needs at least one term")
        if not np.isfinite(c).all():
            raise PreconditionError("mask coefficients must be finite")
        c.setflags(write=False)
        self.coeffs = c

    @classmethod
    def from_taps(
        cls, p: int, taps: Sequence[complex] | np.ndarray, scale: int | None = None
    ) -> "TrigPolynomial":
        return cls(p, np.asarray(taps, dtype=np.complex128) / p, scale)

    @property
    def taps(self) -> np.ndarray:
        return self.prime * self.coeffs

    @property
    def degree(self) -> int:
        """Highest index with a nonzero coefficient; -1 for the zero mask."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1

    def value(self, xi: PadicRational) -> complex:
        if xi.prime != self.prime:
            raise PreconditionError(f"mixed primes {self.prime} and {xi.prime}")
        z = character(xi)
        return complex(np.polynomial.polynomial.polyval(z, self.coeffs))

    def values_on_depth_grid(self, t: int) -> np.ndarray:
        """m(j / p^t) for j = 0 .. p^t - 1 (cached per depth).

        chi_p(k j / p^t) only sees k mod p^t, so the grid is the transform
        of the coefficients folded mod p^t. m(j / p^t) = m(j p / p^(t+1)):
        a grid cached at a deeper depth is strided instead.
        """
        if t not in self._grid_cache:
            p = self.prime
            deeper = [d for d in self._grid_cache if d > t]
            if deeper:
                d = min(deeper)
                vals = self._grid_cache[d][:: p ** (d - t)]
            else:
                n = p**t
                folded = np.zeros(-(-self.coeffs.size // n) * n, dtype=np.complex128)
                folded[: self.coeffs.size] = self.coeffs
                vals = _fourier_values(folded.reshape(-1, n).sum(axis=0), p, 0)
            self._cache_grid(t, vals)
        return self._grid_cache[t]

    def _cache_grid(self, t: int, vals: np.ndarray) -> None:
        """Keep vals, read-only, as m(j / p^t) for j = 0 .. p^t - 1."""
        vals.setflags(write=False)
        self._grid_cache[t] = vals

    def at_one(self) -> complex:
        """m(0) = P(1) = sum of coefficients."""
        return complex(np.sum(self.coeffs))

    def __repr__(self) -> str:
        return (
            f"TrigPolynomial(p={self.prime}, degree={self.degree}, "
            f"scale={self.scale})"
        )


def _require_scaling_mask(m: TrigPolynomial, tol: float) -> int:
    check_tol(tol)
    if m.scale is None:
        raise PreconditionError("mask has no scale N attached")
    N = m.scale
    if len(m.coeffs) > m.prime ** (N + 1):
        raise PreconditionError(
            f"mask has {len(m.coeffs)} taps, more than p^(N+1) = "
            f"{m.prime ** (N + 1)} at scale N = {N}"
        )
    if abs(m.at_one() - 1.0) > tol:
        raise PreconditionError(
            f"not a scaling mask: m(0) = {m.at_one():.6g}, expected 1"
        )
    return N


def haar_mask(p: int) -> TrigPolynomial:
    """The mask of the unit-ball indicator: p taps equal to 1 at scale 0."""
    return TrigPolynomial.from_taps(p, np.ones(p), scale=0)


def mask_from_roots(
    p: int, scale: int, zeros: Sequence[PadicRational]
) -> TrigPolynomial:
    """Minimal-degree scaling mask vanishing exactly at the given points.

    Zeros are prescribed through their characters, so two points with the
    same fractional part are the same zero; that and a zero at a p-adic
    integer (character 1, which would contradict m(0) = 1) are rejected.
    """
    if len(zeros) > p ** (scale + 1) - 1:
        raise PreconditionError(
            f"{len(zeros)} zeros exceed the degree budget p^(N+1)-1 = "
            f"{p ** (scale + 1) - 1}"
        )
    # Equal characters are equal fractional parts (z.num mod p^exp) / p^exp,
    # in lowest terms as z is.
    phases: set[tuple[int, int]] = set()
    for z in zeros:
        if z.prime != p:
            raise PreconditionError(f"zero {z} has prime {z.prime}, expected {p}")
        phase = (z.num % p**z.exp, z.exp)
        if phase[0] == 0:
            raise PreconditionError(f"zero at {z} is a p-adic integer; m(0) = 1 forbids it")
        if phase in phases:
            raise PreconditionError(f"duplicate zero character at {z}")
        phases.add(phase)
    poly = np.array([1.0 + 0j])
    for z in zeros:
        poly = np.convolve(poly, np.array([-character(z), 1.0 + 0j]))
    poly = poly / np.sum(poly)  # P(1) != 0 exactly, since no zero has character 1
    return TrigPolynomial(p, poly, scale)


def _deepen(m: TrigPolynomial, prod: np.ndarray, t: int) -> np.ndarray:
    """The depth-t product from prod, the depth-(t-1) one.

    Each factor m(l / p^s) with s < t only sees l modulo p^(t-1), so prod
    repeats p times.
    """
    return np.tile(prod, m.prime) * m.values_on_depth_grid(t)


def _depth_product(m: TrigPolynomial, depth: int) -> np.ndarray:
    """prod_{t=1..depth} m(l / p^t) for l = 0 .. p^depth - 1.

    The deepest grid is evaluated first: the shallower ones are its strides.
    """
    m.values_on_depth_grid(depth)
    vals = np.ones(1, dtype=np.complex128)
    for t in range(1, depth + 1):
        vals = _deepen(m, vals, t)
    return vals


def _units(m: TrigPolynomial, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residues u prime to p among the indices of vals, and vals[u]."""
    units = np.arange(vals.shape[0]).reshape(-1, m.prime)[:, 1:].ravel()
    return units, vals[units]


def _margin(
    m: TrigPolynomial, sphere_exp: int, units: np.ndarray, vals: np.ndarray, tol: float
) -> tuple[bool, PadicRational, float]:
    """support_margin's verdict on the sphere p^sphere_exp given its values."""
    mags = np.abs(vals)
    worst = int(np.argmax(mags))
    witness = PadicRational(m.prime, int(units[worst]), sphere_exp)
    return bool(mags[worst] <= tol), witness, float(mags[worst])


def hat_from_mask(m: TrigPolynomial, period_exp: int, tol: float = DEFAULT_TOL) -> TestFunction:
    """Transform of the refinable function, as an element of D_M^N.

    The value at l/p^M is the depth product prod_{t=1..M+N} m(l / p^t); the
    factors a deeper point would add are m at integers, i.e. exactly 1.
    """
    N = _require_scaling_mask(m, tol)
    M = period_exp
    if M + N < 0:
        raise PreconditionError(f"frame ({N}, {M}) has N + M < 0")
    check_limits(m.prime, M + N, tol)
    return TestFunction(m.prime, M, N, _depth_product(m, M + N))


def sphere_values(
    m: TrigPolynomial, sphere_exp: int, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate transform on the sphere |xi| = p^s: units u, values at u/p^s.

    Returns (units, values) with u running over the residues prime to p
    modulo p^(s+N). Independent of any declared Fourier support; used to
    decide and to audit support claims.
    """
    N = _require_scaling_mask(m, tol)
    s = sphere_exp
    if s + N < 1:
        raise PreconditionError(
            f"sphere exponent {s} lies inside B_{-N}, where the product is 1"
        )
    check_limits(m.prime, s + N, tol)
    return _units(m, _depth_product(m, s + N))


def support_margin(
    m: TrigPolynomial, period_exp: int, tol: float = DEFAULT_TOL
) -> tuple[bool, PadicRational, float]:
    """Decide supp phat within B_M by one sphere of unit residues.

    The product over depths t <= s+N at u/p^s only sees u modulo p^t, so a
    vanishing sphere M+1 forces vanishing on every deeper sphere: deeper
    units reduce to sphere-(M+1) units with the same leading factors.
    Returns (ok, extremal point, max |value| on the sphere).
    """
    units, vals = sphere_values(m, period_exp + 1, tol)
    return _margin(m, period_exp + 1, units, vals, tol)


def refinable_from_mask(
    m: TrigPolynomial,
    period_exp: int,
    tol: float = DEFAULT_TOL,
) -> TestFunction:
    """Solve the refinement equation for phi in D_N^M, or refuse.

    At the first sphere p^s, s <= M, whose units are at most tol and
    _SUPPORT_FLOOR times the depth product's peak, phi is solved on (N, s-1)
    and tiled to (N, M). Covering the units first at depth s+N takes
    (p-1)(s+N) of m's < p^(N+1) zeros, so no depth past (p^(N+1)-1)/(p-1) is
    probed. Else SupportViolationError (with the extremal sphere point) is
    raised when the product does not vanish on the sphere p^(M+1). The
    refined frame (N, M+1) that check_mra builds must fit the grid cap.
    """
    N = _require_scaling_mask(m, tol)
    M = period_exp
    if M + N < 0:
        raise PreconditionError(f"frame ({N}, {M}) has N + M < 0")
    check_limits(m.prime, N + M + 1, tol)
    p = m.prime
    covered = (p ** (N + 1) - 1) // (p - 1)
    # one mask grid, strided for the shallower depths; N+M+1 too past the probes
    m.values_on_depth_grid(min(N + M + 1, covered))
    hat = np.ones(1, dtype=np.complex128)
    for t in range(1, N + M + 2):
        if t == covered + 1:
            m.values_on_depth_grid(N + M + 1)
        # depth t holds the sphere p^(t-N): the entries of deeper off p Z
        deeper = _deepen(m, hat, t)
        if t - N > M:
            break
        if N < t <= covered:
            mags = np.abs(deeper)
            if mags.reshape(-1, p)[:, 1:].max() <= min(tol, _SUPPORT_FLOOR * mags.max()):
                return reframe(inv_fourier(TestFunction(p, t - N - 1, N, hat)), N, M)
        hat = deeper
    ok, witness, worst = _margin(m, M + 1, *_units(m, deeper), tol)
    if not ok:
        raise SupportViolationError(witness, worst)
    return inv_fourier(TestFunction(p, M, N, hat))
