"""Finite model of locally constant, compactly supported functions on Q_p.

A function in the space D_N^M is supported in the ball B_N(0) and constant
on cosets of p^M Z_p. It is stored as the vector of its p^(N+M) values on
the cosets a/p^N + p^M Z_p, 0 <= a < p^(N+M), listed by the integer a.
Negative N or M are allowed as long as N + M >= 0.

The pair (N, M) is a declared frame, not an intrinsic property: re-framing
to any larger frame changes the storage, never a pointwise value. All frame
bookkeeping below reduces to exact integer index arithmetic; the derivations
rely only on x -> x * p^N being a bijection of the grid onto Z mod p^(N+M).

The transform here is the additive-character integral with Haar measure
normalized so that Z_p has measure 1. It maps D_N^M onto D_M^N and is
computed by the FFT; the tests hold it against an exact character-sum
oracle. Its sign and scale live here and nowhere else: every spectrum in
the library is taken by _fourier_values and inverted by _inv_fourier_values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOL
from .errors import PreconditionError
from .padic_core import PadicRational, PrimeMismatchError

__all__ = [
    "TestFunction",
    "omega",
    "zero_function",
    "evaluate",
    "reframe",
    "common_frame",
    "shift",
    "dilate",
    "lincomb",
    "inner_product",
    "norm_l2",
    "fourier",
    "inv_fourier",
    "allclose",
]

@dataclass(eq=False)
class TestFunction:
    """Values of a function in D_N^M on its canonical coset grid."""

    # the name collides with pytest's collection heuristic
    __test__ = False

    prime: int
    support_exp: int
    period_exp: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.support_exp + self.period_exp < 0:
            raise PreconditionError(
                f"invalid frame ({self.support_exp}, {self.period_exp}): N + M < 0"
            )
        vals = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        n = self.prime ** (self.support_exp + self.period_exp)
        if vals.shape[0] != n:
            raise ValueError(
                f"expected {n} values for frame "
                f"({self.support_exp}, {self.period_exp}), got {vals.shape[0]}"
            )
        if not np.isfinite(vals).all():
            raise PreconditionError("function values must be finite")
        vals.setflags(write=False)
        self.values = vals

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def frame(self) -> tuple[int, int]:
        return (self.support_exp, self.period_exp)

    def grid_points(self) -> list[PadicRational]:
        """The coset representatives a/p^N, in index order."""
        N = self.support_exp
        return [PadicRational(self.prime, a, N) for a in range(self.n)]

    def __repr__(self) -> str:
        return (
            f"TestFunction(p={self.prime}, frame=({self.support_exp}, "
            f"{self.period_exp}), n={self.n})"
        )


def _check_same_prime(f: TestFunction, other_prime: int) -> None:
    if f.prime != other_prime:
        raise PrimeMismatchError(f"mixed primes {f.prime} and {other_prime}")


def omega(p: int, support_exp: int = 0, period_exp: int = 0) -> TestFunction:
    """Indicator of the unit ball Z_p, framed in D_N^M."""
    N, M = support_exp, period_exp
    n = p ** (N + M)
    if N <= 0:
        vals = np.ones(n)
    else:
        vals = (np.arange(n) % p**N == 0).astype(np.complex128)
    return TestFunction(p, N, M, vals)


def zero_function(p: int, support_exp: int, period_exp: int) -> TestFunction:
    n = p ** (support_exp + period_exp)
    return TestFunction(p, support_exp, period_exp, np.zeros(n))


def evaluate(f: TestFunction, x: PadicRational) -> complex:
    """Pointwise value f(x); zero outside B_N(0)."""
    _check_same_prime(f, x.prime)
    N = f.support_exp
    if N >= 0:
        scaled = x * f.prime**N
    else:
        scaled = x * PadicRational(f.prime, 1, -N)
    if scaled.exp > 0:
        # |x|_p > p^N lies outside the declared support.
        return 0j
    return complex(f.values[scaled.num % f.n])


def reframe(f: TestFunction, support_exp: int, period_exp: int) -> TestFunction:
    """Represent f on the larger frame (N2, M2). Pointwise values are kept."""
    N, M = f.frame
    N2, M2 = support_exp, period_exp
    if N2 < N or M2 < M:
        raise PreconditionError(
            f"cannot shrink frame ({N}, {M}) to ({N2}, {M2})"
        )
    if (N2, M2) == (N, M):
        return f
    step = f.prime ** (N2 - N)
    n2 = f.prime ** (N2 + M2)
    idx = np.arange(n2)
    out = np.where(idx % step == 0, f.values[(idx // step) % f.n], 0)
    return TestFunction(f.prime, N2, M2, out)


def common_frame(f: TestFunction, g: TestFunction) -> tuple[TestFunction, TestFunction]:
    _check_same_prime(f, g.prime)
    N = max(f.support_exp, g.support_exp)
    M = max(f.period_exp, g.period_exp)
    return reframe(f, N, M), reframe(g, N, M)


def shift(f: TestFunction, b: PadicRational | int) -> TestFunction:
    """The translate x -> f(x - b)."""
    if isinstance(b, int):
        b = PadicRational(f.prime, b, 0)
    _check_same_prime(f, b.prime)
    N, M = f.frame
    N2 = max(N, b.exp)
    offset = b.num * f.prime ** (N2 - b.exp)
    step = f.prime ** (N2 - N)
    n2 = f.prime ** (N2 + M)
    t = np.arange(n2) - offset
    out = np.where(t % step == 0, f.values[(t // step) % f.n], 0)
    return TestFunction(f.prime, N2, M, out)


def dilate(f: TestFunction, j: int, normalized: bool = False) -> TestFunction:
    """The dilate x -> f(p^j x), mapping D_N^M to D_(N+j)^(M-j).

    The value vector is reinterpreted on the new frame unchanged; with
    normalized=True it is scaled by p^(-j/2) so the L2 norm is preserved.
    """
    N, M = f.frame
    vals = f.values
    if normalized:
        vals = vals * float(f.prime) ** (-j / 2)
    return TestFunction(f.prime, N + j, M - j, vals)


def lincomb(
    coeffs: Sequence[complex] | np.ndarray, funcs: Iterable[TestFunction]
) -> TestFunction:
    funcs = list(funcs)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(funcs) == 0 or coeffs.shape[0] != len(funcs):
        raise ValueError("need one coefficient per function, at least one")
    N = max(f.support_exp for f in funcs)
    M = max(f.period_exp for f in funcs)
    acc = np.zeros(funcs[0].prime ** (N + M), dtype=np.complex128)
    for c, f in zip(coeffs, funcs):
        acc += c * reframe(f, N, M).values
    return TestFunction(funcs[0].prime, N, M, acc)


def inner_product(f: TestFunction, g: TestFunction) -> complex:
    """<f, g> = integral of f * conj(g); each coset carries measure p^-M."""
    f2, g2 = common_frame(f, g)
    M = f2.period_exp
    return complex(float(f2.prime) ** (-M) * np.vdot(g2.values, f2.values))


def norm_l2(f: TestFunction) -> float:
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


def _fourier_values(values: np.ndarray, p: int, M: int) -> np.ndarray:
    """Transform of each column, a function on a frame (N, M).

    Row l is p^-M * sum_a values[a] exp(2 pi i l a / n), n the row count.
    The scale multiplies the FFT's own output in place.
    """
    out = np.fft.ifft(values, axis=0)
    out *= float(p) ** (-M) * values.shape[0]
    return out


def _inv_fourier_values(values: np.ndarray, p: int, P: int) -> np.ndarray:
    """Inverse of _fourier_values for each column, a transform on a frame (S, P)."""
    out = np.fft.fft(values, axis=0)
    out *= float(p) ** (-P)
    return out


def fourier(f: TestFunction) -> TestFunction:
    """Additive-character transform, D_N^M -> D_M^N.

    The value at l/p^M is p^-M * sum_a f_a exp(2 pi i l a / n).
    """
    N, M = f.frame
    return TestFunction(f.prime, M, N, _fourier_values(f.values, f.prime, M))


def inv_fourier(g: TestFunction) -> TestFunction:
    """Inverse transform, D_S^P -> D_P^S; round-trips with fourier exactly."""
    S, P = g.frame
    return TestFunction(g.prime, P, S, _inv_fourier_values(g.values, g.prime, P))


def allclose(f: TestFunction, g: TestFunction, tol: float = DEFAULT_TOL) -> bool:
    """Sup-norm agreement after moving both to the common frame."""
    f2, g2 = common_frame(f, g)
    return bool(np.max(np.abs(f2.values - g2.values), initial=0.0) <= tol)
