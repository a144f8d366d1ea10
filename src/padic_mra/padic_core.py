"""Exact arithmetic in Z[1/p] and the additive character of Q_p.

Every point this library touches (grid nodes l/p^M, translations k/p^N,
mask arguments) lies in the ring Z[1/p] of p-adic rationals, so indexing
stays exact integer arithmetic end to end. Floating point enters only when
a character value exp(2*pi*i*theta) is materialized; the phase theta itself
is exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .config import is_prime

__all__ = [
    "PadicRational",
    "PrimeMismatchError",
    "character",
    "character_phase",
    "enumerate_Ip_ball",
    "parse_rational",
]


class PrimeMismatchError(ValueError):
    """Raised when operands carry different primes."""


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True, order=False)
class PadicRational:
    """A number a / p^e in canonical form: e == 0, or p does not divide a.

    Zero is canonically (0, 0). The class is immutable and hashable, so
    instances can key caches and sets.
    """

    prime: int
    num: int
    exp: int = 0

    def __post_init__(self) -> None:
        _check_prime(self.prime)
        a, e = self.num, self.exp
        if a == 0:
            a, e = 0, 0
        else:
            while e > 0 and a % self.prime == 0:
                a //= self.prime
                e -= 1
            if e < 0:
                a *= self.prime ** (-e)
                e = 0
        object.__setattr__(self, "num", a)
        object.__setattr__(self, "exp", e)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other: "PadicRational | int") -> "PadicRational":
        if isinstance(other, int):
            return PadicRational(self.prime, other, 0)
        if not isinstance(other, PadicRational):
            raise TypeError(f"cannot combine PadicRational with {type(other).__name__}")
        if other.prime != self.prime:
            raise PrimeMismatchError(
                f"mixed primes {self.prime} and {other.prime}"
            )
        return other

    def __add__(self, other: "PadicRational | int") -> "PadicRational":
        o = self._coerce(other)
        p = self.prime
        e = max(self.exp, o.exp)
        a = self.num * p ** (e - self.exp) + o.num * p ** (e - o.exp)
        return PadicRational(p, a, e)

    __radd__ = __add__

    def __neg__(self) -> "PadicRational":
        return PadicRational(self.prime, -self.num, self.exp)

    def __sub__(self, other: "PadicRational | int") -> "PadicRational":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "PadicRational | int") -> "PadicRational":
        return (-self) + other

    def __mul__(self, other: "PadicRational | int") -> "PadicRational":
        o = self._coerce(other)
        return PadicRational(self.prime, self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    # -- p-adic structure ----------------------------------------------------

    @property
    def valuation(self) -> float:
        """v_p(x); +inf for zero."""
        if self.num == 0:
            return math.inf
        v = 0
        a = self.num
        while a % self.prime == 0:
            a //= self.prime
            v += 1
        return v - self.exp

    def norm(self) -> float:
        """|x|_p = p^(-v_p(x)); 0 for zero."""
        if self.num == 0:
            return 0.0
        return float(self.prime) ** (-self.valuation)

    def frac_part(self) -> "PadicRational":
        """{x}_p: the fractional part, in [0, 1) and zero iff x is in Z_p.

        For a/p^e in canonical form this is (a mod p^e) / p^e; the digits of
        negative x wrap, e.g. {-1/2}_2 = 1/2.
        """
        if self.exp == 0:
            return PadicRational(self.prime, 0, 0)
        pe = self.prime**self.exp
        return PadicRational(self.prime, self.num % pe, self.exp)

    def is_integer(self) -> bool:
        """True iff x lies in Z_p, i.e. |x|_p <= 1."""
        return self.exp == 0

    def is_in_Ip(self) -> bool:
        """True iff x lies in I_p = Z[1/p] intersected with [0, 1)."""
        return self == self.frac_part()

    # -- conversions ---------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.prime**self.exp)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{self.prime}^{self.exp}"

    def __repr__(self) -> str:
        return f"PadicRational(p={self.prime}, {self})"


def character_phase(x: PadicRational) -> Fraction:
    """Exact phase of the additive character: chi_p(x) = exp(2*pi*i*phase)."""
    return x.frac_part().as_fraction()


def character(x: PadicRational) -> complex:
    """The additive character chi_p(x) = exp(2*pi*i*{x}_p).

    {x}_p = (num mod p^exp) / p^exp, whose float is the correctly rounded quotient.
    """
    den = x.prime**x.exp
    return cmath.exp(2j * math.pi * (x.num % den / den)) if x.num % den else 1.0 + 0.0j


def enumerate_Ip_ball(p: int, N: int) -> list[PadicRational]:
    """All points of I_p with |x|_p <= p^N, i.e. k/p^N for 0 <= k < p^N.

    N <= 0 yields just zero (the only element of I_p inside Z_p).
    """
    _check_prime(p)
    if N <= 0:
        return [PadicRational(p, 0, 0)]
    return [PadicRational(p, k, N) for k in range(p**N)]


def parse_rational(p: int, token: str) -> PadicRational:
    """Parse 'a', 'a/b' with b a power of p, 'a/p^e', or 'a/<p>^e'.

    Negative e is folded into the numerator. Raises ValueError naming the
    offending token.
    """
    _check_prime(p)
    text = token.strip()
    try:
        if "/" not in text:
            return PadicRational(p, int(text), 0)
        num_s, den_s = text.split("/", 1)
        num = int(num_s)
        den_s = den_s.strip()
        if den_s.startswith("p^"):
            return PadicRational(p, num, int(den_s[2:]))
        if den_s == "p":
            return PadicRational(p, num, 1)
        if den_s.startswith(f"{p}^"):
            return PadicRational(p, num, int(den_s.split("^", 1)[1]))
        den = int(den_s)
        if den <= 0:
            raise ValueError
        e = 0
        while den % p == 0:
            den //= p
            e += 1
        if den != 1:
            raise ValueError
        return PadicRational(p, num, e)
    except ValueError:
        raise ValueError(
            f"cannot parse {token!r} as a p-adic rational for p={p}: "
            f"expected 'a', 'a/b' with b a power of {p}, or 'a/p^e'"
        ) from None
