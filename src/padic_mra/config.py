"""Shared numeric policy and the one check of a job's limits."""

from __future__ import annotations

import math
import os

from .errors import PreconditionError

# One global comparison tolerance. Every verdict in the library compares a
# residual against this unless the caller overrides it per call.
DEFAULT_TOL: float = 1e-9

# Hard ceiling on grid sizes p^(N+M), overridable through the environment.
GRID_CAP_ENV: str = "PADIC_MRA_GRID_CAP"
DEFAULT_GRID_CAP: int = 10**6

# Primes beyond this are refused; nothing in the verification suite is
# calibrated past it.
MAX_PRIME: int = 17


def grid_cap() -> int:
    """Active grid-point ceiling (environment override wins)."""
    raw = os.environ.get(GRID_CAP_ENV)
    if raw is None:
        return DEFAULT_GRID_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{GRID_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{GRID_CAP_ENV} must be positive, got {value}")
    return value


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    if p > MAX_PRIME:
        raise PreconditionError(f"p = {p} exceeds the supported maximum {MAX_PRIME}")


def check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"tolerance must be positive and finite, got {tol}")


def check_limits(p: int, grid_exp: int, tol: float) -> None:
    """Refuse a job whose prime, tolerance or largest grid p^grid_exp is out of range.

    Every entry point that builds a grid calls this once with the exponent
    of the largest grid it builds.
    """
    check_prime(p)
    check_tol(tol)
    cap = grid_cap()
    if p**grid_exp > cap:
        raise PreconditionError(
            f"grid p^{grid_exp} = {p**grid_exp} exceeds the grid cap {cap}"
        )
