"""Randomized instance builders for surveys and the verification suite.

Two families matter:

  * covering masks: scaling masks guaranteed to admit a solution with
    Fourier support in B_M. The unit residues mod p^(N+M+1) are covered by
    congruence classes, each handled by one prescribed zero (a zero at
    l/p^t kills every unit u = l mod p^t in the depth product), within the
    degree budget p^(N+1)-1. Random split/place choices vary how many grid
    residues survive, so both sides of the #L <= p^N criterion occur.
  * unimodular-pattern masks: masks prescribed on the depth-(N+1) grid to
    be 0 at unit arguments and unimodular elsewhere (1 at 0). The depth
    product then has modulus one on the integer grid and vanishes on the
    first sphere, which is the classical pattern for orthonormal translate
    systems.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL, check_limits
from .errors import PreconditionError
from .masks import TrigPolynomial, mask_from_roots, support_margin
from .padic_core import PadicRational
from .test_functions import TestFunction, _inv_fourier_values

__all__ = [
    "random_covering_mask",
    "random_unimodular_mask",
    "random_noise_mask",
    "random_function",
]

# Chance that random_covering_mask refines a pending congruence class
# instead of placing a zero at its depth, when the budget allows both.
_SPLIT_PROB = 0.55


def random_covering_mask(
    rng: np.random.Generator,
    p: int,
    scale: int,
    period_exp: int,
) -> TrigPolynomial:
    """A scaling mask whose refinable solution fits in D_N^M, by covering.

    Pending congruence classes start at the units mod p; each is either
    assigned a zero at its depth or split into its p refinements, subject
    to the budget (every pending class still needs at least one zero).
    """
    N, M = scale, period_exp
    max_depth = N + M + 1
    # support_margin's sphere grid p^(N+M+1) is the largest built here. A
    # refusal must surface, not be swallowed as a redraw below.
    check_limits(p, max_depth, DEFAULT_TOL)
    # At p = 5, N = 2 only about one draw in eight is clean, so 64 tries
    # would refuse about one call in 6000; 1024 make that 1e-60.
    for _ in range(1024):
        budget = p ** (N + 1) - 1
        pending: list[tuple[int, int]] = [(r, 1) for r in range(1, p)]
        roots: list[PadicRational] = []
        while pending:
            r, t = pending.pop()
            # Splitting turns one pending class into p; every pending class
            # still needs a zero, so the budget must cover len(pending) + p.
            can_split = t < max_depth and budget >= len(pending) + p
            if can_split and rng.random() < _SPLIT_PROB:
                pending.extend((r + j * p**t, t + 1) for j in range(p))
            else:
                roots.append(PadicRational(p, r, t))
                budget -= 1
        mask = mask_from_roots(p, N, roots)
        # Deep roots inflate the expanded coefficients, and the rounding
        # they carry can push the prescribed sphere zeros above the support
        # tolerance, or m(0) off 1 by more than it. Redraw instead of
        # shipping a marginal instance.
        try:
            ok, _, worst = support_margin(mask, M)
        except PreconditionError:
            continue
        if ok and worst <= 1e-3 * DEFAULT_TOL:
            return mask
    raise RuntimeError("could not draw a numerically clean covering mask")


def random_unimodular_mask(
    rng: np.random.Generator, p: int, scale: int
) -> TrigPolynomial:
    """A mask with |m| = 1 at p-divisible depth-(N+1) grid points, 0 at units."""
    N = scale
    n = p ** (N + 1)
    values = np.zeros(n, dtype=np.complex128)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n // p)
    phases[0] = 0.0  # m(0) = 1
    values[::p] = np.exp(1j * phases)
    # the grid values are the transform of the coefficients
    coeffs = _inv_fourier_values(values, p, N + 1)
    return TrigPolynomial(p, coeffs, scale=N)


def random_noise_mask(rng: np.random.Generator, p: int, scale: int) -> TrigPolynomial:
    """A generic mask with m(0) = 1 and no support guarantee whatsoever."""
    N = scale
    n_terms = int(rng.integers(2, p ** (N + 1) + 1))
    coeffs = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    total = coeffs.sum()
    if abs(total) < 1e-3:
        coeffs[0] += 1.0
        total = coeffs.sum()
    return TrigPolynomial(p, coeffs / total, scale=N)


def random_function(
    rng: np.random.Generator, p: int, support_exp: int, period_exp: int
) -> TestFunction:
    n = p ** (support_exp + period_exp)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return TestFunction(p, support_exp, period_exp, vals)
