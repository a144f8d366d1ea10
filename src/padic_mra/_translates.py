"""Kernels for systems of translates on a cyclic grid of n points.

V_0, the refinement window, W_0 and the wavelet frame are all systems of
translates, a translate by k/p^N being a roll by k step. On a transform
(test_functions) a roll is the phase exp(2 pi i s k step / n) on bin s,
so count rolls of one generator are a Vandermonde system in the nodes of
its support bins, scaled by its spectrum. Systems are built on the support
bins (_support_rows), where every dropped row is rounding noise in every
column; the transform is unitary up to scale, so in exact arithmetic a
solve there is the full grid's. Its rounding differs, which can move a
residual that sits at tol across it.

Every least-squares solve in the library is _solve, with one rank cut
(_rcond): eps max(n, columns) times the largest singular value, n the full
grid; the mask fit and the shift expansions use it. _factor and
_complement take the same cut on an SVD, for a caller that needs the fits
or the residuals of many right-hand sides, or that solves one block
against many batches of them, as every fit of the multilevel transform
does.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .test_functions import _fourier_values


def _translate_sum(spectra: np.ndarray, coeffs: np.ndarray, p: int, step: int) -> np.ndarray:
    """Transform of sum_i sum_k coeffs[i, k] np.roll(g_i, k * step), spectra[:, i] g_i's.

    Each row of coeffs is placed every step points of a zero vector; the
    sum over its generator's rolls is the spectrum times the character sum
    of the placed coefficients, their transform at period exponent 0.
    """
    count = coeffs.shape[1]
    placed = np.zeros((spectra.shape[0], coeffs.shape[0]), dtype=np.complex128)
    placed[: count * step : step] = coeffs.T
    return np.sum(spectra * _fourier_values(placed, p, 0), axis=1)


class _SupportRows(NamedTuple):
    """Generators' transforms on the bins where they live.

    bins are the kept bins l out of n; phases[i, k] =
    exp(2 pi i bins[i] k step / n) is a roll by k step; spectra holds the
    generators' transforms on those bins, one column each.
    """

    n: int
    bins: np.ndarray
    phases: np.ndarray
    spectra: np.ndarray


# Support floor relative to each generator's largest bin. The rounding in a
# transform comes from the values it is taken of, not from n: zero bins of
# refined phis reached 5,900 eps (p=2, N=11) and 6,900 eps (p=7, N=1, M=3)
# of the peak, and of built wavelet sets 8,100 eps (p=5, N=2), over
# covering and unimodular draws at p <= 7, N <= 11 and n up to 2^17, with
# no growth in M. Genuine bins went down to 8.8e-9 = 4e7 eps (p=2, N=6,
# #L=21). The floor, 2^18 eps = 5.8e-11, sits a factor 32 above the one
# and 150 below the other. Kept, rounding bins break the count and made an
# SVD fail.
_SUPPORT_FLOOR = 2.0**18 * np.finfo(float).eps


def _support_bins(spectra: np.ndarray) -> np.ndarray:
    """The bins where some column of spectra lives.

    A bin is kept when some generator's transform there exceeds
    _SUPPORT_FLOOR times its own largest bin; the rest is rounding.
    Rescaling a generator, or reframing it to a larger grid, keeps the same
    bins.
    """
    mags = np.abs(spectra)
    floor = _SUPPORT_FLOOR * np.max(mags, axis=0)
    return np.nonzero(np.any(mags > floor, axis=1))[0]


def _support_rows(spectra: np.ndarray, count: int, step: int = 1) -> _SupportRows:
    """spectra on their joint support, with the phases of count rolls by step."""
    n = spectra.shape[0]
    bins = _support_bins(spectra)
    k = step * np.arange(count)
    phases = np.exp(2j * np.pi * ((bins[:, None] * k[None, :]) % n) / n)
    return _SupportRows(n, bins, phases, spectra[bins])


def _translates(spectra: np.ndarray, phases: np.ndarray, count: int) -> np.ndarray:
    """Columns spectra[:, i] * phases[:, k], k < count, generator by generator."""
    rows = spectra.shape[0]
    return (spectra[:, :, None] * phases[:, None, :count]).reshape(rows, -1)


def _rcond(n: int, columns: int) -> float:
    """The rank cut of lstsq on all n rows, relative to the largest singular value.

    A solve on fewer rows keeps it: a lower cut would keep directions the full grid drops.
    """
    return np.finfo(float).eps * max(n, columns)


def _rank(s: np.ndarray, n: int, columns: int) -> int:
    return int(np.count_nonzero(s > _rcond(n, columns) * s[0])) if s.size else 0


def _solve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Minimum-norm lstsq of a x = b, a some rows of an n-row system."""
    return np.linalg.lstsq(a, b, rcond=_rcond(n, a.shape[1]))[0]


def _factor(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SVD u, s, vh of a, cut at _solve's rank.

    _solve(a, b, n) is vh* (u* b / s), and its fit of b is u u* b: u spans
    what the solve fits.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = _rank(s, n, a.shape[1])
    return u[:, :rank], s[:rank], vh[:rank]


def _complement(a: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal columns Q spanning what _solve(a, ., n) cannot fit: its residual is -Q Q* b.

    Q is the left singular vectors at or below the cut and beyond a's
    column count. A system of full row rank needs only singular values.
    """
    rows, columns = a.shape
    if rows <= columns and _rank(np.linalg.svd(a, compute_uv=False), n, columns) == rows:
        return np.zeros((rows, 0), dtype=a.dtype)
    u, s, _ = np.linalg.svd(a, full_matrices=rows > columns)
    return u[:, _rank(s, n, columns) :]


def _fit(
    spectra: np.ndarray, y: np.ndarray, count: int, step: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm lstsq of the transform y through rolls by k step, k < count.

    One set of rolls per column of spectra, solved on their support bins.
    Returns the coefficients, one row per generator, and the transform of
    the fit, zero off those bins.
    """
    rows = _support_rows(spectra, count, step)
    a = _translates(rows.spectra, rows.phases, count)
    x = _solve(a, y[rows.bins], rows.n)
    fit = np.zeros_like(y)
    fit[rows.bins] = a @ x
    return x.reshape(spectra.shape[1], -1), fit


# Values per chunk when many right-hand sides are carried to space at once.
_CHUNK_VALUES = 2**20


def _chunks(count: int, size: int) -> list[slice]:
    """Runs of range(count) holding about _CHUNK_VALUES values, each item size values."""
    step = max(1, _CHUNK_VALUES // size)
    return [slice(i, i + step) for i in range(0, count, step)]


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))
