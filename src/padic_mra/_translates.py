"""Kernels for systems of translates on a cyclic grid of n points.

V_0, the refinement window, W_0 and the wavelet frame are all systems of
translates, a translate by k/p^N being a roll by k step. On a transform
(test_functions) a roll is the phase exp(2 pi i s k step / n) on bin s,
so count rolls of one generator are a Vandermonde system in the nodes of
its support bins, scaled by its spectrum. Systems are built by an index
gather (_roll_columns) or on the support bins (_support_rows), where every
dropped row is rounding noise in every column; the transform is unitary up
to scale, so in exact arithmetic a solve there is the full grid's. Its
rounding differs, which can move a residual that sits at tol across it.

Every least-squares solve in the library is _solve, with one rank cut:
eps max(n, columns) times the largest singular value, n the full grid.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .test_functions import _fourier_values


def _roll_columns(values: np.ndarray, count: int) -> np.ndarray:
    """Matrix whose column k is np.roll(values, k), for 0 <= k < count."""
    idx = np.arange(values.shape[0])
    return values[(idx[:, None] - np.arange(count)[None, :]) % values.shape[0]]


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


def _support_bins(spectra: np.ndarray) -> np.ndarray:
    """The bins where some column of spectra lives.

    A bin is kept when some generator's transform there exceeds n eps times
    that generator's own largest bin; everything below is rounding noise of
    the FFT. The floor is relative to each generator, so rescaling any of
    them by a constant keeps the same bins.
    """
    n = spectra.shape[0]
    mags = np.abs(spectra)
    floor = n * np.finfo(float).eps * np.max(mags, axis=0)
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


def _solve(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Minimum-norm lstsq of a x = b, a holding some of the rows of an n-row system.

    The rank cut is the one lstsq takes on the full system, eps max(n,
    columns) times the largest singular value, not eps max(rows, columns):
    a lower cut would keep directions that the full-grid solve treats as
    noise.
    """
    rcond = np.finfo(float).eps * max(n, a.shape[1])
    return np.linalg.lstsq(a, b, rcond=rcond)[0]


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


def _project(y: np.ndarray, spectrum: np.ndarray, count: int, step: int) -> np.ndarray:
    """Orthogonal projection of the transform y onto count rolls by step of one generator.

    On the generator's support bins B the rolls are the rows G(s) z_s^k with
    nodes z_s = exp(2 pi i s step / n). When the nodes are distinct and
    |B| <= count, that Vandermonde system has full row rank, so the rolls
    span every vector on B and the projection is the band of y on B.
    Otherwise it is the lstsq fit on B.
    """
    bins = _support_bins(spectrum)
    if bins.size > count or np.unique(bins % (y.shape[0] // step)).size < bins.size:
        return _fit(spectrum, y, count, step)[1]
    out = np.zeros_like(y)
    out[bins] = y[bins]
    return out


def _sup(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))
