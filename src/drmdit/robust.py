"""Median/MAD statistics, robust correlation, robust and classical
Mahalanobis distances over latent batches.

The robust correlation matrix deliberately keeps its natural diagonal
(about 2.2 for Gaussian columns) instead of rescaling to 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .ndmath import RIDGE_EPSILON, ridge_inverse

MAD_FLOOR = 1e-6


@dataclass(frozen=True)
class RobustLatentStats:
    """Median/MAD location-scale snapshot plus the robust correlation matrix.

    All fields come from one batch (no mixing of snapshots).
    """

    medians: np.ndarray  # (k,)
    mads: np.ndarray  # (k,), each >= MAD_FLOOR
    corr: np.ndarray  # (k, k)
    corr_inv: np.ndarray  # (k, k)


@dataclass(frozen=True)
class ClassicalStats:
    """Mean/covariance counterpart used by the MD baseline scoring mode."""

    means: np.ndarray
    cov: np.ndarray
    cov_inv: np.ndarray


def median_mad(x):
    """Per-column medians of x and median absolute deviations from them,
    each MAD clamped below at MAD_FLOOR. Returns (medians, mads)."""
    medians = np.median(x, axis=0)
    deviations = x - medians
    np.abs(deviations, out=deviations)
    return medians, np.maximum(np.median(deviations, axis=0), MAD_FLOOR)


def mad(values):
    """Median absolute deviation from the median, clamped below at MAD_FLOOR."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ParameterError("mad of empty input")
    return float(median_mad(v)[1])


def robust_correlation(latents, ridge_epsilon=RIDGE_EPSILON) -> RobustLatentStats:
    """Median/MAD stats and the robust correlation matrix of a latent batch.

    corr[i, j] = mean_n[(Z[n,i] - med_i) * (Z[n,j] - med_j)] / (MAD_i * MAD_j)
    with the plain 1/N batch mean. The diagonal is left as the formula
    produces.
    """
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2:
        raise ParameterError(f"latents must be 2-d, got shape {z.shape}")
    n, k = z.shape
    if n < 2:
        raise ParameterError(f"need at least 2 rows for robust stats, got {n}")
    medians, mads = median_mad(z)
    centered = z - medians
    corr = (centered.T @ centered) / n / np.outer(mads, mads)
    corr = 0.5 * (corr + corr.T)
    corr_inv = ridge_inverse(corr, ridge_epsilon)
    return RobustLatentStats(medians=medians, mads=mads, corr=corr, corr_inv=corr_inv)


def classical_stats(latents, ridge_epsilon=RIDGE_EPSILON) -> ClassicalStats:
    """Mean and (biased, 1/N) covariance of a latent batch."""
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ParameterError(f"need an N>=2 x k latent matrix, got shape {z.shape}")
    means = z.mean(axis=0)
    centered = z - means
    cov = (centered.T @ centered) / z.shape[0]
    cov = 0.5 * (cov + cov.T)
    return ClassicalStats(means=means, cov=cov, cov_inv=ridge_inverse(cov, ridge_epsilon))


def _md(latents, location, inv):
    z = np.asarray(latents, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != location.shape[0]:
        raise ParameterError(
            f"latent shape {z.shape} does not match stats dimension {location.shape[0]}"
        )
    delta = z - location
    q = np.einsum("ni,ij,nj->n", delta, inv, delta)
    return np.sqrt(np.maximum(q, 0.0))  # ridge can leave tiny negatives


def robust_md(latents, stats: RobustLatentStats):
    """Per-row sqrt((z - median)^T corr_inv (z - median))."""
    return _md(latents, stats.medians, stats.corr_inv)


def classical_md(latents, stats: ClassicalStats):
    """Per-row sqrt((z - mean)^T cov_inv (z - mean))."""
    return _md(latents, stats.means, stats.cov_inv)
