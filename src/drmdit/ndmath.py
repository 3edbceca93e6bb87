"""Gaussian kernel Gram matrices and small dense-matrix helpers.

All arrays are float64 numpy arrays, row-major. Kernel matrices are built
with a fixed summation/broadcast order so repeated calls are bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneracyError, ParameterError

RIDGE_EPSILON = 1e-6


@dataclass(frozen=True)
class NormalizedGram:
    """Trace-normalized Gram matrix: unit trace, diagonal exactly 1/N."""

    mat: np.ndarray


def _as_matrix(x, name="input"):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ParameterError(f"{name} must be 2-d, got shape {a.shape}")
    return a


def _kernel_input(samples, name):
    """samples as an N x d float64 matrix; ParameterError unless it is 2-d
    with N >= 1 and d >= 1, DataError if it holds a non-finite value."""
    a = _as_matrix(samples, name)
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ParameterError(f"{name} must be N>=1 x d>=1, got {a.shape}")
    if not np.isfinite(a).all():
        raise DataError(f"non-finite values in {name}")
    return a


def _check_sigma(sigma):
    """sigma as a float; ParameterError unless sigma > 0 and sigma^2 and
    1/sigma^2 are finite and nonzero (NaN fails every comparison)."""
    if not (sigma > 0 and 0.0 < sigma * sigma < math.inf
            and 1.0 / (sigma * sigma) < math.inf):
        raise ParameterError(
            f"sigma must be > 0 with sigma^2 and 1/sigma^2 finite and nonzero, got {sigma}")
    return float(sigma)


def lifted_rows(a, b):
    """The lifted rows whose product gives pairwise squared distances.

    Both sets are centered on a's column mean, which limits cancellation.
    lhs holds [a_i, ||a_i||^2, 1] and rhs [-2 b_j, 1, ||b_j||^2], so that
    lhs @ rhs.T is ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j; any row block of lhs
    gives the matching rows of the distance matrix. Memory is O((N + M) d).
    """
    same = b is a
    a = _as_matrix(a, "a")
    b = a if same else _as_matrix(b, "b")
    d = a.shape[1]
    mean = a.mean(axis=0)
    lhs = np.empty((a.shape[0], d + 2))
    rhs = np.empty((b.shape[0], d + 2))
    ac = np.subtract(a, mean, out=lhs[:, :d])
    lhs[:, d] = np.einsum("ij,ij->i", ac, ac)
    lhs[:, d + 1] = 1.0
    if same:  # center once
        np.multiply(ac, -2.0, out=rhs[:, :d])
        rhs[:, d + 1] = lhs[:, d]
    else:
        bc = np.subtract(b, mean, out=rhs[:, :d])
        rhs[:, d + 1] = np.einsum("ij,ij->i", bc, bc)
        bc *= -2.0
    rhs[:, d] = 1.0
    return lhs, rhs


def pairwise_sq_dists(a, b):
    """Squared Euclidean distances between rows of a and rows of b.

    One matrix product of lifted_rows(a, b), clamped at 0. Memory is
    O((N + M) d + N M). A self-distance matrix is symmetric and zero on the
    diagonal only to rounding; callers that need exact zeros set them.
    """
    lhs, rhs = lifted_rows(a, b)
    sq = lhs @ rhs.T
    return np.maximum(sq, 0.0, out=sq)


def gaussian_rows(lhs, rhs, start, sigma, out=None):
    """Rows start:start + len(lhs) of a Gaussian Gram over one sample set.

    lhs is that row block of lifted_rows(x, x)[0] and rhs all of
    lifted_rows(x, x)[1]. The entries g[i, start + i] are the diagonal and
    come out exactly 1. sigma is not checked here. The B x N block is built
    in out when given (a C-contiguous float64 array).
    """
    g = np.matmul(lhs, rhs.T, out=out)
    np.maximum(g, 0.0, out=g)
    g.flat[start::g.shape[1] + 1] = 0.0
    g *= -0.5 / (sigma * sigma)
    return np.exp(g, out=g)


def gaussian_gram(samples, sigma):
    """N x N Gram matrix of the isotropic Gaussian kernel over sample rows.

    g[i, j] = exp(-||x_i - x_j||^2 / (2*sigma^2)), with diagonal exactly 1.
    The density constant (2*pi*sigma^2)^(-d/2) is left out: every consumer
    normalizes it away, and at large d it overflows.
    """
    sigma = _check_sigma(sigma)
    x = _kernel_input(samples, "samples")
    lhs, rhs = lifted_rows(x, x)
    return gaussian_rows(lhs, rhs, 0, sigma)


def normalize_gram(g) -> NormalizedGram:
    """Trace-normalize a gaussian_gram: the diagonal is 1, so mat = g / N."""
    return NormalizedGram(mat=g / g.shape[0])


def ridge_inverse(r, epsilon=RIDGE_EPSILON):
    """Inverse of (r + epsilon*I) for square symmetric r."""
    r = _as_matrix(r, "r")
    k = r.shape[0]
    if r.shape[1] != k:
        raise ParameterError(f"expected square matrix, got {r.shape}")
    if epsilon < 0:
        raise ParameterError("epsilon must be non-negative")
    ridged = r + epsilon * np.eye(k)
    try:
        inv = np.linalg.inv(ridged)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"matrix singular after ridge {epsilon}") from exc
    # inv() can silently return garbage for nearly-singular input; check it
    resid = np.max(np.abs(ridged @ inv - np.eye(k)))
    if not np.isfinite(resid) or resid > 1e-6:
        raise DegeneracyError(
            f"matrix effectively singular after ridge {epsilon} (residual {resid:.2e})"
        )
    return 0.5 * (inv + inv.T)
