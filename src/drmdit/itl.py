"""Nonparametric entropy and mutual-information estimators.

Two families:
  * sample-based: the Cauchy-Schwarz divergence between two sample sets,
    from logs of mean pairwise Gaussian kernels (information potentials),
    natural log;
  * matrix-based: -log2 tr(X^2) of a trace-normalized Gram matrix, log2,
    and the mutual information between an input Gram and a latent batch,
    with its gradient with respect to the latent rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ParameterError
from .ndmath import (NormalizedGram, _check_sigma, _kernel_input, gaussian_gram,
                     pairwise_sq_dists)

ENTROPY_FLOOR = 1e-3  # bits; keeps the MI ratio finite for collapsed batches
LN2 = math.log(2.0)


@dataclass(frozen=True)
class EntropyValue:
    value: float


def _log_mean_kernel(x, z, sigma):
    """log of the mean of exp(-||x_i - z_j||^2 / (4 sigma^2)) over all pairs.

    This is the (cross) information potential at bandwidth sigma*sqrt(2)
    without its density constant. The sum is shifted by its largest
    exponent, so nothing under- or overflows at large d and small sigma.
    When z is x the self-distances are exactly 0.
    """
    same = z is x
    x = _kernel_input(x, "x")
    z = x if same else _kernel_input(z, "z")
    if x.shape[1] != z.shape[1]:
        raise ParameterError(
            f"dimension mismatch: x has {x.shape[1]} columns, z has {z.shape[1]}"
        )
    sigma = _check_sigma(sigma)
    e = pairwise_sq_dists(x, z)
    if same:
        np.fill_diagonal(e, 0.0)
    e *= -0.25 / (sigma * sigma)
    top = float(e.max())
    e -= top
    return top + math.log(float(np.exp(e, out=e).sum())) - math.log(e.size)


def _renyi2_bits(frobenius_sum, what):
    """-log2 of tr(A^2) given as the squared Frobenius sum of A."""
    if frobenius_sum <= 0:
        raise DegeneracyError(f"trace of squared normalized {what} is non-positive")
    return -math.log2(frobenius_sum)


def renyi2_matrix(g: NormalizedGram) -> EntropyValue:
    """-log2 tr(mat^2), computed as the squared Frobenius sum."""
    return EntropyValue(value=_renyi2_bits(float(np.sum(g.mat * g.mat)), "Gram"))


def cs_divergence_sample(x, z, sigma):
    """Cauchy-Schwarz divergence between two sample sets (natural log).

    -log( CIP / sqrt(IP_x * IP_z) ); zero iff the sets induce the same
    kernel density. The density constants cancel, so none is formed.
    """
    val = (0.5 * (_log_mean_kernel(x, x, sigma) + _log_mean_kernel(z, z, sigma))
           - _log_mean_kernel(x, z, sigma))
    if val < -1e-10:
        raise DegeneracyError(f"CS divergence came out negative ({val:.3e})")
    return max(val, 0.0)


def matrix_mi_with_latent_grad(xhat, z, sigma, mode="ratio", out=None):
    """Matrix-based MI between a fixed input Gram and the latent batch,
    plus its gradient with respect to the latent rows.

    xhat is the trace-normalized input Gram (constant w.r.t. parameters).
    The latent Gram K has unit diagonal, so the normalized latent Gram is
    zhat = K / N and only its off-diagonal entries carry gradient. With
    P = K * xhat (elementwise) the joint Gram is P / tr(P), and P's
    diagonal is xhat's. The entropies and the chain rule through K's
    exponent need only K * K and K * (P * xhat) = P * P, each applied to
    [z, 1] by one matrix product; P itself is never formed.

    mode "ratio" is the paper's log2(Hx * Hz / Hxz^2) over entropies
    floored at ENTROPY_FLOOR; "additive" is the ablation Hx + Hz - Hxz.
    The one N x N temporary (K, then K * K, then P * P) is built in out
    when given. Returns (mi, grad_z, (hx, hz, hxz)) with the unfloored
    entropies.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if xhat.shape != (n, n):
        raise ParameterError(f"input Gram shape {xhat.shape} does not match batch {n}")
    xdiag = np.diagonal(xhat)
    tp = float(xdiag.sum())
    if tp <= 0:
        raise DegeneracyError("Hadamard joint Gram has non-positive trace")
    # off-diagonal squares (the diagonal of zhat is constant), each applied
    # to [z, 1] in one pass: the last column holds the row sums
    z1 = np.hstack([z, np.ones((n, 1))])
    kk = gaussian_gram(z, sigma, out=out)
    np.square(kk, out=kk)
    np.fill_diagonal(kk, 0.0)
    k2z = kk @ z1
    kk *= xhat
    kk *= xhat  # now P * P
    p2z = kk @ z1

    sx = float(np.vdot(xhat, xhat))
    sz = (float(k2z[:, -1].sum()) + n) / (n * n)  # K's diagonal is exactly 1
    sj = (float(p2z[:, -1].sum()) + float(np.vdot(xdiag, xdiag))) / (tp * tp)
    hx = _renyi2_bits(sx, "input Gram")
    hz = _renyi2_bits(sz, "latent Gram")
    hxz = _renyi2_bits(sj, "joint Gram")

    if mode == "ratio":
        floor = ENTROPY_FLOOR
        a, b, c = max(hx, floor), max(hz, floor), max(hxz, floor)
        mi = math.log2(a * b / (c * c))
        dmi_dhz = 1.0 / (b * LN2) if hz > floor else 0.0
        dmi_dhxz = -2.0 / (c * LN2) if hxz > floor else 0.0
    elif mode == "additive":
        mi = hx + hz - hxz
        dmi_dhz = 1.0
        dmi_dhxz = -1.0
    else:
        raise ParameterError(f"unknown mi mode {mode!r}")

    # dHz/dzhat = -2 zhat / (sz ln2) and dHxz/dzhat = -2 N P*xhat / (sj ln2 tr(P)^2);
    # through zhat = K / N and dK/dz, dMI/dz_i = 2/sigma^2 sum_j B_ij (z_j - z_i)
    # with B = ck K*K + cp P*P
    ck = -2.0 * dmi_dhz / (sz * LN2 * n * n)
    cp = -2.0 * dmi_dhxz / (sj * LN2 * tp * tp)
    bz = ck * k2z + cp * p2z
    grad_z = (2.0 / (sigma * sigma)) * (bz[:, :-1] - bz[:, -1:] * z)
    return mi, grad_z, (hx, hz, hxz)
