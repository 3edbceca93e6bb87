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
from .ndmath import (NormalizedGram, _check_sigma, _kernel_input, gaussian_rows,
                     lifted_rows, pairwise_sq_dists)

ENTROPY_FLOOR = 1e-3  # bits; keeps the MI ratio finite for collapsed batches
_MI_BLOCK = 1 << 17  # entries per row-block buffer of the MI kernels: 1 MiB of float64
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


def _block_rows(n):
    """Rows per block for a batch of n: the whole batch while n * n <= _MI_BLOCK."""
    return min(n, max(1, _MI_BLOCK // n))


def mi_workspace(batch_sizes):
    """The (input Gram, latent kernel) pair of flat buffers that
    matrix_mi_with_latent_grad builds its row blocks in, large enough for a
    batch of each given size."""
    size = max(_block_rows(m) * m for m in batch_sizes)
    return np.empty(size), np.empty(size)


def matrix_mi_with_latent_grad(xhat, z, sigma, mode="ratio", x=None, work=None):
    """Matrix-based MI between a fixed input Gram and the latent batch,
    plus its gradient with respect to the latent rows.

    xhat is the N x N trace-normalized input Gram (constant w.r.t.
    parameters); when it is None, the input Gram is the Gaussian Gram of
    the input batch x divided by N. The latent Gram K has unit diagonal, so
    the normalized latent Gram is zhat = K / N and only its off-diagonal
    entries carry gradient. With P = K * xhat (elementwise) the joint Gram
    is P / tr(P), and P's diagonal is xhat's. The entropies and the chain
    rule through K's exponent need only K * K, which is the Gaussian kernel
    at sigma / sqrt(2), and (K * K) * (xhat * xhat) = P * P, each applied
    to [z, 1] by one matrix product; neither K nor P is formed. xhat * xhat
    is squared once per block and gives the input entropy and the diagonal
    sums too. Every entropy sum is np.sum's, whose bits do not depend on
    the BLAS thread count.

    Both Grams are built one block of B rows at a time, from lifted rows
    made once per call, in two B x N buffers: B * N <= _MI_BLOCK (B = 1
    when N > _MI_BLOCK), so memory is O(B N + N (d + k)), never N x N. Of
    the input batch's lifted rows only the right-hand ones are kept; a
    block's left-hand rows are rebuilt from them, exactly, as they hold -2x.
    A batch with N * N <= _MI_BLOCK is one block; more blocks regroup the
    sums over xhat, which moves only their last bits. work, when given, is
    the pair of flat buffers of mi_workspace; the result is the same as
    without it.

    mode "ratio" is the paper's log2(Hx * Hz / Hxz^2) over entropies
    floored at ENTROPY_FLOOR; "additive" is the ablation Hx + Hz - Hxz.
    Returns (mi, grad_z, (hx, hz, hxz)) with the unfloored entropies.
    """
    sigma = _check_sigma(sigma)
    z = _kernel_input(z, "z")
    n = z.shape[0]
    rows = _block_rows(n)
    if xhat is None:
        if x is None:
            raise ParameterError("neither an input Gram nor an input batch given")
        x = _kernel_input(x, "x")
        if x.shape[0] != n:
            raise ParameterError(f"input batch of {x.shape[0]} rows does not match batch {n}")
        xrhs = lifted_rows(x, x)[1]  # [-2x, 1, |x|^2]
        d = x.shape[1]
        xlhs = np.empty((rows, d + 2))  # one block's [x, |x|^2, 1]
        xlhs[:, d + 1] = 1.0
    elif xhat.shape != (n, n):
        raise ParameterError(f"input Gram shape {xhat.shape} does not match batch {n}")
    zlhs, zrhs = lifted_rows(z, z)
    z1 = np.hstack([z, np.ones((n, 1))])
    k2z, p2z = np.empty_like(z1), np.empty_like(z1)
    gram_buf, latent_buf = work or mi_workspace([n])
    half = sigma / math.sqrt(2.0)  # K * K is the Gaussian kernel at sigma / sqrt(2)
    sx = tp = sd = 0.0  # sums of xhat * xhat, of xhat's diagonal and of its squares
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        block = gram_buf[:(r1 - r0) * n].reshape(-1, n)
        kk = gaussian_rows(zlhs[r0:r1], zrhs, r0, half,
                           out=latent_buf[:block.size].reshape(-1, n))
        if xhat is None:
            lhs = xlhs[:r1 - r0]
            np.multiply(xrhs[r0:r1, :d], -0.5, out=lhs[:, :d])
            lhs[:, d] = xrhs[r0:r1, d + 1]
            xb = gaussian_rows(lhs, xrhs, r0, sigma, out=block)
            xb /= n  # unit diagonal: dividing by N is the trace normalization
        else:
            xb = xhat[r0:r1]
        tp += float(np.diagonal(xb, r0).sum())
        xb2 = np.multiply(xb, xb, out=block)  # in place when xb is the built block
        sd += float(np.diagonal(xb2, r0).sum())
        sx += float(xb2.sum())
        # off-diagonal squares (the diagonal of zhat is constant), each
        # applied to [z, 1] in one pass: the last column holds the row sums
        kk.flat[r0::n + 1] = 0.0
        np.matmul(kk, z1, out=k2z[r0:r1])
        kk *= xb2  # now P * P
        np.matmul(kk, z1, out=p2z[r0:r1])
    if tp <= 0:
        raise DegeneracyError("Hadamard joint Gram has non-positive trace")

    sz = (float(k2z[:, -1].sum()) + n) / (n * n)  # K's diagonal is exactly 1
    sj = (float(p2z[:, -1].sum()) + sd) / (tp * tp)
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
