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
from .ndmath import (NormalizedGram, _check_sigma, _kernel_input, lifted_rows,
                     pairwise_sq_dists)

ENTROPY_FLOOR = 1e-3  # bits; keeps the MI ratio finite for collapsed batches
_MI_BLOCK = 1 << 17  # entries per row-strip buffer of the MI kernels: 1 MiB of float64
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
    """Rows per strip for a batch of n: half the batch, rounded up, while
    that fits _MI_BLOCK (n <= 512), else as many as fit. So a batch of two
    or more rows is at least two strips, and its upper trapezoid about 3/4
    of the n * n kernel entries or fewer."""
    return min((n + 1) // 2, max(1, _MI_BLOCK // n))


def mi_workspace(batch_sizes):
    """The (input Gram, latent kernel) pair of flat buffers that
    matrix_mi_with_latent_grad builds its row strips in, large enough for a
    batch of each given size. They are the two halves of one allocation:
    at batch 256 two buffers of 256 KiB each could come from the heap and
    stay resident once freed, where one of 512 KiB is mapped and unmapped."""
    size = max(_block_rows(m) * m for m in batch_sizes)
    buf = np.empty(2 * size)
    return buf[:size], buf[size:]


def _exp_rows(lhs, rhs, diag, out):
    """exp(min(lhs @ rhs, 0)) in out, its entries [i, i] set to diag first."""
    e = np.matmul(lhs, rhs, out=out)
    np.minimum(e, 0.0, out=e)
    e.flat[::e.shape[1] + 1] = diag
    return np.exp(e, out=e)


def _mirrored(strip, z1, r0, r1, out):
    """Add a symmetric matrix's rows r0:r1, given from column r0 on, applied
    to z1, to out: the strip to rows r0:r1 and, by symmetry, its part right
    of the square, transposed, to rows r1:. The first strip (r0 = 0) sets
    out instead, so a single strip gives the whole matrix's product."""
    right = strip[:, r1 - r0:].T
    if r0 == 0:
        np.matmul(strip, z1, out=out[:r1])
        np.matmul(right, z1[:r1], out=out[r1:])
    else:
        out[r0:r1] += strip @ z1[r0:]
        out[r1:] += right @ z1[r0:r1]


def matrix_mi_with_latent_grad(xhat, z, sigma, mode="ratio", x=None, work=None):
    """Matrix-based MI between a fixed input Gram and the latent batch,
    plus its gradient with respect to the latent rows.

    xhat is the N x N trace-normalized input Gram (constant w.r.t.
    parameters) or, when None, the Gaussian Gram of the input batch x over
    N. The latent Gram K has unit diagonal, so zhat = K / N and only its
    off-diagonal entries carry gradient. With P = K * xhat (elementwise)
    the joint Gram is P / tr(P). The entropies and the chain rule through
    K's exponent need only K * K and P * P = (K * K) * (xhat * xhat), each
    applied to [z, 1]. K * K is exp(-D / sigma^2) of the latent squared
    distances D, and so is N^2 (xhat * xhat) of the input ones: each strip
    is one product of lifted rows that carry -1/sigma^2, a clamp at 0 and
    an exp. The 1/N^2 goes into the sums, and
    tr(xhat) = 1 and 1/N for its squared diagonal. A given xhat is squared
    into the strip, its trace and diagonal sums read from it: the routes
    agree to the last bits. Entropy sums are np.sum's (BLAS-thread-free).

    Both kernels are symmetric, so only their upper trapezoid is built:
    strips of B rows r0:r0+B, each from column r0 on, B <= ceil(N / 2) and
    B * N <= _MI_BLOCK (B = 1 when N > _MI_BLOCK), in two flat buffers of
    B * N: memory is O(B N + N (d + k)). A strip's part right of its square
    stands for the mirrored part below it as well (_mirrored), so it counts
    twice in the sums. A batch of N <= 512 rows is two strips of ceil(N / 2)
    rows, 3/4 of the N * N entries; the strip count moves only the sums'
    last bits against one whole-matrix strip. Right-hand
    lifted rows are held (d + 2) x N, C-contiguous; of the input batch's
    only they are kept, and a strip's left-hand rows are rebuilt from them
    exactly, as they hold -2x. work, when given, is mi_workspace's pair of
    flat buffers; the result is the same.

    mode "ratio" is the paper's log2(Hx * Hz / Hxz^2) over entropies
    floored at ENTROPY_FLOOR; "additive" is the ablation Hx + Hz - Hxz.
    Returns (mi, grad_z, (hx, hz, hxz)) with the unfloored entropies.
    """
    sigma = _check_sigma(sigma)
    z = _kernel_input(z, "z")
    n = z.shape[0]
    rows = _block_rows(n)
    scale = -1.0 / (sigma * sigma)
    if xhat is None:
        if x is None:
            raise ParameterError("neither an input Gram nor an input batch given")
        x = _kernel_input(x, "x")
        if x.shape[0] != n:
            raise ParameterError(f"input batch of {x.shape[0]} rows does not match batch {n}")
        xrhs = np.ascontiguousarray(lifted_rows(x, x)[1].T)  # [-2x, 1, |x|^2] by column
        xlhs = np.full((rows, x.shape[1] + 2), scale)  # one strip's scale * [x, |x|^2, 1]
        s2, tp, sd = 1.0 / (n * n), 1.0, 1.0 / n  # strip = (xhat * xhat) / s2
    elif xhat.shape != (n, n):
        raise ParameterError(f"input Gram shape {xhat.shape} does not match batch {n}")
    else:
        s2, tp, sd = 1.0, float(np.trace(xhat)), float(np.sum(np.diagonal(xhat) ** 2))
        if tp <= 0:
            raise DegeneracyError("Hadamard joint Gram has non-positive trace")
    zlhs, zrhs = lifted_rows(z, z)
    zrhs = np.multiply(zrhs.T, scale, order="C")
    z1 = np.hstack([z, np.ones((n, 1))])
    k2z, p2z = np.empty_like(z1), np.empty_like(z1)
    gram_buf, latent_buf = work or mi_workspace([n])
    sx = 0.0  # sum of the strips, right of their squares twice: s2 * sum(xhat * xhat)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        strip = gram_buf[:(r1 - r0) * (n - r0)].reshape(r1 - r0, -1)
        kk = latent_buf[:strip.size].reshape(strip.shape)
        _exp_rows(zlhs[r0:r1], zrhs[:, r0:], -math.inf, kk)  # K * K off its diagonal
        _mirrored(kk, z1, r0, r1, k2z)  # the last column holds the row sums
        if xhat is None:
            lhs = xlhs[:r1 - r0]
            np.multiply(xrhs[:-2, r0:r1].T, -0.5 * scale, out=lhs[:, :-2])
            np.multiply(xrhs[-1, r0:r1], scale, out=lhs[:, -2])
            xb2 = _exp_rows(lhs, xrhs[:, r0:], 0.0, strip)
        else:
            xb2 = np.multiply(xhat[r0:r1, r0:], xhat[r0:r1, r0:], out=strip)
        sx += float(xb2.sum()) + float(xb2[:, r1 - r0:].sum())
        kk *= xb2  # now P * P / s2
        _mirrored(kk, z1, r0, r1, p2z)
    sz = (float(k2z[:, -1].sum()) + n) / (n * n)  # K's diagonal is exactly 1
    sj = (s2 * float(p2z[:, -1].sum()) + sd) / (tp * tp)
    hx = _renyi2_bits(s2 * sx, "input Gram")
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
    cp = -2.0 * s2 * dmi_dhxz / (sj * LN2 * tp * tp)
    bz = ck * k2z + cp * p2z
    grad_z = (2.0 / (sigma * sigma)) * (bz[:, :-1] - bz[:, -1:] * z)
    return mi, grad_z, (hx, hz, hxz)
