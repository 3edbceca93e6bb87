"""Nonparametric entropy and divergence estimators.

Two families:
  * sample-based: quadratic entropy as the negative log of the mean pairwise
    Gaussian kernel (the information potential), natural log;
  * matrix-based: -log2 tr(X^2) of a trace-normalized Gram matrix, log2.

The two bases are never mixed; mutual information only accepts the
matrix/log2 kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ParameterError
from .ndmath import (GramMatrix, NormalizedGram, gaussian_kernel_value,
                     hadamard_normalized, pairwise_sq_dists)

ENTROPY_FLOOR = 1e-3  # bits; keeps the MI ratio finite for collapsed batches
LN2 = math.log(2.0)


@dataclass(frozen=True)
class EntropyValue:
    value: float
    basis: str  # "natural" | "log2"
    kind: str  # "sample" | "matrix"


@dataclass(frozen=True)
class MiValue:
    value: float
    components: tuple  # (Hx, Hz, Hxz) after flooring


def _check_samples(m, name):
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ParameterError(f"{name} must be a non-empty N x d matrix, got {a.shape}")
    return a


def information_potential(x, sigma):
    """Mean pairwise Gaussian kernel with bandwidth sigma*sqrt(2)."""
    x = _check_samples(x, "samples")
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    sq = pairwise_sq_dists(x, x)
    np.fill_diagonal(sq, 0.0)
    vals = gaussian_kernel_value(sq, sigma * math.sqrt(2.0), x.shape[1])
    return float(vals.sum()) / (x.shape[0] ** 2)


def cross_information_potential(x, z, sigma):
    """Mean cross-kernel between two sample sets, bandwidth sigma*sqrt(2)."""
    x = _check_samples(x, "x")
    z = _check_samples(z, "z")
    if x.shape[1] != z.shape[1]:
        raise ParameterError(
            f"dimension mismatch: x has {x.shape[1]} columns, z has {z.shape[1]}"
        )
    if sigma <= 0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    sq = pairwise_sq_dists(x, z)
    vals = gaussian_kernel_value(sq, sigma * math.sqrt(2.0), x.shape[1])
    return float(vals.sum()) / (x.shape[0] * z.shape[0])


def renyi2_sample(samples, sigma) -> EntropyValue:
    """Quadratic entropy: -log of the information potential (natural log)."""
    ip = information_potential(samples, sigma)
    if ip <= 0:
        raise DegeneracyError("information potential vanished")
    return EntropyValue(value=-math.log(ip), basis="natural", kind="sample")


def renyi2_matrix(g: NormalizedGram) -> EntropyValue:
    """-log2 tr(mat^2), computed as the squared Frobenius sum."""
    s = float(np.sum(g.mat * g.mat))
    if s <= 0:
        raise DegeneracyError("trace of squared normalized Gram is non-positive")
    return EntropyValue(value=-math.log2(s), basis="log2", kind="matrix")


def joint_entropy_matrix(gx: NormalizedGram, gz: NormalizedGram) -> EntropyValue:
    """Matrix joint entropy via the unit-trace Hadamard product."""
    if gx.mat.shape != gz.mat.shape:
        raise ParameterError(
            f"Gram size mismatch {gx.mat.shape} vs {gz.mat.shape}"
        )
    joint = hadamard_normalized(gx.mat, gz.mat)
    return renyi2_matrix(NormalizedGram(mat=joint))


def cs_divergence_sample(x, z, sigma):
    """Cauchy-Schwarz divergence between two sample sets (natural log).

    -log( CIP / sqrt(IP_x * IP_z) ); zero iff the sets induce the same
    kernel density.
    """
    ip_x = information_potential(x, sigma)
    ip_z = information_potential(z, sigma)
    cip = cross_information_potential(x, z, sigma)
    if ip_x <= 0 or ip_z <= 0 or cip <= 0:
        raise DegeneracyError("vanishing information potential in CS divergence")
    val = -math.log(cip / math.sqrt(ip_x * ip_z))
    if val < -1e-10:
        raise DegeneracyError(f"CS divergence came out negative ({val:.3e})")
    return max(val, 0.0)


def floor_entropy(h: EntropyValue, floor=ENTROPY_FLOOR) -> float:
    return max(h.value, floor)


def mi_cs(hx: EntropyValue, hz: EntropyValue, hxz: EntropyValue,
          floor=ENTROPY_FLOOR) -> MiValue:
    """Mutual information as log2(Hx * Hz / Hxz^2) over floored entropies."""
    for h, name in ((hx, "hx"), (hz, "hz"), (hxz, "hxz")):
        if h.kind != "matrix" or h.basis != "log2":
            raise ParameterError(f"{name} must be a matrix-kind log2 entropy")
    a, b, c = floor_entropy(hx, floor), floor_entropy(hz, floor), floor_entropy(hxz, floor)
    return MiValue(value=math.log2(a * b / (c * c)), components=(a, b, c))


def mi_additive(hx: EntropyValue, hz: EntropyValue, hxz: EntropyValue) -> MiValue:
    """Ablation variant: Hx + Hz - Hxz (no flooring needed)."""
    for h, name in ((hx, "hx"), (hz, "hz"), (hxz, "hxz")):
        if h.kind != "matrix" or h.basis != "log2":
            raise ParameterError(f"{name} must be a matrix-kind log2 entropy")
    return MiValue(value=hx.value + hz.value - hxz.value,
                   components=(hx.value, hz.value, hxz.value))
