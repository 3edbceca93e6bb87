import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drmdit import itl, ndmath
from drmdit.errors import DataError, ParameterError


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 24), m=st.integers(1, 24), d=st.integers(1, 130),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 50.0]),
       offset_a=st.floats(-1e3, 1e3), offset_b=st.floats(-1e3, 1e3),
       n_dup=st.integers(0, 24), self_pair=st.booleans())
def test_pairwise_sq_dists_matches_broadcast(n, m, d, seed, scale, offset_a,
                                             offset_b, n_dup, self_pair):
    rng = np.random.default_rng(seed)
    a = offset_a + scale * rng.normal(size=(n, d))
    b = offset_b + scale * rng.normal(size=(m, d))
    # copy rows of a into b (zero cross distances) and within a
    k = min(n_dup, n, m)
    b[:k] = a[rng.integers(0, n, size=k)]
    if n > 1:
        a[-1] = a[0]
    if self_pair:
        b = a
    diff = a[:, None, :] - b[None, :, :]
    ref = np.sum(diff * diff, axis=2)
    out = ndmath.pairwise_sq_dists(a, b)
    assert out.shape == ref.shape
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out - ref)) <= 1e-12 * max(1.0, float(ref.max()))


def test_pairwise_sq_dists_memory_stays_quadratic():
    # an N x N x d broadcast would take N*N*d*8 bytes (256 MB here)
    n, d = 512, 122
    x = np.random.default_rng(5).normal(size=(n, d))
    tracemalloc.start()
    try:
        ndmath.pairwise_sq_dists(x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n * 8


def test_gaussian_gram_zero_distance_value():
    g = ndmath.gaussian_gram([[0.0]], sigma=1.0)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_gaussian_gram_identical_samples():
    g = ndmath.gaussian_gram([[1.5, -2.0], [1.5, -2.0]], sigma=0.3)
    assert g[0, 1] == pytest.approx(g[0, 0], abs=1e-15)


def test_gaussian_gram_hand_value():
    # d=1, sigma=1, samples {0, 2}: off-diagonal is exp(-4 / 2)
    g = ndmath.gaussian_gram([[0.0], [2.0]], sigma=1.0)
    assert g[0, 1] == pytest.approx(np.exp(-2.0), abs=1e-9)


def test_gaussian_gram_diagonal_constant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 3))
    g = ndmath.gaussian_gram(x, sigma=0.5)
    expected = 1.0
    assert np.allclose(np.diag(g), expected)


def test_gaussian_gram_symmetry_and_permutation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 4))
    g = ndmath.gaussian_gram(x, sigma=0.7)
    assert np.max(np.abs(g - g.T)) <= 1e-12
    perm = rng.permutation(9)
    gp = ndmath.gaussian_gram(x[perm], sigma=0.7)
    assert np.allclose(gp, g[np.ix_(perm, perm)], atol=1e-12)


def test_gaussian_gram_rejects_bad_input():
    with pytest.raises(ParameterError):
        ndmath.gaussian_gram([[0.0]], sigma=0.0)
    with pytest.raises(DataError):
        ndmath.gaussian_gram([[np.nan]], sigma=1.0)


@pytest.mark.parametrize("sigma", [1e-300, np.nan, np.inf, 1e200, -0.1])
def test_kernels_reject_unusable_sigma(sigma):
    # sigma^2 or 1/sigma^2 not finite and positive: 0 * inf or 0 / 0 follows
    with pytest.raises(ParameterError, match="sigma"):
        ndmath.gaussian_gram([[0.0], [1.0]], sigma=sigma)
    with pytest.raises(ParameterError, match="sigma"):
        itl.cs_divergence_sample([[0.0], [1.0]], [[0.5]], sigma=sigma)


def test_normalize_gram_single_sample():
    g = ndmath.gaussian_gram([[3.0]], sigma=2.0)
    ng = ndmath.normalize_gram(g)
    assert ng.mat[0, 0] == pytest.approx(1.0)


def test_normalize_gram_identical_samples():
    g = ndmath.gaussian_gram([[1.0], [1.0], [1.0]], sigma=0.5)
    ng = ndmath.normalize_gram(g)
    assert np.allclose(ng.mat, 1.0 / 3.0)


def test_normalize_gram_two_sample_algebra():
    g = ndmath.gaussian_gram([[0.0], [1.0]], sigma=1.0)
    a, c = g[0, 0], g[0, 1]
    ng = ndmath.normalize_gram(g)
    assert ng.mat[0, 0] == pytest.approx(0.5)
    assert ng.mat[0, 1] == pytest.approx(c / (2 * a), abs=1e-14)


def test_normalize_gram_unit_trace_property():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = rng.integers(1, 20)
        x = rng.normal(size=(n, rng.integers(1, 5)))
        ng = ndmath.normalize_gram(ndmath.gaussian_gram(x, sigma=0.4))
        assert abs(np.trace(ng.mat) - 1.0) <= 1e-10
        assert np.max(np.abs(ng.mat)) <= 1.0 / n + 1e-12


def test_ridge_inverse_identity():
    assert np.allclose(ndmath.ridge_inverse(np.eye(3), 0.0), np.eye(3))


def test_ridge_inverse_diagonal():
    out = ndmath.ridge_inverse(np.diag([2.0, 4.0]), 0.0)
    assert np.allclose(out, np.diag([0.5, 0.25]))


def test_ridge_inverse_zero_matrix():
    out = ndmath.ridge_inverse(np.zeros((2, 2)), 1e-6)
    assert np.allclose(out, 1e6 * np.eye(2))


def test_ridge_inverse_psd_roundtrip_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = rng.integers(1, 33)
        a = rng.normal(size=(k, k))
        m = a @ a.T / k
        eps = 1e-6
        inv = ndmath.ridge_inverse(m, eps)
        assert np.max(np.abs(inv - inv.T)) <= 1e-9
        resid = (m + eps * np.eye(k)) @ inv - np.eye(k)
        assert np.max(np.abs(resid)) <= 1e-8
