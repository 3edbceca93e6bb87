import math

import numpy as np
import pytest

from drmdit import itl, ndmath
from drmdit.errors import DataError, DegeneracyError, ParameterError
from drmdit.ndmath import NormalizedGram


def _norm_gram(x, sigma):
    return ndmath.normalize_gram(ndmath.gaussian_gram(x, sigma))


def test_renyi2_matrix_single_sample():
    assert itl.renyi2_matrix(NormalizedGram(mat=np.array([[1.0]]))).value == 0.0


def test_renyi2_matrix_identical_samples():
    h = itl.renyi2_matrix(NormalizedGram(mat=np.full((6, 6), 1.0 / 6.0)))
    assert h.value == pytest.approx(0.0, abs=1e-12)


def test_renyi2_matrix_identity_over_n():
    h = itl.renyi2_matrix(NormalizedGram(mat=np.eye(8) / 8.0))
    assert h.value == pytest.approx(3.0, abs=1e-12)


def test_renyi2_matrix_two_sample_hand_case():
    c = 0.6
    mat = np.array([[0.5, c / 2], [c / 2, 0.5]])
    h = itl.renyi2_matrix(NormalizedGram(mat=mat))
    assert h.value == pytest.approx(1 - math.log2(1 + c * c), abs=1e-9)
    assert h.value == pytest.approx(0.55639, abs=1e-5)


def test_renyi2_matrix_matches_eigenvalue_oracle():
    rng = np.random.default_rng(16)
    for n in (2, 5, 16, 64):
        g = _norm_gram(rng.normal(size=(n, 3)), 0.4)
        lam = np.linalg.eigvalsh(g.mat)
        oracle = -math.log2(float(np.sum(lam * lam)))
        assert itl.renyi2_matrix(g).value == pytest.approx(oracle, abs=1e-9)


def test_renyi2_matrix_bounds_property():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 24))
        g = _norm_gram(rng.normal(size=(n, 2)) * rng.uniform(0.1, 5.0), 0.3)
        v = itl.renyi2_matrix(g).value
        assert -1e-10 <= v <= math.log2(n) + 1e-10


def test_cs_divergence_identical_sets():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(10, 2))
    assert itl.cs_divergence_sample(x, x, 0.5) <= 1e-10


def test_cs_divergence_hand_case():
    assert itl.cs_divergence_sample([[0.0]], [[2.0]], 1.0) == pytest.approx(1.0, abs=1e-10)


def test_cs_divergence_symmetry():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(7, 2))
    z = rng.normal(size=(9, 2)) + 0.5
    d1 = itl.cs_divergence_sample(x, z, 0.4)
    d2 = itl.cs_divergence_sample(z, x, 0.4)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_cs_divergence_large_for_distant_sets():
    x = np.zeros((4, 1))
    assert itl.cs_divergence_sample(x, x + 10.0, 0.5) > 10.0


def test_cs_divergence_dim_mismatch():
    with pytest.raises(ParameterError):
        itl.cs_divergence_sample(np.zeros((3, 2)), np.zeros((3, 3)), 0.5)


def test_cs_divergence_rejects_a_zero_width_set():
    # was: 0.0, the mean kernel over no coordinates being 1
    with pytest.raises(ParameterError):
        itl.cs_divergence_sample(np.zeros((3, 0)), np.zeros((2, 0)), 0.5)


def test_sample_estimators_reject_non_finite_samples():
    with pytest.raises(DataError):
        itl.cs_divergence_sample([[np.nan], [1.0]], [[1.0]], 1.0)
    with pytest.raises(DataError):
        itl.cs_divergence_sample([[np.inf]], [[1.0]], 1.0)
    with pytest.raises(DataError):
        itl.cs_divergence_sample([[1.0]], [[-np.inf]], 1.0)


def test_estimators_permutation_invariant():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(11, 3))
    z = rng.normal(size=(11, 3)) + 0.5
    perm = rng.permutation(11)
    assert itl.cs_divergence_sample(x, z, 0.5) == pytest.approx(
        itl.cs_divergence_sample(x[perm], z[perm[::-1]], 0.5), abs=1e-12)
    g1 = _norm_gram(x, 0.5)
    g2 = _norm_gram(x[perm], 0.5)
    assert itl.renyi2_matrix(g1).value == pytest.approx(
        itl.renyi2_matrix(g2).value, abs=1e-12)


def _eigen_entropy(a):
    lam = np.linalg.eigvalsh(a)
    return -math.log2(float(np.sum(lam * lam)))


def test_mi_with_latent_grad_matches_eigen_oracle():
    rng = np.random.default_rng(24)
    n, sigma = 12, 0.6
    x = rng.normal(size=(n, 4))
    z = rng.normal(size=(n, 2)) * 0.5
    xhat = ndmath.gaussian_gram(x, sigma) / n
    zhat = ndmath.gaussian_gram(z, sigma) / n
    joint = xhat * zhat / np.trace(xhat * zhat)
    hx, hz, hxz = (_eigen_entropy(m) for m in (xhat, zhat, joint))
    floor = itl.ENTROPY_FLOOR
    expected = {
        "ratio": math.log2(max(hx, floor) * max(hz, floor) / max(hxz, floor) ** 2),
        "additive": hx + hz - hxz,
    }
    for mode, mi_oracle in expected.items():
        mi, grad, comps = itl.matrix_mi_with_latent_grad(xhat, z, sigma, mode=mode)
        assert comps == pytest.approx((hx, hz, hxz), abs=1e-9)
        assert mi == pytest.approx(mi_oracle, abs=1e-9)
        assert grad.shape == z.shape
    with pytest.raises(ParameterError):
        itl.matrix_mi_with_latent_grad(xhat[1:, 1:], z, sigma)
    with pytest.raises(ParameterError):
        itl.matrix_mi_with_latent_grad(xhat, z, sigma, mode="cs")
    with pytest.raises(DegeneracyError):
        itl.matrix_mi_with_latent_grad(np.zeros_like(xhat), z, sigma)


def test_mi_with_latent_grad_floors_collapsed_latents():
    rng = np.random.default_rng(25)
    n, sigma = 9, 0.4
    x = rng.normal(size=(n, 3))
    xhat = ndmath.gaussian_gram(x, sigma) / n
    # identical latent rows: zhat is 1/N everywhere, so Hz = 0 is floored
    # and the joint Gram is xhat itself
    z = np.tile([[0.3, -0.2]], (n, 1))
    mi, grad, (hx, hz, hxz) = itl.matrix_mi_with_latent_grad(xhat, z, sigma)
    assert hz == pytest.approx(0.0, abs=1e-12)
    assert hxz == pytest.approx(hx, abs=1e-12)
    assert mi == pytest.approx(math.log2(itl.ENTROPY_FLOOR / hx), abs=1e-9)
    assert np.max(np.abs(grad)) <= 1e-12
    # nearly identical rows keep Hz under the floor: the gradient is the
    # Hxz part alone, which finite differences of the floored MI confirm
    z = z + 1e-3 * rng.normal(size=z.shape)
    _, grad, (_, hz, _) = itl.matrix_mi_with_latent_grad(xhat, z, sigma)
    assert 0.0 < hz < itl.ENTROPY_FLOOR
    h = 1e-7
    for i, j in [(0, 0), (4, 1), (8, 0)]:
        zp, zm = z.copy(), z.copy()
        zp[i, j] += h
        zm[i, j] -= h
        fd = (itl.matrix_mi_with_latent_grad(xhat, zp, sigma)[0]
              - itl.matrix_mi_with_latent_grad(xhat, zm, sigma)[0]) / (2 * h)
        assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("mode", ["ratio", "additive"])
@pytest.mark.parametrize("n", [2, 3, 17, 255, 300])
def test_mi_row_blocks_match_whole_batch(monkeypatch, n, mode):
    rng = np.random.default_rng(27 + n)
    sigma = 0.6
    x = rng.uniform(size=(n, 5))
    z = rng.normal(size=(n, 3)) * 0.5
    xhat = ndmath.gaussian_gram(x, sigma) / n
    # at the default block size every batch here is one block: the Gram
    # built from x is the given one, bit for bit
    ref = itl.matrix_mi_with_latent_grad(xhat, z, sigma, mode=mode)
    mi, grad, comps = itl.matrix_mi_with_latent_grad(None, z, sigma, mode=mode, x=x)
    assert (mi, comps) == (ref[0], ref[2])
    assert np.array_equal(grad, ref[1])
    scale = np.max(np.abs(ref[1]))
    for rows in (1, n // 3 + 1, n):  # one row, uneven blocks, the whole batch
        monkeypatch.setattr(itl, "_MI_BLOCK", rows * n)
        for given, work in ((xhat, None), (None, None), (None, itl.mi_workspace([n]))):
            mi, grad, comps = itl.matrix_mi_with_latent_grad(
                given, z, sigma, mode=mode, x=x, work=work)
            if rows == n:
                assert (mi, comps) == (ref[0], ref[2])
                assert np.array_equal(grad, ref[1])
            assert abs(mi - ref[0]) <= 1e-12 * max(1.0, abs(ref[0]))
            assert comps == pytest.approx(ref[2], rel=1e-12, abs=1e-12)
            assert np.max(np.abs(grad - ref[1])) <= 1e-10 * scale


def test_mi_from_batch_rejects_mismatched_input():
    z = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        itl.matrix_mi_with_latent_grad(None, z, 0.5)
    with pytest.raises(ParameterError):
        itl.matrix_mi_with_latent_grad(None, z, 0.5, x=np.ones((3, 2)))
    with pytest.raises(DataError):
        itl.matrix_mi_with_latent_grad(None, z, 0.5, x=np.full((4, 2), np.nan))


def test_sample_estimators_finite_on_wide_input():
    # at d=600 and sigma=0.1 the density constant is about 1e270 per
    # information potential; off-diagonal kernels underflow to 0
    rng = np.random.default_rng(26)
    x = rng.uniform(size=(8, 600))
    d_cs = itl.cs_divergence_sample(x, x + 0.05, 0.1)
    assert math.isfinite(d_cs)
    # only the matched pairs, 600 * 0.05^2 apart, survive in the cross term
    assert d_cs == pytest.approx(600 * 0.05 ** 2 / (4 * 0.1 ** 2), abs=1e-6)
