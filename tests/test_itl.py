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
    # the reference is the whole batch as one strip. The batch route builds
    # N^2 (xhat * xhat) as the kernel at sigma / sqrt(2), the given-Gram
    # route squares xhat: they agree to the last bits
    default = itl._block_rows(n)
    monkeypatch.setattr(itl, "_block_rows", lambda m: m)
    ref = itl.matrix_mi_with_latent_grad(None, z, sigma, mode=mode, x=x)
    scale = np.max(np.abs(ref[1]))
    # one row, uneven strips, the default strips, the whole batch
    for rows in (1, n // 3 + 1, default, n):
        monkeypatch.setattr(itl, "_block_rows", lambda m, rows=rows: rows)
        for given, work in ((xhat, None), (None, None), (None, itl.mi_workspace([n]))):
            mi, grad, comps = itl.matrix_mi_with_latent_grad(
                given, z, sigma, mode=mode, x=x, work=work)
            if rows == n and given is None:
                assert (mi, comps) == (ref[0], ref[2])
                assert np.array_equal(grad, ref[1])
            assert abs(mi - ref[0]) <= 1e-12 * max(1.0, abs(ref[0]))
            assert comps == pytest.approx(ref[2], rel=1e-12, abs=1e-12)
            assert np.max(np.abs(grad - ref[1])) <= 1e-10 * scale


@pytest.mark.parametrize("n", [2, 3, 255, 256, 362, 363, 1011, 1024])
def test_every_batch_of_two_or_more_rows_is_at_least_two_strips(n):
    rows = itl._block_rows(n)
    assert rows < n and rows * n <= itl._MI_BLOCK
    if n <= 512:  # half the batch, rounded up, fits one strip buffer
        assert rows == (n + 1) // 2
    else:  # as many rows as fit: batches of 1024 and 1011 keep 128 and 129
        assert rows == itl._MI_BLOCK // n


def test_mi_workspace_holds_half_a_batch_of_256():
    gram, latent = itl.mi_workspace([256])
    assert gram.size == latent.size == 128 * 256


def _mi_reference(xhat, z, sigma, mode):
    """The MI, its latent gradient and entropies by the formula used before
    K * K became the kernel at sigma / sqrt(2): whole N x N matrices, K
    squared, P * P as (K * K) * xhat * xhat, and np.vdot sums."""
    n = z.shape[0]
    kk = np.square(ndmath.gaussian_gram(z, sigma))
    np.fill_diagonal(kk, 0.0)
    z1 = np.hstack([z, np.ones((n, 1))])
    k2z = kk @ z1
    kk *= xhat
    kk *= xhat
    p2z = kk @ z1
    xdiag = np.diagonal(xhat)
    tp = float(xdiag.sum())
    sz = (float(k2z[:, -1].sum()) + n) / (n * n)
    sj = (float(p2z[:, -1].sum()) + float(np.vdot(xdiag, xdiag))) / (tp * tp)
    hx, hz, hxz = (-math.log2(v) for v in (float(np.vdot(xhat, xhat)), sz, sj))
    if mode == "ratio":
        floor = itl.ENTROPY_FLOOR
        a, b, c = max(hx, floor), max(hz, floor), max(hxz, floor)
        mi = math.log2(a * b / (c * c))
        dmi_dhz = 1.0 / (b * itl.LN2) if hz > floor else 0.0
        dmi_dhxz = -2.0 / (c * itl.LN2) if hxz > floor else 0.0
    else:
        mi, dmi_dhz, dmi_dhxz = hx + hz - hxz, 1.0, -1.0
    bz = (-2.0 * dmi_dhz / (sz * itl.LN2 * n * n) * k2z
          - 2.0 * dmi_dhxz / (sj * itl.LN2 * tp * tp) * p2z)
    return mi, (2.0 / (sigma * sigma)) * (bz[:, :-1] - bz[:, -1:] * z), (hx, hz, hxz)


@pytest.mark.parametrize("mode", ["ratio", "additive"])
@pytest.mark.parametrize("n, sigma", [(64, 0.6), (300, 0.4), (256, 0.1), (254, 0.1),
                                      (1011, 0.9)])
def test_mi_matches_the_squared_kernel_reference(monkeypatch, n, sigma, mode):
    # K * K taken as the kernel at sigma / sqrt(2), xhat squared once and
    # np.sum's entropy sums move only the last bits, on one block and on
    # several, from a given Gram and from the batch
    rng = np.random.default_rng(29 + n)
    x = rng.uniform(size=(n, 10)) * sigma
    z = rng.normal(size=(n, 10)) * 0.3 * sigma  # pairwise distances near sigma
    xhat = ndmath.gaussian_gram(x, sigma) / n
    ref_mi, ref_grad, ref_comps = _mi_reference(xhat, z, sigma, mode)
    scale = np.max(np.abs(ref_grad))
    for rows in (n, n // 4 + 1):
        monkeypatch.setattr(itl, "_block_rows", lambda m, rows=rows: rows)
        for given in (xhat, None):
            mi, grad, comps = itl.matrix_mi_with_latent_grad(given, z, sigma, mode=mode, x=x)
            assert abs(mi - ref_mi) <= 1e-12 * abs(ref_mi)
            assert comps == pytest.approx(ref_comps, rel=1e-12, abs=0)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * scale


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
