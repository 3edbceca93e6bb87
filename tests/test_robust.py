import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drmdit import robust
from drmdit.errors import ParameterError


def _assert_median_is_np_median(x):
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 2 * 1e308
        want = np.median(x, axis=0)
        got = robust.median(x)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ties and signed zeros among arbitrary finite and infinite values
_MEDIAN_CELLS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                          st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 9), k=st.integers(1, 3), nan_at=st.none() | st.integers(0, 8),
       data=st.data())
def test_median_is_np_median_byte_for_byte(n, k, nan_at, data):
    x = np.array(data.draw(st.lists(_MEDIAN_CELLS, min_size=n * k, max_size=n * k)))
    x = x.reshape(n, k)
    if nan_at is not None:  # a NaN in the first column
        x[nan_at % n, 0] = np.nan
    _assert_median_is_np_median(x)
    _assert_median_is_np_median(x[:, 0])  # 1-d, strided and contiguous
    _assert_median_is_np_median(x[:, -1].copy())


@pytest.mark.parametrize("column", [[-0.0], [-0.0, -0.0], [-0.0, 0.0, -0.0],
                                    [3.0, -0.0], [np.nan], [1.0, np.nan],
                                    [2.0, 2.0, 1.0, 2.0]])
def test_median_of_small_columns_is_np_median(column):
    x = np.array(column)
    _assert_median_is_np_median(x)
    _assert_median_is_np_median(np.column_stack([x, x[::-1], np.arange(x.size)]))


def test_median_of_no_rows_is_nan():
    # as np.median gives, without its empty-slice warning
    assert np.isnan(robust.median(np.empty(0)))
    assert np.isnan(robust.median(np.empty((0, 3)))).tolist() == [True] * 3


def test_mad_hand_case():
    # [1, 2, 4, 8]: median 3, |dev| = [2, 1, 1, 5], MAD = 1.5
    assert robust.mad([1, 2, 4, 8]) == pytest.approx(1.5)


def test_mad_floor():
    assert robust.mad([7.0, 7.0, 7.0]) == robust.MAD_FLOOR


def test_mad_translation_and_scale():
    rng = np.random.default_rng(5)
    v = rng.normal(size=200)
    assert robust.mad(v + 10.0) == pytest.approx(robust.mad(v), abs=1e-12)
    assert robust.mad(3.0 * v) == pytest.approx(3.0 * robust.mad(v), rel=1e-12)


def test_robust_correlation_gaussian_diagonal():
    # Monte-Carlo: E[(Z - med)^2] / MAD^2 for standard normal is
    # 1 / 0.6745^2 ~= 2.198
    rng = np.random.default_rng(6)
    z = rng.standard_normal((100_000, 1))
    stats = robust.robust_correlation(z)
    assert stats.corr[0, 0] == pytest.approx(2.198, abs=0.05)


def test_robust_correlation_symmetry_and_inverse():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((400, 4)) @ rng.normal(size=(4, 4))
    stats = robust.robust_correlation(z)
    assert np.array_equal(stats.corr, stats.corr.T)
    cov = robust.classical_stats(z).cov
    assert np.array_equal(cov, cov.T)
    resid = (stats.corr + 1e-6 * np.eye(4)) @ stats.corr_inv - np.eye(4)
    assert np.max(np.abs(resid)) <= 1e-8


def test_robust_correlation_rejects_tiny_batches():
    with pytest.raises(ParameterError):
        robust.robust_correlation(np.zeros((1, 3)))


def test_robust_md_zero_at_median():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((50, 3))
    stats = robust.robust_correlation(z)
    d = robust.robust_md(stats.medians[None, :], stats)
    assert d[0] == pytest.approx(0.0, abs=1e-12)


def test_robust_md_translation_equivariance():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((300, 4))
    shift = np.array([1.0, -2.0, 0.5, 3.0])
    s1 = robust.robust_correlation(z)
    s2 = robust.robust_correlation(z + shift)
    d1 = robust.robust_md(z, s1)
    d2 = robust.robust_md(z + shift, s2)
    assert np.allclose(d1, d2, atol=1e-8)


def test_robust_md_nonnegative_and_monotone_along_ray():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((200, 3))
    stats = robust.robust_correlation(z)
    direction = np.array([1.0, 1.0, 1.0])
    scales = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
    pts = stats.medians + scales[:, None] * direction
    d = robust.robust_md(pts, stats)
    assert np.all(d >= 0)
    assert np.all(np.diff(d) > 0)


def test_robust_md_dimension_mismatch():
    stats = robust.robust_correlation(np.random.default_rng(0).normal(size=(10, 3)))
    with pytest.raises(ParameterError):
        robust.robust_md(np.zeros((2, 4)), stats)


def test_classical_md_zero_at_mean():
    rng = np.random.default_rng(12)
    z = rng.standard_normal((50, 3))
    stats = robust.classical_stats(z)
    assert robust.classical_md(stats.means[None, :], stats)[0] == pytest.approx(0.0, abs=1e-12)


def test_classical_md_identity_cov_hand_case():
    stats = robust.ClassicalStats(
        means=np.zeros(2), cov=np.eye(2), cov_inv=np.eye(2))
    d = robust.classical_md(np.array([[0.0, 2.0]]), stats)
    assert d[0] == pytest.approx(2.0)


def test_classical_stats_matches_numpy_cov():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((500, 3))
    stats = robust.classical_stats(z)
    assert np.allclose(stats.means, z.mean(axis=0))
    assert np.allclose(stats.cov, np.cov(z, rowvar=False, bias=True), atol=1e-12)


def test_robust_md_contamination_resistance():
    # A handful of extreme outliers should barely move robust stats, while
    # classical stats shift noticeably.
    rng = np.random.default_rng(14)
    clean = rng.standard_normal((1000, 2))
    contaminated = clean.copy()
    contaminated[:20] += 50.0
    rs_clean = robust.robust_correlation(clean)
    rs_dirty = robust.robust_correlation(contaminated)
    assert np.max(np.abs(rs_clean.medians - rs_dirty.medians)) < 0.1
    cs_clean = robust.classical_stats(clean)
    cs_dirty = robust.classical_stats(contaminated)
    assert np.max(np.abs(cs_clean.means - cs_dirty.means)) > 0.5


def _einsum_md(latents, location, inv):
    """The distances as the three-operand einsum took them before robust._md
    shared one delta @ inv product between the distance and its gradient."""
    delta = latents - location
    return np.sqrt(np.maximum(np.einsum("ni,ij,nj->n", delta, inv, delta), 0.0))


@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_md_matches_three_operand_einsum(k, offset):
    rng = np.random.default_rng(40 + k)
    z = rng.normal(size=(4096, k)) * rng.uniform(0.1, 3.0, size=k) + offset
    rs, cs = robust.robust_correlation(z), robust.classical_stats(z)
    for got, want in ((robust.robust_md(z, rs), _einsum_md(z, rs.medians, rs.corr_inv)),
                      (robust.classical_md(z, cs), _einsum_md(z, cs.means, cs.cov_inv))):
        assert np.max(np.abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize("ridge", [1e-6, 1e-12])
def test_md_matches_three_operand_einsum_at_an_ill_conditioned_ridge(ridge):
    # two nearly collinear columns: corr + ridge * I has a condition number
    # near 1e8, and the quadratic form sums terms about that much larger than
    # itself, so both formulas carry a relative error of about k * eps * 1e8.
    # They agree to 1e-13 of the terms' magnitude |delta|^T |inv| |delta|.
    rng = np.random.default_rng(47)
    z = rng.normal(size=(4096, 4))
    z[:, 1] = z[:, 0] + 1e-4 * z[:, 1]
    stats = robust.robust_correlation(z, ridge_epsilon=ridge)
    assert np.linalg.cond(stats.corr_inv) > 1e6
    delta = np.abs(z - stats.medians)
    terms = np.einsum("ni,ij,nj->n", delta, np.abs(stats.corr_inv), delta)
    got = robust.robust_md(z, stats)
    want = _einsum_md(z, stats.medians, stats.corr_inv)
    assert np.max(np.abs(got * got - want * want) / terms) <= 1e-13
