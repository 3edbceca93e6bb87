import math

import numpy as np
import pytest

from drmdit import itl, ndmath
from drmdit.errors import ParameterError
from drmdit.ndmath import NormalizedGram


def _norm_gram(x, sigma):
    return ndmath.normalize_gram(ndmath.gaussian_gram(x, sigma))


def test_renyi2_sample_single_point():
    h = itl.renyi2_sample([[0.0]], sigma=1.0)
    assert h.value == pytest.approx(1.26551, abs=1e-5)
    assert h.basis == "natural" and h.kind == "sample"


def test_renyi2_sample_duplication_invariance():
    h1 = itl.renyi2_sample([[0.0]], sigma=1.0)
    h5 = itl.renyi2_sample([[0.0]] * 5, sigma=1.0)
    assert h5.value == pytest.approx(h1.value, abs=1e-12)


def test_renyi2_sample_spreading_increases_entropy():
    vals = [itl.renyi2_sample([[0.0], [sep]], sigma=1.0).value
            for sep in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_renyi2_sample_rejects_bad_sigma():
    with pytest.raises(ParameterError):
        itl.renyi2_sample([[0.0]], sigma=-1.0)


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


def test_joint_entropy_matrix_identity_case():
    g = NormalizedGram(mat=np.eye(4) / 4.0)
    assert itl.joint_entropy_matrix(g, g).value == pytest.approx(2.0, abs=1e-12)


def test_joint_entropy_matrix_constant_factor():
    rng = np.random.default_rng(18)
    gx = _norm_gram(rng.normal(size=(5, 2)), 0.5)
    gz = NormalizedGram(mat=np.full((5, 5), 0.2))
    assert itl.joint_entropy_matrix(gx, gz).value == pytest.approx(
        itl.renyi2_matrix(gx).value, abs=1e-12)


def test_joint_entropy_matrix_single_sample():
    g = NormalizedGram(mat=np.array([[1.0]]))
    assert itl.joint_entropy_matrix(g, g).value == pytest.approx(0.0, abs=1e-12)


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


def test_mi_cs_equal_entropies():
    h = itl.EntropyValue(value=1.7, basis="log2", kind="matrix")
    assert itl.mi_cs(h, h, h).value == pytest.approx(0.0)


def test_mi_cs_hand_cases():
    def ev(v):
        return itl.EntropyValue(value=v, basis="log2", kind="matrix")
    assert itl.mi_cs(ev(2.0), ev(2.0), ev(1.0)).value == pytest.approx(2.0)
    assert itl.mi_cs(ev(1.0), ev(1.0), ev(2.0)).value == pytest.approx(-2.0)


def test_mi_cs_floors_components():
    def ev(v):
        return itl.EntropyValue(value=v, basis="log2", kind="matrix")
    out = itl.mi_cs(ev(0.0), ev(2.0), ev(1.0))
    assert out.components[0] == itl.ENTROPY_FLOOR
    assert math.isfinite(out.value)


def test_mi_cs_rejects_sample_basis():
    bad = itl.EntropyValue(value=1.0, basis="natural", kind="sample")
    good = itl.EntropyValue(value=1.0, basis="log2", kind="matrix")
    with pytest.raises(ParameterError):
        itl.mi_cs(bad, good, good)


def test_mi_additive_hand_case():
    def ev(v):
        return itl.EntropyValue(value=v, basis="log2", kind="matrix")
    assert itl.mi_additive(ev(2.0), ev(1.5), ev(2.5)).value == pytest.approx(1.0)


def test_estimators_permutation_invariant():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(11, 3))
    perm = rng.permutation(11)
    assert itl.renyi2_sample(x, 0.5).value == pytest.approx(
        itl.renyi2_sample(x[perm], 0.5).value, abs=1e-12)
    g1 = _norm_gram(x, 0.5)
    g2 = _norm_gram(x[perm], 0.5)
    assert itl.renyi2_matrix(g1).value == pytest.approx(
        itl.renyi2_matrix(g2).value, abs=1e-12)
