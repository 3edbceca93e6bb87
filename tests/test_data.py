import numpy as np
import pytest

from drmdit import data
from drmdit.errors import DataError, ParameterError


def test_load_csv_basic(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    fm, dropped = data.load_csv(p)
    assert fm.features.shape == (3, 2)
    assert fm.labels is None
    assert dropped == 0
    assert fm.feature_names == ["a", "b"]


def test_load_csv_drops_nan_row(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b\n1,2\nNaN,4\n5,6\n")
    fm, dropped = data.load_csv(p)
    assert fm.features.shape == (2, 2)
    assert dropped == 1


def test_load_csv_drops_unparseable_row(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b\n1,2\nx,4\n")
    fm, dropped = data.load_csv(p)
    assert fm.features.shape == (1, 2)
    assert dropped == 1


def test_load_csv_drops_row_ending_before_label(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,b,label\n1,2,0\n3,4\n5,6,1\n")
    fm, dropped = data.load_csv(p, label_column="label")
    assert fm.features.tolist() == [[1.0, 2.0], [5.0, 6.0]]
    assert fm.labels.tolist() == [0, 1]
    assert dropped == 1


def test_load_csv_label_mapping(tmp_path):
    p = tmp_path / "in.csv"
    p.write_text("a,label\n1,BENIGN\n2,DDoS\n3,normal\n")
    fm, _ = data.load_csv(p, label_column="label")
    assert fm.labels.tolist() == [0, 1, 0]
    assert fm.feature_names == ["a"]


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError):
        data.load_csv(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        data.load_csv(empty)
    no_rows = tmp_path / "norows.csv"
    no_rows.write_text("a,b\nx,y\n")
    with pytest.raises(DataError):
        data.load_csv(no_rows)


def test_save_csv_roundtrip(tmp_path):
    fm = data.FeatureMatrix(
        features=np.array([[0.1, 0.25], [1.5, -3.75]]),
        labels=np.array([0, 1]),
        feature_names=["a", "b"],
    )
    p = tmp_path / "out.csv"
    data.save_csv(fm, p)
    back, dropped = data.load_csv(p, label_column="label")
    assert dropped == 0
    assert np.array_equal(back.features, fm.features)
    assert np.array_equal(back.labels, fm.labels)


def test_fit_apply_minmax_hand_case():
    fm = data.FeatureMatrix(features=np.array([[2.0], [4.0], [6.0]]))
    record = data.fit_minmax(fm)
    out = data.apply_minmax(fm, record)
    assert np.allclose(out.features.ravel(), [0.0, 0.5, 1.0])


def test_apply_minmax_constant_feature_maps_to_zero():
    fm = data.FeatureMatrix(features=np.full((4, 1), 3.0))
    out = data.apply_minmax(fm, data.fit_minmax(fm))
    assert np.all(out.features == 0.0)


def test_apply_minmax_uses_training_record():
    train = data.FeatureMatrix(features=np.array([[0.0], [10.0]]))
    record = data.fit_minmax(train)
    test = data.FeatureMatrix(features=np.array([[5.0], [20.0]]))
    out = data.apply_minmax(test, record)
    assert np.allclose(out.features.ravel(), [0.5, 2.0])  # out-of-range values extrapolate


def test_apply_minmax_record_mismatch():
    fm = data.FeatureMatrix(features=np.zeros((2, 2)))
    record = data.fit_minmax(data.FeatureMatrix(features=np.zeros((2, 3))))
    with pytest.raises(ParameterError):
        data.apply_minmax(fm, record)


def test_skew_filter_gaussian_drops_almost_nothing():
    rng = np.random.default_rng(40)
    fm = data.FeatureMatrix(features=rng.standard_normal((20_000, 3)))
    _, dropped, widened = data.skew_filter(fm)
    assert dropped / 20_000 < 0.001
    assert not widened


def test_skew_filter_single_outlier_row():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((200, 2))
    med = np.median(x[:, 0])
    mad = np.median(np.abs(x[:, 0] - med))
    x[17, 0] = med + 100.0 * mad
    fm = data.FeatureMatrix(features=x)
    out, dropped, _ = data.skew_filter(fm)
    assert dropped == 1
    assert out.n_rows == 199
    assert not np.any(np.isclose(out.features[:, 0], x[17, 0]))


def test_skew_filter_constant_dataset():
    fm = data.FeatureMatrix(features=np.full((50, 2), 1.0))
    out, dropped, _ = data.skew_filter(fm)
    assert dropped == 0
    assert out.n_rows == 50


def test_skew_filter_drop_cap():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((100, 1))
    x[:40] += 1000.0  # 40% gross outliers; cap limits the drop to 10%
    out, dropped, widened = data.skew_filter(data.FeatureMatrix(features=x))
    assert dropped <= 10
    assert widened


def test_skew_filter_idempotent_on_clean_data():
    rng = np.random.default_rng(43)
    fm = data.FeatureMatrix(features=rng.standard_normal((5000, 2)))
    once, _, _ = data.skew_filter(fm)
    twice, dropped2, _ = data.skew_filter(once)
    assert dropped2 <= max(1, int(0.001 * once.n_rows))


def test_synth_generate_all_normal():
    fm = data.synth_generate(data.SynthSpec(n_normal=50, n_near=0, n_far=0, d=4))
    assert np.all(fm.labels == 0)
    assert fm.features.shape == (50, 4)


def test_synth_generate_deterministic():
    spec = data.SynthSpec(n_normal=100, n_near=20, n_far=20, seed=5)
    a = data.synth_generate(spec)
    b = data.synth_generate(spec)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_synth_generate_far_distance_oracle():
    fm = data.synth_generate(data.SynthSpec())
    normals = fm.features[fm.tags == "normal"]
    far = fm.features[fm.tags == "far"]
    centroid = normals.mean(axis=0)
    normal_d = np.linalg.norm(normals - centroid, axis=1)
    far_d = np.linalg.norm(far - centroid, axis=1)
    assert far_d.mean() > 4.0 * np.percentile(normal_d, 99)


def test_synth_generate_near_stays_close():
    fm = data.synth_generate(data.SynthSpec())
    normals = fm.features[fm.tags == "normal"]
    near = fm.features[fm.tags == "near"]
    centroid = normals.mean(axis=0)
    near_d = np.linalg.norm(near - centroid, axis=1)
    # lies near the normal manifold: inside ~1.5x the normals' max distance
    assert near_d.max() < 1.5 * np.linalg.norm(normals - centroid, axis=1).max()


def test_synth_generate_rejects_low_dim():
    with pytest.raises(ParameterError):
        data.synth_generate(data.SynthSpec(d=1))


def test_split_counts():
    fm = data.FeatureMatrix(features=np.arange(20).reshape(10, 2))
    tr, va, te = data.split(fm, 0.8, seed=0)
    assert (tr.n_rows, va.n_rows, te.n_rows) == (8, 1, 1)
    all_rows = np.vstack([tr.features, va.features, te.features])
    assert sorted(map(tuple, all_rows)) == sorted(map(tuple, fm.features))


def test_split_stratified_balance():
    labels = np.array([0, 1] * 50)
    fm = data.FeatureMatrix(features=np.arange(200, dtype=float).reshape(100, 2),
                            labels=labels)
    tr, va, te = data.split(fm, 0.8, seed=1)
    for part in (tr, va, te):
        counts = np.bincount(part.labels, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_split_deterministic():
    fm = data.FeatureMatrix(features=np.random.default_rng(44).normal(size=(30, 2)))
    a = data.split(fm, 0.6, seed=7)
    b = data.split(fm, 0.6, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)


def test_split_insufficient_rows():
    fm = data.FeatureMatrix(features=np.zeros((2, 1)))
    with pytest.raises(ParameterError):
        data.split(fm, 0.9)


def test_dataclass_from_dict_value_types():
    from drmdit.train import TrainConfig

    cfg = data.dataclass_from_dict(
        TrainConfig, {"sigma": 1, "hidden_dims": None, "weights": {"alpha": 2}}, "cfg")
    assert cfg.sigma == 1 and cfg.hidden_dims is None and cfg.weights.alpha == 2
    assert data.dataclass_from_dict(TrainConfig, {"hidden_dims": [6, 4]}, "cfg").hidden_dims == [6, 4]
    for bad in ({"epochs": True}, {"latent_dim": 3.0}, {"hidden_dims": [6, "4"]},
                {"mi_mode": 1}, {"learning_rate": None}):
        with pytest.raises(ParameterError):
            data.dataclass_from_dict(TrainConfig, bad, "cfg")
