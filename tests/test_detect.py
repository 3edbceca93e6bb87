import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from drmdit import autoenc, detect, robust, train
from drmdit.errors import DegeneracyError, ParameterError


@pytest.fixture(scope="module")
def small_model():
    rng = np.random.default_rng(50)
    data = rng.normal(size=(200, 4))
    cfg = train.TrainConfig(sigma=0.3, batch_size=100, epochs=5,
                            latent_dim=2, seed=3)
    return train.fit(data, cfg)


def test_score_band_validation():
    with pytest.raises(ParameterError):
        detect.ScoreBand(low=0.5, high=0.5)
    with pytest.raises(ParameterError):
        detect.ScoreBand(low=np.inf, high=1.0)


def test_score_modes_shapes(small_model):
    x = np.random.default_rng(51).normal(size=(20, 4))
    for mode in detect.SCORING_MODES:
        s = detect.score(small_model, x, mode=mode)
        assert s.shape == (20,)
        assert np.all(s >= 0)


def test_score_rejects_unknown_mode(small_model):
    with pytest.raises(ParameterError):
        detect.score(small_model, np.zeros((2, 4)), mode="nope")


def test_score_rejects_width_mismatch(small_model):
    with pytest.raises(ParameterError):
        detect.score(small_model, np.zeros((2, 5)))


def test_score_zero_at_latent_median(small_model):
    # find an input whose latent equals the frozen median by gradient-free
    # construction: score the stats' own median preimage via a direct check
    # on the robust_md formula instead (the latent-median point itself).
    z = small_model.robust_stats.medians[None, :]
    assert robust.robust_md(z, small_model.robust_stats)[0] == pytest.approx(0.0, abs=1e-12)


def test_euclidean_score_zero_for_perfect_reconstruction():
    params = autoenc.init_params([3, 3], seed=0)
    params.weights[0][:] = np.eye(3)
    model = train.TrainedModel(
        params=params, robust_stats=None, classical_stats=None,
        config=train.TrainConfig(), loss_history=[],
        train_score_medians={})
    x = np.random.default_rng(52).normal(size=(5, 3)) * 1e-8
    s = detect.score(model, x, mode="euclidean_recon")
    assert np.max(s) < 1e-12


def test_md_scores_are_the_scores_of_the_forward_latent(small_model):
    x = np.random.default_rng(57).normal(size=(30, 4)) * 3.0
    latent = autoenc.forward(small_model.params, x).latent
    by_forward = {
        "robust_md": robust.robust_md(latent, small_model.robust_stats),
        "classical_md": robust.classical_md(latent, small_model.classical_stats),
    }
    for mode, expected in by_forward.items():
        assert detect.score(small_model, x, mode=mode).tobytes() == expected.tobytes()


def test_md_scoring_allocates_no_reconstruction():
    n, d = 20000, 41
    rng = np.random.default_rng(58)
    params = autoenc.init_params([d, 4, 2], seed=4)
    fit_rows = rng.normal(size=(200, d))
    latent = autoenc.forward(params, fit_rows).latent
    model = train.TrainedModel(
        params=params, robust_stats=robust.robust_correlation(latent),
        classical_stats=robust.classical_stats(latent), config=train.TrainConfig(),
        loss_history=[], train_score_medians={})
    x = rng.normal(size=(n, d))
    tracemalloc.start()
    try:
        detect.score(model, x, mode="robust_md")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8  # one n x d reconstruction would exceed it


@pytest.mark.parametrize("mode", detect.SCORING_MODES)
def test_non_finite_scores_are_a_degeneracy_error(small_model, mode):
    x = np.zeros((3, 4))
    x[1, 2] = np.nan  # as a library caller may pass; load_csv drops such rows
    with pytest.raises(DegeneracyError, match="1 of 3"):
        detect.score(small_model, x, mode=mode)


def test_fold_center_is_the_training_median_when_the_model_has_one(small_model,
                                                                   monkeypatch):
    def no_median(*args, **kwargs):
        raise AssertionError("the fallback median was computed")

    scores = np.array([0.5, 1.0, 4.0])
    expected = small_model.train_score_medians["classical_md"]
    with monkeypatch.context() as patch:
        patch.setattr(detect.np, "median", no_median)
        assert detect.fold_center(small_model, scores, "classical_md") == expected
    without = train.TrainedModel(
        params=small_model.params, robust_stats=small_model.robust_stats,
        classical_stats=small_model.classical_stats, config=small_model.config,
        loss_history=[], train_score_medians={})
    assert detect.fold_center(without, scores, "classical_md") == 1.0


def test_classify_band_hand_case():
    preds, tags = detect.classify([0.005, 0.05, 0.2],
                                  detect.ScoreBand(0.01, 0.08))
    assert preds.tolist() == [1, 0, 1]
    assert list(tags) == ["near", "normal", "far"]


def test_classify_empty_and_inside():
    preds, tags = detect.classify([], detect.ScoreBand(0.0, 1.0))
    assert preds.size == 0
    preds, _ = detect.classify([0.2, 0.5, 0.9], detect.ScoreBand(0.0, 1.0))
    assert np.all(preds == 0)


def test_classify_boundary_counts_as_normal():
    preds, tags = detect.classify([0.01, 0.08], detect.ScoreBand(0.01, 0.08))
    assert preds.tolist() == [0, 0]
    assert list(tags) == ["normal", "normal"]


def test_metrics_perfect_predictions():
    out = detect.metrics([0, 1, 0, 1], [0, 1, 0, 1])
    assert out["accuracy"] == 1.0
    assert out["precision"] == 1.0
    assert out["recall"] == 1.0


def test_metrics_confusion_oracle():
    preds = [1, 1, 0, 0, 1, 0]
    labels = [1, 0, 1, 0, 1, 1]
    # tp=2 fp=1 fn=2 tn=1
    out = detect.metrics(preds, labels)
    assert out["accuracy"] == pytest.approx(3 / 6)
    assert out["precision"] == pytest.approx(2 / 3)
    assert out["recall"] == pytest.approx(2 / 4)


def test_metrics_zero_predicted_positives():
    out = detect.metrics([0, 0, 0], [0, 1, 1])
    assert out["precision"] == 0.0
    assert out["no_predicted_positives"] is True


def test_metrics_shape_mismatch():
    with pytest.raises(ParameterError):
        detect.metrics([0, 1], [0, 1, 1])


def test_auc_hand_cases():
    assert detect.auc([0.1, 0.9], [0, 1], center=0.0) == 1.0
    assert detect.auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1], center=0.0) == 0.5


def test_auc_two_sided_folding():
    # normals cluster at 0.5; anomalies at both extremes
    scores = [0.5, 0.5, 0.5, 0.05, 0.95]
    labels = [0, 0, 0, 1, 1]
    assert detect.auc(scores, labels) == 1.0


def test_auc_monotone_invariance():
    rng = np.random.default_rng(53)
    t = np.abs(rng.normal(size=60))
    labels = (rng.uniform(size=60) < 0.4).astype(int)
    labels[0], labels[1] = 0, 1
    a1 = detect.auc(t, labels, center=0.0)
    a2 = detect.auc(3.0 * t + 1.0, labels, center=1.0)  # same fold ordering
    assert a1 == pytest.approx(a2, abs=1e-12)


def test_auc_matches_pairwise_count_with_ties():
    rng = np.random.default_rng(54)
    for n, levels in [(7, 3), (200, 5), (300, 1000), (50, 1)]:
        s = rng.integers(0, levels, size=n).astype(float)
        y = (rng.uniform(size=n) < 0.3).astype(int)
        y[0], y[1] = 0, 1
        t = np.abs(s - 1.0)
        tp, tn = t[y == 1][:, None], t[y == 0][None, :]
        brute = np.mean((tp > tn) + 0.5 * (tp == tn))
        assert detect.auc(s, y, center=1.0) == pytest.approx(brute, abs=1e-12)


def test_auc_single_class_error():
    with pytest.raises(ParameterError):
        detect.auc([0.1, 0.2], [1, 1])


def test_select_band_separable_bimodal():
    scores = np.concatenate([
        np.full(5, 0.01), np.linspace(0.4, 0.6, 10), np.full(5, 0.99)])
    labels = np.concatenate([np.ones(5), np.zeros(10), np.ones(5)]).astype(int)
    band = detect.select_band(scores, labels)
    preds, _ = detect.classify(scores, band)
    assert detect.metrics(preds, labels)["accuracy"] == 1.0
    assert band.low > 0.01 and band.low < 0.4
    assert band.high > 0.6 and band.high < 0.99


def test_select_band_one_sided_far_only():
    scores = np.concatenate([np.linspace(0.2, 0.4, 20), np.full(5, 0.9)])
    labels = np.concatenate([np.zeros(20), np.ones(5)]).astype(int)
    band = detect.select_band(scores, labels)
    assert band.low < scores.min()
    preds, tags = detect.classify(scores, band)
    assert detect.metrics(preds, labels)["accuracy"] == 1.0
    assert "near" not in tags


def test_select_band_single_class_error():
    with pytest.raises(ParameterError):
        detect.select_band([0.1, 0.2, 0.3], [0, 0, 0])


def test_select_band_large_input_recall():
    rng = np.random.default_rng(54)
    n = 5000
    scores = np.concatenate([rng.normal(0.5, 0.05, n),
                             rng.normal(0.0, 0.01, 200),
                             rng.normal(1.0, 0.01, 200)])
    labels = np.concatenate([np.zeros(n), np.ones(400)]).astype(int)
    band = detect.select_band(scores, labels)
    preds, _ = detect.classify(scores, band)
    assert detect.metrics(preds, labels)["recall"] > 0.95


def _best_band_by_enumeration(scores, labels):
    """Every band with edges between distinct scores (midpoints, plus one
    sentinel half the spread beyond each extreme), scored by what classify
    flags, F1 compared as exact fractions. Ties: fewest flagged, then the
    widest band, then the lowest (low, high) cut indices."""
    values = np.unique(scores)
    spread = values[-1] - values[0]
    margin = 0.5 * spread if spread > 0 else 1.0
    mids = 0.5 * (values[:-1] + values[1:])
    lows = np.concatenate([[values[0] - margin], mids])
    highs = np.concatenate([mids, [values[-1] + margin]])
    n_pos = int(np.sum(labels))
    best = None
    for i in range(values.size):
        for j in range(i, values.size):
            band = detect.ScoreBand(float(lows[i]), float(highs[j]))
            preds, _ = detect.classify(scores, band)
            tp = int(np.sum(preds * labels))
            flagged = int(np.sum(preds))
            key = (Fraction(2 * tp, flagged + n_pos), -flagged, highs[j] - lows[i], -i, -j)
            if best is None or key > best[0]:
                best = (key, band)
    return best[1]


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.integers(0, 12), min_size=2, max_size=80),
       flips=st.lists(st.booleans(), min_size=80, max_size=80),
       scale=st.sampled_from([1.0, 0.37, 1e-3, 250.0]))
def test_select_band_is_the_enumerated_optimum(levels, flips, scale):
    scores = np.asarray(levels, dtype=np.float64) * scale
    labels = np.asarray(flips[:scores.size], dtype=np.int64)
    assume(0 < labels.sum() < labels.size)
    assert detect.select_band(scores, labels) == _best_band_by_enumeration(scores, labels)


def test_select_band_flags_equal_scores_together():
    # three equal scores used to meet at one edge, low == high
    scores = np.array([0.0, 1.0, 2.0, 2.0, 2.0])
    labels = np.array([1, 1, 1, 0, 1])
    band = detect.select_band(scores, labels)
    assert (band.low, band.high) == (-1.0, 0.5)
    preds, _ = detect.classify(scores, band)
    assert preds.tolist() == [0, 1, 1, 1, 1]


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_select_band_memory_is_linear():
    # one sort, then a scan over five arrays of the distinct scores: about
    # 41 bytes a row
    rng = np.random.default_rng(56)
    n = 20_000
    scores = rng.normal(size=n)
    labels = (np.abs(scores) > 1.5).astype(np.int64)
    detect.select_band(scores[:50], labels[:50])  # first call: lazy imports, caches
    assert _peak_bytes(lambda: detect.select_band(scores, labels)) < 48 * n


def test_auc_memory_is_linear():
    # the sorted copy is freed before the ranks are built: about 42 bytes
    # a row
    rng = np.random.default_rng(57)
    n = 20_000
    scores = rng.normal(size=n)
    labels = (np.abs(scores) > 1.5).astype(np.int64)
    detect.auc(scores[:50], labels[:50], center=0.0)  # first call: lazy imports, caches
    assert _peak_bytes(lambda: detect.auc(scores, labels, center=0.0)) < 48 * n


def test_score_of_a_small_array_copies_no_block():
    # a partial last block that lies in one chunk is scored as a view of it,
    # not copied into a 4096-row buffer (4.0 MB here); the reconstruction
    # error mode decodes the block: about two inputs' worth
    rng = np.random.default_rng(59)
    d = 122
    params = autoenc.init_params([d, 8, 2], seed=5)
    latent = autoenc.forward(params, rng.normal(size=(300, d))).latent
    model = train.TrainedModel(
        params=params, robust_stats=robust.robust_correlation(latent),
        classical_stats=robust.classical_stats(latent), config=train.TrainConfig(),
        loss_history=[], train_score_medians={})
    x = rng.normal(size=(100, d))
    for mode in detect.SCORING_MODES:
        detect.score(model, x, mode=mode)  # first call: lazy imports, caches
        assert _peak_bytes(lambda: detect.score(model, x, mode=mode)) < 4 * x.nbytes


def test_evaluate_of_a_chunk_stream_holds_few_bytes_a_row(small_model):
    # scores, labels and the report's columns, with the band search and the
    # AUC run before those columns exist: about 50 bytes a row
    n = 40_000
    rng = np.random.default_rng(60)
    x = rng.normal(size=(n, 4))
    labels = (rng.uniform(size=n) < 0.1).astype(np.int64)
    x[labels == 1] *= 3.0
    chunks = np.array_split(x, 9)

    class Stream:
        pass

    def run():
        Stream.features = iter(chunks)
        Stream.labels = labels
        return detect.evaluate(small_model, Stream, mode="robust_md")

    run()  # first call: lazy imports, caches
    assert _peak_bytes(run) < 64 * n


def test_evaluate_and_emit_report(small_model, tmp_path):
    rng = np.random.default_rng(55)
    x = rng.normal(size=(50, 4))
    labels = np.zeros(50, dtype=int)
    labels[:10] = 1
    x[:10] += 6.0

    class D:
        features = x

    D.labels = labels
    report = detect.evaluate(small_model, D, mode="robust_md")
    assert report.metrics is not None and "auc" in report.metrics

    prefix = tmp_path / "run"
    rp, tp = detect.emit_report(report, prefix)
    with open(rp) as fh:
        doc = json.loads(fh.read())
    assert doc["n_samples"] == 50
    with open(tp) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "index,score,transformed_score,label,prediction,tag"
    assert len(lines) == 51

    # re-emit is byte-identical
    with open(rp, "rb") as rfh, open(tp, "rb") as tfh:
        first = (rfh.read(), tfh.read())
    detect.emit_report(report, prefix)
    with open(rp, "rb") as rfh, open(tp, "rb") as tfh:
        assert (rfh.read(), tfh.read()) == first


def test_emit_report_unlabeled_omits_label_column(tmp_path):
    report = detect.ScoreReport(
        scores=np.array([0.1, 0.2, 0.3]),
        transformed_scores=np.array([0.0, 0.1, 0.2]),
        predictions=np.array([0, 0, 1]),
        tags=["normal", "normal", "far"],
        band=detect.ScoreBand(0.05, 0.25),
        scoring_mode="robust_md",
    )
    _, tp = detect.emit_report(report, tmp_path / "u")
    with open(tp) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "index,score,transformed_score,prediction,tag"
    assert len(lines) == 4


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_emit_report_trace_is_one_line_per_row(tmp_path):
    scores = np.array([0.1, 2.0 / 3.0, 1e-300])
    report = detect.ScoreReport(
        scores=scores, transformed_scores=np.abs(scores - 0.5),
        predictions=np.array([0, 1, 1]), tags=["normal", "far", "near"],
        band=None, scoring_mode="robust_md", labels=np.array([0, 1, 1]))
    _, tp = detect.emit_report(report, tmp_path / "t")
    rows = [",".join([str(i), repr(float(s)), repr(float(abs(s - 0.5))), str(y), str(p), t])
            for i, (s, y, p, t) in enumerate(zip(scores, [0, 1, 1], [0, 1, 1],
                                                 ["normal", "far", "near"]))]
    header = "index,score,transformed_score,label,prediction,tag"
    assert _bytes(tp) == "".join(line + "\n" for line in [header, *rows]).encode()
    empty = detect.ScoreReport(
        scores=np.array([]), transformed_scores=np.array([]),
        predictions=np.array([], dtype=np.int64), tags=[], band=None,
        scoring_mode="robust_md")
    _, tp = detect.emit_report(empty, tmp_path / "e")
    assert _bytes(tp) == b"index,score,transformed_score,prediction,tag\n"


def _trace_report(n):
    scores = np.random.default_rng(n).random(n)
    return detect.ScoreReport(
        scores=scores, transformed_scores=np.abs(scores - 0.5),
        predictions=(scores > 0.9).astype(np.int64),
        tags=["far" if s > 0.9 else "normal" for s in scores.tolist()],
        band=None, scoring_mode="robust_md",
        labels=(scores > 0.8).astype(np.int64))


@pytest.mark.parametrize("n", [1, 4, 5])
def test_emit_report_trace_bytes_do_not_depend_on_the_block_size(tmp_path,
                                                                  monkeypatch, n):
    report = _trace_report(n)
    _, whole = detect.emit_report(report, tmp_path / "whole")
    monkeypatch.setattr(detect, "_TRACE_BLOCK", 2)
    _, blocks = detect.emit_report(report, tmp_path / "blocks")
    assert _bytes(blocks) == _bytes(whole)
    assert _bytes(blocks).count(b"\n") == n + 1


def test_emit_report_does_not_hold_the_whole_trace(tmp_path):
    # Per extra row, the writer keeps nothing: it converts, joins and writes
    # one block of rows at a time. Whole-column Python values cost about 80
    # bytes a row, and the row's text line as well about 250.
    def peak(n):
        report = _trace_report(n)
        tracemalloc.start()
        try:
            detect.emit_report(report, tmp_path / "p")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(40_000) - peak(20_000)) / 20_000 <= 10


def test_evaluate_requires_labels_for_auto_band(small_model):
    with pytest.raises(ParameterError):
        detect.evaluate(small_model, np.zeros((5, 4)), band=None)
