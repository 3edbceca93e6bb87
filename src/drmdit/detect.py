"""Scoring against a trained model, two-sided band thresholding,
classification metrics, and report emission.

The decision rule is two-sided: scores inside [low, high] are normal,
below low are near anomalies, above high are far anomalies. Boundary
equality counts as normal.
"""
from __future__ import annotations

import collections.abc
import json
from dataclasses import dataclass

import numpy as np

from . import autoenc, robust
from .data import open_output
from .errors import DegeneracyError, ParameterError

SCORING_MODES = ("robust_md", "classical_md", "euclidean_recon")
_SCORE_BLOCK = 4096  # rows scored at a time, however they arrive
_TRACE_BLOCK = 1024  # trace rows derived, converted and written at a time
_TAGS = np.array(["normal", "near", "far"], dtype=object)  # classify's tags by code


@dataclass(frozen=True)
class ScoreBand:
    low: float
    high: float

    def __post_init__(self):
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise ParameterError("band edges must be finite")
        if self.low >= self.high:
            raise ParameterError(f"band low {self.low} must be below high {self.high}")


@dataclass
class ScoreReport:
    scores: np.ndarray
    center: float  # the trace's transformed scores are |score - center|
    band: ScoreBand | None  # None: scored without a band (cli score)
    scoring_mode: str
    labels: np.ndarray | None = None
    metrics: dict | None = None

    @property
    def predictions(self):
        """classify's predictions, without its tags."""
        return _predictions(self.scores, self.band)


def score(model, data, mode="robust_md"):
    """Per-row anomaly scores for one of the three scoring modes.

    data is an N x d array (or has one as .features), or an iterator of
    such arrays whose rows are scored as one sequence. Either way the rows
    are scored in consecutive _SCORE_BLOCK-row blocks, the last one
    partial, so a row's score depends only on the rows of its block, never
    on how the rows arrive. The Mahalanobis modes run the encoder only.
    Non-finite scores are a DegeneracyError, raised once every row is
    scored.
    """
    if mode not in SCORING_MODES:
        raise ParameterError(f"mode must be one of {SCORING_MODES}, got {mode!r}")
    if mode == "robust_md" and model.robust_stats is None:
        raise ParameterError("model has no frozen robust stats")
    if mode == "classical_md" and model.classical_stats is None:
        raise ParameterError("model has no frozen classical stats")
    features = getattr(data, "features", data)
    if isinstance(features, collections.abc.Iterator):
        chunks, s = features, np.empty(0)
    else:
        features = np.asarray(features, dtype=np.float64)
        chunks, s = [features], np.empty(len(features))
    n = 0
    for block in _blocks(chunks, model.params.layer_dims[0]):
        stop = n + block.shape[0]
        if stop > s.size:
            s.resize(max(2 * s.size, stop), refcheck=False)
        s[n:stop] = _block_scores(model, block, mode)
        n = stop
    s.resize(n, refcheck=False)
    _require_finite(s, mode)
    return s


def _require_finite(scores, what):
    """DegeneracyError unless every one of scores is finite."""
    bad = scores.size - np.count_nonzero(np.isfinite(scores))
    if bad:
        raise DegeneracyError(f"{bad} of {scores.size} {what} scores are not finite")


def _blocks(chunks, width):
    """The rows of chunks (arrays of width columns) in consecutive
    _SCORE_BLOCK-row blocks, the last one partial. A block that lies inside
    one chunk is a view of it; the others are assembled in one buffer, so
    each block must be used before the next is drawn. A chunk's leftover
    rows are copied into that buffer only once another chunk arrives."""
    buf, held, tail = None, 0, None
    for rows in chunks:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ParameterError(
                f"data of shape {rows.shape} does not have the {width} features "
                "the model expects")
        if tail is not None:
            if buf is None:
                buf = np.empty((_SCORE_BLOCK, width))
            held = tail.shape[0]
            buf[:held] = tail
            tail = None
        start = 0
        if held:  # when the buffer is still not full, start takes every row
            start = min(_SCORE_BLOCK - held, rows.shape[0])
            buf[held:held + start] = rows[:start]
            held += start
            if held == _SCORE_BLOCK:
                yield buf
                held = 0
        stop = start + (rows.shape[0] - start) // _SCORE_BLOCK * _SCORE_BLOCK
        for i in range(start, stop, _SCORE_BLOCK):
            yield rows[i:i + _SCORE_BLOCK]
        if stop < rows.shape[0]:
            tail = rows[stop:]
        del rows  # the loop holds no chunk while the next one is parsed
    if tail is not None:
        yield tail
    elif held:
        yield buf[:held]


def _block_scores(model, block, mode):
    latent = autoenc.encode(model.params, block)
    if mode == "euclidean_recon":
        return _recon_errors(model.params, block, latent)
    if mode == "robust_md":
        return robust.robust_md(latent, model.robust_stats)
    return robust.classical_md(latent, model.classical_stats)


def _recon_errors(params, rows, latent):
    """The euclidean_recon score of each of rows, whose latent rows are
    given: the mean squared error of their reconstruction."""
    resid = autoenc.decode(params, latent)
    resid -= rows
    resid *= resid
    return resid.mean(axis=1)


def classify(scores, band: ScoreBand | None):
    """Apply the two-sided band. Returns (predictions, tags); tags is a
    list holding one of the three shared strings of _TAGS per row. Without
    a band (None) every row is 0 and "-"."""
    s = np.asarray(scores, dtype=np.float64)
    predictions = _predictions(s, band)
    if band is None:
        return predictions, ["-"] * s.size
    codes = predictions.astype(np.int8)
    codes[s > band.high] = 2
    return predictions, _TAGS.take(codes).tolist()


def _predictions(s, band):
    """1 for each of the float64 scores s outside band, else 0; all 0
    without a band."""
    if band is None:
        return np.zeros(s.size, dtype=np.int64)
    return ((s < band.low) | (s > band.high)).astype(np.int64)


def metrics(predictions, labels):
    """Accuracy/precision/recall with anomaly as the positive class.

    Zero predicted positives give precision 0 with the degenerate flag set.
    """
    p = np.asarray(predictions, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.size == 0 or y.size == 0 or p.shape != y.shape:
        raise ParameterError(f"prediction/label shape mismatch: {p.shape} vs {y.shape}")
    tp = int(np.sum((p == 1) & (y == 1)))
    fp = int(np.sum((p == 1) & (y == 0)))
    fn = int(np.sum((p == 0) & (y == 1)))
    tn = int(np.sum((p == 0) & (y == 0)))
    degenerate = (tp + fp) == 0
    return {
        "accuracy": (tp + tn) / p.size,
        "precision": 0.0 if degenerate else tp / (tp + fp),
        "recall": 0.0 if (tp + fn) == 0 else tp / (tp + fn),
        "no_predicted_positives": degenerate,
    }


def fold_center(model, scores, mode):
    """The center scores of mode fold around: the model's median training
    score, or, for a checkpoint without one, the median of scores."""
    center = model.train_score_medians.get(mode)
    return float(robust.median(scores)) if center is None else center


def fold_scores(scores, center):
    """Distance-from-normality transform: t = |score - center|."""
    return np.abs(np.asarray(scores, dtype=np.float64) - center)


def auc(scores, labels, center=None):
    """Two-sided ranking AUC: the share of anomaly-normal pairs whose
    anomaly scores above its normal, a tie counting half (the Mann-Whitney
    U over the number of pairs).

    Scores are folded around `center` (default: the median score of
    normal-labeled rows) so both near and far anomalies rank above
    normals. The counts are exact, so the AUC is their correctly rounded
    ratio.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape:
        raise ParameterError("scores/labels length mismatch")
    pos = y == 1
    neg = y == 0
    if not pos.any() or not neg.any():
        raise ParameterError("AUC needs both classes present")
    if center is None:
        center = float(robust.median(s[neg]))
    t = fold_scores(s, center)
    normals, anomalies = t[neg], t[pos]
    del t
    normals.sort()
    # per anomaly: the normals below it, and those tied with it
    below = np.searchsorted(normals, anomalies, side="left")
    tied = np.searchsorted(normals, anomalies, side="right")
    tied -= below
    return float((below.sum() + 0.5 * tied.sum()) / (anomalies.size * normals.size))


def _both_classes(labels):
    """Whether labels hold two different values: min != max, which, unlike
    np.unique, needs no sort and no numpy.ma import."""
    y = np.asarray(labels)
    return y.size > 0 and y.min() != y.max()


def select_band(scores, labels) -> ScoreBand:
    """The two-sided band whose anomaly-class F1 is exactly the largest.

    Edges fall only between distinct scores, at their midpoints, or half the
    spread beyond each extreme, so equal scores are flagged together, as
    classify flags them, and at least one value stays inside. F1 =
    2 tp / (flagged + P) is a ratio of sums that each split into a low-cut
    and a high-cut part, so Dinkelbach's method finds the optimum in integer
    arithmetic, one prefix maximum per step. Ties break toward the fewest
    flagged, then the widest band, then the lowest cuts.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape:
        raise ParameterError("scores/labels length mismatch")
    if not _both_classes(y):
        raise ParameterError("band selection needs both classes present")
    # the distinct scores (values) and, for each cut k below group k
    # (k = values.size: above the last), the rows (n_low) and the
    # anomalies (tp_low) of the groups below it
    s_sorted = np.sort(s)
    run_start = np.empty(s.size + 1, dtype=bool)
    run_start[0] = run_start[-1] = True
    np.not_equal(s_sorted[1:], s_sorted[:-1], out=run_start[1:-1])
    n_low = np.flatnonzero(run_start)
    del run_start
    values = s_sorted[n_low[:-1]]
    del s_sorted
    anomalous = s[y == 1]
    anomalous.sort()
    tp_low = np.empty_like(n_low)
    tp_low[:-1] = np.searchsorted(anomalous, values)
    total_pos = tp_low[-1] = anomalous.size
    del anomalous
    # Low cut i and high cut j (above group j, so below group j + 1) flag
    # tp = tp_low[i] + P - tp_low[j + 1] anomalies among
    # n_low[i] + n - n_low[j + 1] rows. With f = 2 den tp_low - num n_low,
    # 2 den tp - num (flagged + P) = f[i] - f[j + 1] + 2 den P - num (n + P).
    # The scan runs in two buffers: best_low[j] = max(f[:j + 1]), and in
    # place of f[j + 1], gain[j], the best pair's with high cut j.
    f, best = np.empty_like(n_low), np.empty_like(n_low)
    best_low, gain = best[:-1], f[1:]
    num, den = 0, total_pos  # F1 of flagging nothing
    while True:  # is some pair's F1 above num/den? then it is the new num/den
        np.multiply(tp_low, 2 * den, out=f)
        f -= np.multiply(n_low, num, out=best)
        np.maximum.accumulate(f[:-1], out=best_low)
        np.subtract(best_low, gain, out=gain)
        gain += 2 * den * total_pos - num * (s.size + total_pos)
        j = int(np.argmax(gain))
        if gain[j] <= 0:
            break
        i = int(np.searchsorted(best_low, best_low[j]))
        num = 2 * (int(tp_low[i]) + total_pos - int(tp_low[j + 1]))
        den = int(n_low[i]) + s.size + total_pos - int(n_low[j + 1])
    # for each optimal j the fewest flagged i is the first reaching the prefix max
    j = np.flatnonzero(gain == 0)
    i = np.searchsorted(best_low, best_low[j])
    flagged = n_low[i] - n_low[j + 1]  # minus n, the same for every pair
    fewest = flagged == flagged.min()
    i, j = i[fewest], j[fewest]
    # cut i lies below group i, cut j above group j: a midpoint, or half the
    # spread beyond an extreme
    spread = values[-1] - values[0]
    margin = 0.5 * spread if spread > 0 else 1.0
    last = values.size - 1
    lows = np.where(i > 0, 0.5 * (values[i - 1] + values[i]), values[0] - margin)
    highs = np.where(j < last, 0.5 * (values[j] + values[np.minimum(j + 1, last)]),
                     values[-1] + margin)
    k = np.lexsort((j, i, lows - highs))[0]  # widest, then lowest (i, j)
    return ScoreBand(low=float(lows[k]), high=float(highs[k]))


def evaluate(model, data, mode="robust_md", band=None) -> ScoreReport:
    """Score, band-classify, and (where labels exist) compute metrics.

    data is what score takes. Its labels are read once its rows are
    scored, so a stream of chunks may collect them as it goes.
    """
    s = score(model, data, mode=mode)
    labels = getattr(data, "labels", None)
    if band is None:
        if labels is None:
            raise ParameterError("auto band selection requires labels")
        band = select_band(s, labels)
    report = ScoreReport(scores=s, center=fold_center(model, s, mode), band=band,
                         scoring_mode=mode, labels=labels)
    if labels is not None:
        report.metrics = metrics(report.predictions, labels)
        if _both_classes(labels):
            report.metrics["auc"] = auc(s, labels, center=report.center)
    return report


def emit_report(report: ScoreReport, path_prefix):
    """Write {prefix}.report.json, the run's summary, and {prefix}.trace.csv,
    one plot-ready line per scored row, whose transformed score, prediction
    and tag are derived as it is written. A write failure is a DataError."""
    doc = {
        "scoring_mode": report.scoring_mode,
        "band": None if report.band is None else {"low": report.band.low,
                                                   "high": report.band.high},
        "n_samples": int(report.scores.size),
        "metrics": report.metrics,
    }
    report_path = f"{path_prefix}.report.json"
    trace_path = f"{path_prefix}.trace.csv"
    with open_output(report_path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    labels = None if report.labels is None else np.asarray(report.labels, dtype=np.int64)
    header = "index,score,transformed_score" + ("" if labels is None else ",label")
    with open_output(trace_path) as fh:
        fh.write(header + ",prediction,tag\n")
        for start in range(0, report.scores.size, _TRACE_BLOCK):
            block = report.scores[start:start + _TRACE_BLOCK]
            predictions, tags = classify(block, report.band)
            columns = [map(str, range(start, start + block.size)),
                       map(repr, block.tolist()),
                       map(repr, fold_scores(block, report.center).tolist())]
            if labels is not None:
                columns.append(map(str, labels[start:start + block.size].tolist()))
            columns += [map(str, predictions.tolist()), tags]
            fh.write("\n".join(map(",".join, zip(*columns))))
            fh.write("\n")
    return report_path, trace_path
