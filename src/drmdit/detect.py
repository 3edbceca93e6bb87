"""Scoring against a trained model, two-sided band thresholding,
classification metrics, and report emission.

The decision rule is two-sided: scores inside [low, high] are normal,
below low are near anomalies, above high are far anomalies. Boundary
equality counts as normal.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autoenc, robust
from .data import open_output
from .errors import ParameterError

SCORING_MODES = ("robust_md", "classical_md", "euclidean_recon")


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
    transformed_scores: np.ndarray
    predictions: np.ndarray
    tags: list
    band: ScoreBand | None  # None: scored without a band (cli score)
    scoring_mode: str
    labels: np.ndarray | None = None
    metrics: dict | None = None


def score(model, data, mode="robust_md"):
    """Per-row anomaly scores for one of the three scoring modes."""
    if mode not in SCORING_MODES:
        raise ParameterError(f"mode must be one of {SCORING_MODES}, got {mode!r}")
    features = np.asarray(getattr(data, "features", data), dtype=np.float64)
    if features.shape[1] != model.params.layer_dims[0]:
        raise ParameterError(
            f"data has {features.shape[1]} features, model expects "
            f"{model.params.layer_dims[0]}"
        )
    trace = autoenc.forward(model.params, features)
    if mode == "robust_md":
        if model.robust_stats is None:
            raise ParameterError("model has no frozen robust stats")
        return robust.robust_md(trace.latent, model.robust_stats)
    if mode == "classical_md":
        if model.classical_stats is None:
            raise ParameterError("model has no frozen classical stats")
        return robust.classical_md(trace.latent, model.classical_stats)
    resid = trace.reconstruction - features
    return np.mean(resid * resid, axis=1)


def classify(scores, band: ScoreBand):
    """Apply the two-sided band. Returns (predictions, tags)."""
    s = np.asarray(scores, dtype=np.float64)
    near = s < band.low
    far = s > band.high
    predictions = (near | far).astype(np.int64)
    tags = np.where(near, "near", np.where(far, "far", "normal"))
    return predictions, tags


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


def fold_scores(scores, center):
    """Distance-from-normality transform: t = |score - center|."""
    return np.abs(np.asarray(scores, dtype=np.float64) - center)


def auc(scores, labels, center=None):
    """Two-sided ranking AUC with ties counted half.

    Scores are folded around `center` (default: the median score of
    normal-labeled rows) so both near and far anomalies rank above
    normals.
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
        center = float(np.median(s[neg]))
    t = fold_scores(s, center)
    order = np.argsort(t, kind="stable")
    sorted_t = t[order]
    # a run of tied scores at sorted positions i..j shares rank (i + j) / 2 + 1
    starts = np.flatnonzero(np.r_[True, sorted_t[1:] != sorted_t[:-1]])
    ends = np.r_[starts[1:], t.size] - 1
    ranks = np.empty(t.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def select_band(scores, labels) -> ScoreBand:
    """Exhaustive two-sided band search maximizing anomaly-class F1.

    Candidate edges are midpoints between consecutive sorted scores plus
    one sentinel beyond each extreme. Ties break toward the fewest flagged
    anomalies, then the numerically widest band.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.shape != y.shape:
        raise ParameterError("scores/labels length mismatch")
    if len(np.unique(y)) < 2:
        raise ParameterError("band selection needs both classes present")
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    n = s.size
    spread = s_sorted[-1] - s_sorted[0]
    margin = 0.5 * spread if spread > 0 else 1.0
    # candidate low edges: below min, then midpoints; cut position i means
    # the i smallest scores fall below the band
    mids = 0.5 * (s_sorted[:-1] + s_sorted[1:])
    lows = np.concatenate([[s_sorted[0] - margin], mids])
    highs = np.concatenate([mids, [s_sorted[-1] + margin]])

    pos_prefix = np.concatenate([[0], np.cumsum(y_sorted)])  # anomalies among i smallest
    total_pos = pos_prefix[-1]
    # low cut i in 0..n-1 flags the i smallest; high cut j flags the n-1-j largest
    max_cuts = 1200  # keeps the n^2 pair scan bounded on large inputs
    if n <= max_cuts:
        i_idx = np.arange(n)
        j_idx = np.arange(n)
    else:
        i_idx = np.unique(np.linspace(0, n - 1, max_cuts).astype(np.int64))
        j_idx = i_idx
    lows = lows[i_idx]
    highs = highs[j_idx]
    below_pos = pos_prefix[i_idx]
    above_pos = (total_pos - pos_prefix[j_idx + 1])
    tp = below_pos[:, None] + above_pos[None, :]
    flagged = i_idx[:, None] + (n - 1 - j_idx)[None, :]
    valid = i_idx[:, None] <= j_idx[None, :]  # band must be non-empty interval
    fp = flagged - tp
    fn = total_pos - tp
    denom = 2.0 * tp + fp + fn
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(denom > 0, 2.0 * tp / np.maximum(denom, 1e-300), 0.0)
    f1 = np.where(valid, f1, -1.0)
    best_f1 = f1.max()
    cand = np.argwhere(f1 >= best_f1 - 1e-12)
    # fewest flagged, then widest numeric band
    flag_counts = flagged[cand[:, 0], cand[:, 1]]
    cand = cand[flag_counts == flag_counts.min()]
    widths = highs[cand[:, 1]] - lows[cand[:, 0]]
    i, j = cand[np.argmax(widths)]
    return ScoreBand(low=float(lows[i]), high=float(highs[j]))


def evaluate(model, data, mode="robust_md", band=None) -> ScoreReport:
    """Score, band-classify, and (where labels exist) compute metrics."""
    s = score(model, data, mode=mode)
    labels = getattr(data, "labels", None)
    if band is None:
        if labels is None:
            raise ParameterError("auto band selection requires labels")
        band = select_band(s, labels)
    predictions, tags = classify(s, band)
    center = model.train_score_medians.get(mode, float(np.median(s)))
    report = ScoreReport(
        scores=s, transformed_scores=fold_scores(s, center),
        predictions=predictions, tags=tags.tolist(), band=band,
        scoring_mode=mode, labels=labels,
    )
    if labels is not None:
        report.metrics = metrics(predictions, labels)
        if len(np.unique(labels)) > 1:
            report.metrics["auc"] = auc(s, labels, center=center)
    return report


def emit_report(report: ScoreReport, path_prefix):
    """Write {prefix}.report.json, the run's summary, and {prefix}.trace.csv,
    one plot-ready line per scored row. A write failure is a DataError."""
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
    header = ["index", "score", "transformed_score"]
    columns = [map(str, range(report.scores.size)),
               map(repr, np.asarray(report.scores, dtype=np.float64).tolist()),
               map(repr, np.asarray(report.transformed_scores, dtype=np.float64).tolist())]
    if report.labels is not None:
        header.append("label")
        columns.append(map(str, np.asarray(report.labels, dtype=np.int64).tolist()))
    header += ["prediction", "tag"]
    columns += [map(str, np.asarray(report.predictions, dtype=np.int64).tolist()),
                report.tags]
    with open_output(trace_path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))
    return report_path, trace_path
