"""Joint objective, ADAM optimizer, training loop, and grid search.

The per-batch loss is

    total = alpha * md_term + beta * recon_term - gamma * mi_term

where md_term is the mean robust Mahalanobis distance of the batch latents
against batch median/MAD stats, recon_term is the reconstruction MSE, and
mi_term is the matrix-based mutual information between the batch's input
Gram and latent Gram. Robust stats are treated as constants inside the
gradient (order statistics are piecewise constant), and the MI gradient
flows through the latent Gram only.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autoenc, data, detect, itl, ndmath, robust
from .autoenc import Gradients, NetworkParams
from .errors import DegeneracyError, ParameterError, TrainingError
from .itl import matrix_mi_with_latent_grad

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.95  # robust-MD term
    beta: float = 0.05  # reconstruction term
    gamma: float = 1.0  # mutual-information term (subtracted: MI is maximized)

    def validate(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not np.isfinite(v) or v < 0:
                raise ParameterError(f"loss weight {name} must be finite and >= 0, got {v}")
        if self.alpha == self.beta == self.gamma == 0:
            raise ParameterError("loss weights alpha, beta and gamma are all 0: nothing to train")


@dataclass(frozen=True)
class LossBreakdown:
    md_term: float
    recon_term: float
    mi_term: float
    total: float


@dataclass
class TrainConfig:
    sigma: float = 0.1
    weights: LossWeights = field(default_factory=LossWeights)
    batch_size: int = 256
    epochs: int = 100
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 42
    ridge_epsilon: float = ndmath.RIDGE_EPSILON
    mi_mode: str = "ratio"  # "ratio" (paper formula) or "additive" (ablation)
    latent_dim: int = 8
    hidden_dims: list[int] | None = None  # default d -> d//2 -> latent_dim
    activation: str = "tanh"

    def validate(self):
        """ParameterError for any field outside its range (NaN included)."""
        ndmath._check_sigma(self.sigma)
        if self.batch_size < 2:
            raise ParameterError("batch_size must be >= 2 (robust stats need rows)")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        for name, v in (("learning_rate", self.learning_rate),
                        ("adam_epsilon", self.adam_epsilon)):
            if not 0 < v < np.inf:
                raise ParameterError(f"{name} must be finite and > 0, got {v}")
        for name, v in (("adam_beta1", self.adam_beta1), ("adam_beta2", self.adam_beta2)):
            if not 0 <= v < 1:
                raise ParameterError(f"{name} must lie in [0, 1), got {v}")
        if not 0 <= self.ridge_epsilon < np.inf:
            raise ParameterError(
                f"ridge_epsilon must be finite and >= 0, got {self.ridge_epsilon}")
        if self.mi_mode not in ("ratio", "additive"):
            raise ParameterError(f"mi_mode must be ratio|additive, got {self.mi_mode}")
        widths = [self.latent_dim, *(self.hidden_dims or [])]
        if min(widths) < 1:
            raise ParameterError(
                f"latent_dim and hidden_dims must be >= 1, got {self.latent_dim} "
                f"and {self.hidden_dims}")
        if self.activation not in autoenc.ACTIVATIONS:
            raise ParameterError(
                f"activation must be one of {autoenc.ACTIVATIONS}, got {self.activation!r}")
        self.weights.validate()

    def resolve_layer_dims(self, d):
        if self.hidden_dims is not None:
            return [d] + [int(h) for h in self.hidden_dims] + [int(self.latent_dim)]
        return [d, max(d // 2, 1), int(self.latent_dim)]


@dataclass
class TrainedModel:
    params: NetworkParams
    robust_stats: robust.RobustLatentStats
    classical_stats: robust.ClassicalStats
    config: TrainConfig
    loss_history: list
    train_score_medians: dict  # per scoring mode
    # per-feature (min, max) the training data was normalized with, and the
    # training column names: scoring applies both to raw CSV rows
    normalization: list | None = None
    feature_names: list | None = None

    def reconstruct(self, features):
        return autoenc.decode(self.params, autoenc.encode(self.params, features))


def _md_term_with_grad(latents, stats):
    """Mean robust MD of latent rows; gradient treats stats as constants.

    A row's distance gradient is (z - median) @ corr_inv over its distance:
    the product robust._md takes the distance from, divided in place."""
    dists, grad = robust._md(latents, stats.medians, stats.corr_inv)
    safe = np.where(dists > 1e-12, dists, np.inf)
    grad /= safe[:, None]
    grad /= latents.shape[0]
    return float(np.add.reduce(dists) / dists.size), grad  # dists.mean()'s bits


def joint_loss(params: NetworkParams, batch, config: TrainConfig,
               stats=None, input_gram_norm=None, work=None):
    """One batch of the joint objective. Returns (LossBreakdown, Gradients).

    stats / input_gram_norm default to quantities computed from this batch;
    passing them in pins the loss to a frozen snapshot (used by the
    finite-difference checks). work, when given, is the pair of MI
    row-block buffers of itl.mi_workspace; the result is the same as
    without it. config is not validated here: fit does that once.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.shape[0] < 2:
        raise ParameterError(f"batch needs >= 2 rows, got {x.shape[0]}")
    if np.all(x == x[0]):
        raise DegeneracyError(
            "degenerate batch: all rows identical (median/MAD and Gram statistics collapse)"
        )
    w = config.weights

    trace = autoenc.forward(params, x)
    z = trace.latent

    if stats is None:
        stats = robust.robust_correlation(z, ridge_epsilon=config.ridge_epsilon)
    md_term, md_grad_z = _md_term_with_grad(z, stats)

    resid = trace.reconstruction  # made the residual in place: backward does not read it
    resid -= x
    recon_term = float(np.add.reduce(resid * resid, axis=None) / resid.size)  # np.mean's bits
    resid *= 2.0  # the gradient beta * (2 * resid / size), in place
    resid /= resid.size
    resid *= w.beta

    if w.gamma != 0.0:
        mi_term, mi_grad_z, _ = matrix_mi_with_latent_grad(
            input_gram_norm, z, config.sigma, mode=config.mi_mode, x=x, work=work
        )
    else:
        mi_term, mi_grad_z = 0.0, np.zeros_like(z)

    total = w.alpha * md_term + w.beta * recon_term - w.gamma * mi_term
    grad_latent = w.alpha * md_grad_z - w.gamma * mi_grad_z
    grads = autoenc.backward(params, trace, grad_wrt_latent=grad_latent,
                             grad_wrt_recon=resid)
    return LossBreakdown(md_term=md_term, recon_term=recon_term,
                         mi_term=mi_term, total=total), grads


@dataclass
class AdamState:
    m: Gradients
    v: Gradients
    step: int = 0

    @staticmethod
    def for_params(params: NetworkParams) -> "AdamState":
        return AdamState(m=Gradients.zeros_like(params),
                         v=Gradients.zeros_like(params), step=0)


def _require_finite(flat, what, layer_dims):
    """TrainingError naming the first array of a flat parameter or gradient
    buffer that holds a non-finite value."""
    if not np.isfinite(flat).all():
        index = int(np.flatnonzero(~np.isfinite(flat))[0])
        raise TrainingError(f"non-finite {what} at {autoenc.flat_name(layer_dims, index)}")


def adam_step(params: NetworkParams, grads: Gradients, state: AdamState,
              config: TrainConfig):
    """In-place bias-corrected ADAM update of every parameter at once.

    params (as init_params makes them), grads and both moments are each one
    flat buffer of the same layout, so the update is the per-array formula
    applied once to all of them, with its bits, between one finite check of
    the gradients and one of the parameters; a second moment that overflows
    is a TrainingError too, not an inf that stops its parameters.
    """
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    g, m, v, p = grads.flat, state.m.flat, state.v.flat, params.flat
    _require_finite(g, "gradient", params.layer_dims)
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    _require_finite(v, "second moment", params.layer_dims)  # g * g can overflow
    p -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.adam_epsilon)
    _require_finite(p, "parameter", params.layer_dims)
    return params, state


def _freeze(params, features, config):
    """The robust and classical latent stats of the N x d features and the
    median of each scoring mode's training scores.

    The rows are encoded and decoded in detect.score's blocks, with no
    per-layer trace: only the N x k latents and the N reconstruction errors
    are kept. A non-finite training score is a DegeneracyError, as in
    detect.score.
    """
    n = features.shape[0]
    z = np.empty((n, params.layer_dims[-1]))
    errors = np.empty(n)
    for start in range(0, n, detect._SCORE_BLOCK):
        block = features[start:start + detect._SCORE_BLOCK]
        stop = start + block.shape[0]
        z[start:stop] = autoenc.encode(params, block)
        errors[start:stop] = detect._recon_errors(params, block, z[start:stop])
    stats = robust.robust_correlation(z, ridge_epsilon=config.ridge_epsilon)
    cstats = robust.classical_stats(z, ridge_epsilon=config.ridge_epsilon)
    scores = {"robust_md": robust.robust_md(z, stats),
              "classical_md": robust.classical_md(z, cstats),
              "euclidean_recon": errors}
    for mode, s in scores.items():
        detect._require_finite(s, f"training {mode}")
    return stats, cstats, {mode: float(robust.median(s)) for mode, s in scores.items()}


def fit(train_data, config: TrainConfig) -> TrainedModel:
    """Train on (assumed normal) data, then freeze scoring statistics from
    one final full-set encoding pass.

    A FeatureMatrix input passes its normalization record and feature
    names on to the model. Fewer rows than config.batch_size train as one
    batch; the model's config keeps the batch size as configured.
    """
    config.validate()
    features = np.asarray(
        getattr(train_data, "features", train_data), dtype=np.float64
    )
    n, d = features.shape
    if n < 2:
        raise ParameterError(f"need at least 2 rows for robust stats, got {n}")
    batch_size = min(config.batch_size, n)  # a smaller set is one batch
    params = autoenc.init_params(config.resolve_layer_dims(d),
                                 activation=config.activation, seed=config.seed)
    state = AdamState.for_params(params)
    rng = np.random.default_rng(config.seed)
    ends = list(range(batch_size, n, batch_size)) + [n]
    if len(ends) > 1 and n - ends[-2] < max(2, batch_size // 2):
        # robust stats of a few rows are rank-deficient and blow up the loss
        del ends[-2]  # so a short tail joins the previous batch
    starts = [0] + ends[:-1]
    # The MI kernels' row blocks are built in these for the whole run: fresh
    # buffers go back to the OS when freed, and every step would page-fault
    # them in again. Without steps there is nothing to build.
    work = (itl.mi_workspace({end - start for start, end in zip(starts, ends)})
            if config.epochs else None)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        sums = np.zeros(4)
        n_batches = 0
        for start, end in zip(starts, ends):
            batch = features[order[start:end]]
            try:
                breakdown, grads = joint_loss(params, batch, config, work=work)
                params, state = adam_step(params, grads, state, config)
            except (DegeneracyError, TrainingError) as exc:
                raise TrainingError(
                    f"epoch {epoch} batch {n_batches}: {exc}"
                ) from exc
            sums += (breakdown.md_term, breakdown.recon_term,
                     breakdown.mi_term, breakdown.total)
            n_batches += 1
        history.append(LossBreakdown(*(sums / n_batches)))
    work = None  # freed before the full-set pass: not in its peak
    stats, cstats, medians = _freeze(params, features, config)
    return TrainedModel(params=params, robust_stats=stats, classical_stats=cstats,
                        config=config, loss_history=history,
                        train_score_medians=medians,
                        normalization=getattr(train_data, "normalization", None),
                        feature_names=getattr(train_data, "feature_names", None) or None)


def grid_search(train_data, validation_data, sigma_grid, base_config: TrainConfig):
    """Train one model per sigma: base_config with that sigma.

    Labeled validation data is scored by folded AUC of robust-MD scores;
    unlabeled validation by the negative mean robust-MD (closer to the
    normal manifold is better). A cell whose validation scores are not
    finite scores -inf; if every cell does, that is a DegeneracyError.
    Ties break toward smaller sigma. Returns (best_config, table).
    """
    sigma_grid = list(sigma_grid)
    if not sigma_grid:
        raise ParameterError("empty grid")
    labels = getattr(validation_data, "labels", None)
    val_features = np.asarray(
        getattr(validation_data, "features", validation_data), dtype=np.float64
    )
    table = []
    best = None
    scored = 0
    weights = base_config.weights
    for sigma in sigma_grid:
        cfg = replace(base_config, sigma=float(sigma))
        model = fit(train_data, cfg)
        try:
            scores = detect.score(model, val_features, mode="robust_md")
        except DegeneracyError:  # non-finite validation scores rank last
            value = -np.inf
        else:
            scored += 1
            if labels is not None and detect._both_classes(labels):
                value = detect.auc(scores, labels,
                                   center=model.train_score_medians["robust_md"])
            else:
                value = -float(scores.mean())
        table.append({"sigma": float(sigma), "alpha": weights.alpha,
                      "beta": weights.beta, "gamma": weights.gamma, "score": value})
        key = (value, -sigma)
        if best is None or key > best[0]:
            best = (key, cfg)
    if not scored:
        raise DegeneracyError("no grid cell gave finite validation scores")
    return best[1], table


# ---------------------------------------------------------------------------
# checkpoint serialization


def _listify(a):
    return np.asarray(a, dtype=np.float64).tolist()


def model_to_dict(model: TrainedModel) -> dict:
    cfg = asdict(model.config)
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "layer_dims": list(model.params.layer_dims),
        "activation": model.params.activation,
        "weights": [_listify(w) for w in model.params.weights],
        "biases_enc": [_listify(b) for b in model.params.biases_enc],
        "biases_dec": [_listify(b) for b in model.params.biases_dec],
        "robust_stats": {
            "medians": _listify(model.robust_stats.medians),
            "mads": _listify(model.robust_stats.mads),
            "corr": _listify(model.robust_stats.corr),
            "corr_inv": _listify(model.robust_stats.corr_inv),
        },
        "classical_stats": {
            "means": _listify(model.classical_stats.means),
            "cov": _listify(model.classical_stats.cov),
            "cov_inv": _listify(model.classical_stats.cov_inv),
        },
        "train_config": cfg,
        "loss_history": [asdict(h) for h in model.loss_history],
        "train_score_medians": dict(model.train_score_medians),
        "normalization": model.normalization,
        "feature_names": model.feature_names,
    }


def save_checkpoint(model: TrainedModel, path):
    """Write model as a JSON checkpoint. A model that load_checkpoint would
    reject (_check_arrays), a non-finite number among them, is a
    DegeneracyError, and no file is written."""
    try:
        _check_arrays(model)
        text = json.dumps(model_to_dict(model), indent=1, sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:
        raise DegeneracyError(f"model not saved: {exc}") from None
    with data.open_output(path) as fh:
        fh.write(text)
        fh.write("\n")


def _check_arrays(model: TrainedModel):
    """ValueError unless every array fits layer_dims (the network's, the
    latent statistics' of width layer_dims[-1] and the input records') and
    every number scoring reads is finite."""
    dims = model.params.layer_dims
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"layer_dims needs >= 2 positive widths, got {dims}")
    d, k = dims[0], dims[-1]
    rs, cs = model.robust_stats, model.classical_stats
    arrays = {
        "weights": model.params.weights,
        "biases_enc": model.params.biases_enc,
        "biases_dec": model.params.biases_dec,
        "robust_stats": [rs.medians, rs.mads, rs.corr, rs.corr_inv],
        "classical_stats": [cs.means, cs.cov, cs.cov_inv],
    }
    expected = {
        "weights": [(o, i) for i, o in zip(dims[:-1], dims[1:])],
        "biases_enc": [(o,) for o in dims[1:]],
        "biases_dec": [(i,) for i in dims[:-1]],
        "robust_stats": [(k,), (k,), (k, k), (k, k)],
        "classical_stats": [(k,), (k, k), (k, k)],
    }
    got = {name: [a.shape for a in values] for name, values in arrays.items()}
    if model.normalization is not None:  # (rows, the one row length)
        expected["normalization"] = [(d, 2)]
        got["normalization"] = [(len(model.normalization),
                                 *{len(r) for r in model.normalization})]
    if model.feature_names is not None:
        expected["feature_names"] = [(d,)]
        got["feature_names"] = [(len(model.feature_names),)]
    for name, want in expected.items():
        if got[name] != want:
            raise ValueError(f"{name} shapes {got[name]} do not fit layer_dims {dims}")
    arrays["normalization"] = [model.normalization or []]
    arrays["train_score_medians"] = [list(model.train_score_medians.values())]
    for name, values in arrays.items():
        if not all(np.isfinite(a).all() for a in values):
            raise ValueError(f"{name} holds a non-finite value")


def model_from_dict(doc: dict) -> TrainedModel:
    """Inverse of model_to_dict. A malformed document, non-finite numbers
    (json reads NaN and Infinity) included, is a ParameterError."""
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ParameterError(f"unsupported checkpoint format_version {version!r}")
    try:
        dims = doc["layer_dims"]
        if not all(type(d) is int for d in dims):  # int() would read 2.7 as 2
            raise ValueError(f"layer_dims must be integers, got {dims!r:.60}")
        params = NetworkParams(
            layer_dims=list(dims),
            weights=[_floats(w) for w in doc["weights"]],
            biases_enc=[_floats(b) for b in doc["biases_enc"]],
            biases_dec=[_floats(b) for b in doc["biases_dec"]],
            activation=doc["activation"],
        )
        rs = doc["robust_stats"]
        stats = robust.RobustLatentStats(
            **{key: _floats(rs[key]) for key in ("medians", "mads", "corr", "corr_inv")})
        cs = doc["classical_stats"]
        cstats = robust.ClassicalStats(
            **{key: _floats(cs[key]) for key in ("means", "cov", "cov_inv")})
        config = data.dataclass_from_dict(TrainConfig, doc["train_config"],
                                          "checkpoint train_config")
        history = [LossBreakdown(**h) for h in doc["loss_history"]]
        norm = doc.get("normalization")
        names = doc.get("feature_names")
        if names is not None and not (type(names) is list
                                      and all(type(n) is str for n in names)):
            raise ValueError(f"feature_names must be null or a list of strings, "
                             f"got {names!r:.60}")
        model = TrainedModel(
            params=params, robust_stats=stats, classical_stats=cstats,
            config=config, loss_history=history,
            train_score_medians={mode: _number(v) for mode, v
                                 in dict(doc["train_score_medians"]).items()},
            normalization=None if norm is None else [tuple(map(_number, r)) for r in norm],
            feature_names=names,
        )
        _check_arrays(model)
        return model
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from None


_JSON_NUMBERS = frozenset((int, float))  # type(True) is bool, not int


def _number(value):
    """value as a float. ValueError unless json read it as a number:
    float() would also take "0.1" and true."""
    if type(value) not in _JSON_NUMBERS:
        raise ValueError(f"{value!r:.40} is not a number")
    return float(value)


def _floats(value):
    """A number or nested lists of numbers as a float64 array; the numbers
    are type-checked as _number does, in one pass."""
    leaves = [value]
    while leaves and isinstance(leaves[0], list):
        leaves = list(itertools.chain.from_iterable(leaves))
    if not _JSON_NUMBERS.issuperset(map(type, leaves)):
        for v in leaves:
            _number(v)
    return np.asarray(value, dtype=np.float64)


def load_checkpoint(path) -> TrainedModel:
    return model_from_dict(data.read_json(path, "checkpoint"))
