import json
import re
import tracemalloc

import numpy as np
import pytest

from drmdit import autoenc, cli, itl, ndmath, robust, train
from drmdit.data import FeatureMatrix
from drmdit.errors import DataError, DegeneracyError, ParameterError, TrainingError


def _config(**kw):
    kw.setdefault("sigma", 0.5)
    kw.setdefault("batch_size", 8)
    kw.setdefault("epochs", 2)
    return train.TrainConfig(**kw)


def test_loss_weights_validate():
    with pytest.raises(ParameterError):
        train.LossWeights(alpha=-0.1).validate()
    train.LossWeights().validate()


@pytest.mark.parametrize("bad", [
    {"epochs": -1},
    {"seed": -1},
    {"learning_rate": -0.1},
    {"learning_rate": 0.0},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"adam_beta1": 1.0},
    {"adam_beta1": -0.1},
    {"adam_beta2": 1.5},
    {"adam_epsilon": 0.0},
    {"ridge_epsilon": -1e-6},
    {"ridge_epsilon": float("nan")},
    {"latent_dim": 0},
    {"hidden_dims": [4, 0]},
    {"activation": "softplus"},
    {"weights": train.LossWeights(alpha=0.0, beta=0.0, gamma=0.0)},
])
def test_config_validate_rejects_out_of_range_fields(bad):
    with pytest.raises(ParameterError):
        _config(**bad).validate()


def test_config_validate_accepts_edges():
    _config(epochs=0, adam_beta1=0.0, ridge_epsilon=0.0, hidden_dims=[],
            weights=train.LossWeights(alpha=0.0, beta=0.0, gamma=1.0)).validate()


def test_config_default_hidden_dims():
    cfg = _config(latent_dim=3)
    assert cfg.resolve_layer_dims(10) == [10, 5, 3]
    cfg2 = _config(latent_dim=3, hidden_dims=[7])
    assert cfg2.resolve_layer_dims(10) == [10, 7, 3]


def test_joint_loss_zero_for_perfect_reconstruction():
    # weights of zero kill alpha and gamma; an identity-ish linear net is
    # not needed because beta * 0-residual is all that remains.
    rng = np.random.default_rng(30)
    x = rng.normal(size=(6, 4)) * 1e-4
    params = autoenc.init_params([4, 4], seed=0)
    params.weights[0][:] = np.eye(4)  # tanh ~ identity at this scale
    cfg = _config(weights=train.LossWeights(alpha=0.0, beta=1.0, gamma=0.0))
    breakdown, _ = train.joint_loss(params, x, cfg)
    assert breakdown.total == pytest.approx(0.0, abs=1e-10)


def test_joint_loss_md_zero_when_latents_collapse_to_median():
    # Zero weights map every row to the zero latent, which is its own median.
    rng = np.random.default_rng(31)
    x = rng.normal(size=(6, 4))
    params = autoenc.init_params([4, 2], seed=0)
    params.weights[0][:] = 0.0
    cfg = _config(weights=train.LossWeights(alpha=1.0, beta=0.0, gamma=0.0))
    breakdown, _ = train.joint_loss(params, x, cfg)
    assert breakdown.md_term == pytest.approx(0.0, abs=1e-12)
    assert breakdown.total == pytest.approx(0.0, abs=1e-12)


def test_joint_loss_degenerate_batch():
    params = autoenc.init_params([3, 2], seed=0)
    batch = np.ones((5, 3))
    with pytest.raises(DegeneracyError):
        train.joint_loss(params, batch, _config())


def test_loss_breakdown_total_identity():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(10, 5))
    params = autoenc.init_params([5, 3], seed=1)
    w = train.LossWeights(alpha=0.7, beta=0.2, gamma=0.4)
    breakdown, _ = train.joint_loss(params, x, _config(weights=w))
    assert breakdown.total == pytest.approx(
        0.7 * breakdown.md_term + 0.2 * breakdown.recon_term - 0.4 * breakdown.mi_term,
        abs=1e-12,
    )


def test_joint_loss_finite_on_wide_batch():
    # (2*pi*sigma^2)^(-d/2) overflows a float at d=600, sigma=0.1; the
    # unit-diagonal Gram never forms it
    rng = np.random.default_rng(35)
    x = rng.uniform(size=(16, 600))
    cfg = train.TrainConfig(batch_size=16)
    params = autoenc.init_params(cfg.resolve_layer_dims(600), seed=3)
    breakdown, grads = train.joint_loss(params, x, cfg)
    assert np.all(np.isfinite([breakdown.md_term, breakdown.recon_term,
                               breakdown.mi_term, breakdown.total]))
    assert all(np.all(np.isfinite(g)) for g in grads.weights)


def test_mi_latent_gradient_finite_difference():
    rng = np.random.default_rng(33)
    x = rng.normal(size=(7, 3))
    z = rng.normal(size=(7, 2)) * 0.3
    sigma = 0.4
    xhat = ndmath.normalize_gram(ndmath.gaussian_gram(x, sigma)).mat
    for mode in ("ratio", "additive"):
        _, grad, _ = train.matrix_mi_with_latent_grad(xhat, z, sigma, mode=mode)
        h = 1e-6
        for (i, j) in [(0, 0), (3, 1), (6, 0)]:
            zp, zm = z.copy(), z.copy()
            zp[i, j] += h
            zm[i, j] -= h
            fp, _, _ = train.matrix_mi_with_latent_grad(xhat, zp, sigma, mode=mode)
            fm, _, _ = train.matrix_mi_with_latent_grad(xhat, zm, sigma, mode=mode)
            fd = (fp - fm) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_joint_loss_full_gradient_finite_difference():
    # End-to-end: all three loss terms through the tied-weight backprop,
    # with robust stats and input Gram frozen (order statistics are
    # piecewise constant, so the analytic gradient holds them fixed).
    rng = np.random.default_rng(34)
    x = rng.normal(size=(9, 4))
    params = autoenc.init_params([4, 3, 2], seed=2)
    cfg = _config(weights=train.LossWeights(alpha=0.5, beta=0.3, gamma=0.2))
    z0 = autoenc.forward(params, x).latent
    stats = robust.robust_correlation(z0)
    xhat = ndmath.normalize_gram(ndmath.gaussian_gram(x, cfg.sigma)).mat

    def total():
        b, _ = train.joint_loss(params, x, cfg, stats=stats, input_gram_norm=xhat)
        return b.total

    _, grads = train.joint_loss(params, x, cfg, stats=stats, input_gram_norm=xhat)
    h = 1e-6
    worst = 0.0
    for arr, grad in zip(params.weights + params.biases_enc + params.biases_dec,
                         grads.weights + grads.biases_enc + grads.biases_dec):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = total()
            flat[i] = orig - h
            lm = total()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    assert worst < 1e-4


def _nan_workspace(*batch_sizes):
    """fit's MI block buffers for these batch sizes, NaN-filled."""
    work = itl.mi_workspace(batch_sizes)
    for buf in work:
        buf.fill(np.nan)
    return work


@pytest.mark.parametrize("m", [256, 383])  # a full batch; 1663 rows' folded tail
def test_joint_loss_workspace_is_bit_identical(m):
    x = np.random.default_rng(41).uniform(size=(m, 10))
    cfg = train.TrainConfig(sigma=0.1, batch_size=256, latent_dim=10, hidden_dims=[])
    params = autoenc.init_params(cfg.resolve_layer_dims(10), seed=4)
    ref_loss, ref_grads = train.joint_loss(params, x, cfg)
    work = _nan_workspace(256, 383)
    for _ in range(2):  # reused buffers hold the previous step's values
        loss, grads = train.joint_loss(params, x, cfg, work=work)
        assert loss == ref_loss
        for name in ("weights", "biases_enc", "biases_dec"):
            for a, b in zip(getattr(grads, name), getattr(ref_grads, name)):
                assert np.array_equal(a, b)


def _joint_loss_peak(n, work=None, d=10, **config):
    """tracemalloc peak of a second joint_loss step on an n x d batch;
    config overrides fields of a one-layer 10-wide latent config."""
    x = np.random.default_rng(42).uniform(size=(n, d))
    cfg = train.TrainConfig(**{"sigma": 0.1, "latent_dim": 10, "hidden_dims": [],
                               **config}, batch_size=n)
    params = autoenc.init_params(cfg.resolve_layer_dims(d), activation=cfg.activation,
                                 seed=5)
    train.joint_loss(params, x, cfg, work=work)  # first step: lazy imports, caches
    tracemalloc.start()
    try:
        train.joint_loss(params, x, cfg, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_joint_loss_with_workspace_allocates_no_n_by_n_array():
    # given the workspace, a step allocates neither an N x N array nor a
    # block buffer of its own
    n = 512
    work = _nan_workspace(n)
    assert _joint_loss_peak(n, work) < min(n * n * 8, work[0].nbytes)


def test_joint_loss_memory_is_row_blocked():
    # without a workspace the step holds two row-block buffers, never an
    # N x N array (two of them are 64 MiB at N=2048)
    n = 2048
    assert _joint_loss_peak(n) < n * n * 8


@pytest.mark.parametrize("activation", autoenc.ACTIVATIONS)
def test_joint_loss_working_set_at_the_one_hot_width(activation):
    # N=1024, d=122, the default 122 -> 61 -> 8 net: the step holds the
    # activations (no pre-activations beside them), the residual written
    # over the reconstruction and the MI's lifted input rows
    n, d = 1024, 122
    peak = _joint_loss_peak(n, itl.mi_workspace([n]), d=d, sigma=0.9, latent_dim=8,
                            hidden_dims=None, activation=activation)
    assert peak < 5.5 * n * d * 8


def test_fit_reuses_workspace_across_batch_sizes(monkeypatch):
    # 212 rows at batch 64: batches of 64, 64 and a folded 84, all carved
    # from the same two buffers; the model equals one trained without them
    x = np.random.default_rng(43).uniform(size=(212, 5))
    cfg = train.TrainConfig(sigma=0.3, batch_size=64, epochs=3, latent_dim=3, seed=2)
    with_work = train.model_to_dict(train.fit(x, cfg))
    plain = train.joint_loss
    monkeypatch.setattr(train, "joint_loss",
                        lambda *args, work=None, **kwargs: plain(*args, **kwargs))
    assert train.model_to_dict(train.fit(x, cfg)) == with_work


def test_fit_without_epochs_allocates_no_workspace():
    # no steps: nothing of the batch size is allocated (3000 x 3000 MI
    # buffers would be 144 MB)
    x = np.random.default_rng(44).uniform(size=(3000, 4))
    cfg = train.TrainConfig(epochs=0, batch_size=5000, latent_dim=2)
    train.fit(x, cfg)  # first call: lazy imports, caches
    tracemalloc.start()
    try:
        model = train.fit(x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.loss_history == []
    assert peak < 1 << 20


def test_adam_first_step_magnitude():
    params = autoenc.init_params([3, 2], seed=3)
    before = [w.copy() for w in params.weights]
    grads = autoenc.Gradients.zeros_like(params)
    for g in grads.weights + grads.biases_enc + grads.biases_dec:
        g[:] = 1.0
    state = train.AdamState.for_params(params)
    train.adam_step(params, grads, state, _config(learning_rate=1e-3))
    for w, w0 in zip(params.weights, before):
        assert np.allclose(np.abs(w - w0), 1e-3, atol=1e-8)


def test_adam_zero_gradient_leaves_params():
    params = autoenc.init_params([3, 2], seed=4)
    before = [w.copy() for w in params.weights]
    grads = autoenc.Gradients.zeros_like(params)
    state = train.AdamState.for_params(params)
    # seed non-zero first moments, then apply a zero gradient
    warm = autoenc.Gradients.zeros_like(params)
    for g in warm.weights:
        g[:] = 0.5
    train.adam_step(params, warm, state, _config(learning_rate=0.0))
    m0 = state.m.weights[0].copy()
    train.adam_step(params, grads, state, _config(learning_rate=0.0))
    assert np.allclose(params.weights[0], before[0])
    assert np.all(np.abs(state.m.weights[0]) < np.abs(m0))


def test_adam_rejects_non_finite_gradient():
    params = autoenc.init_params([3, 2], seed=5)
    grads = autoenc.Gradients.zeros_like(params)
    grads.weights[0][0, 0] = np.nan
    state = train.AdamState.for_params(params)
    with pytest.raises(TrainingError, match="weights"):
        train.adam_step(params, grads, state, _config())


@pytest.mark.parametrize("where, name", [
    (("biases_dec", 1), "biases_dec[1]"), (("weights", 1), "weights[1]")])
def test_adam_names_the_array_of_a_non_finite_gradient(where, name):
    params = autoenc.init_params([4, 3, 2], seed=5)
    grads = autoenc.Gradients.zeros_like(params)
    getattr(grads, where[0])[where[1]][-1] = np.inf
    state = train.AdamState.for_params(params)
    with pytest.raises(TrainingError, match=rf"gradient at {re.escape(name)}$"):
        train.adam_step(params, grads, state, _config())


def test_adam_rejects_a_second_moment_that_overflows():
    # a finite gradient of 1e200 squares to inf: v = inf would make the
    # update m / inf = 0 and freeze the parameters without an error
    params = autoenc.init_params([3, 2], seed=5)
    grads = autoenc.Gradients.zeros_like(params)
    grads.biases_dec[0][:] = 1e200
    state = train.AdamState.for_params(params)
    with np.errstate(over="ignore"), pytest.raises(
            TrainingError, match=r"second moment at biases_dec\[0\]$"):
        train.adam_step(params, grads, state, _config())


def test_flat_adam_matches_the_per_array_update():
    # the parameters, gradients and moments in one flat buffer each: the
    # update is the per-array formula's, bit for bit, step after step
    cfg = _config(sigma=0.4, batch_size=64, learning_rate=3e-3)
    params = autoenc.init_params([6, 4, 2], seed=8)
    arrays = [a.copy() for a in params.weights + params.biases_enc + params.biases_dec]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    state = train.AdamState.for_params(params)
    x = np.random.default_rng(9).uniform(size=(64, 6))
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for step in range(1, 5):
        _, grads = train.joint_loss(params, x, cfg)
        flat_grads = grads.weights + grads.biases_enc + grads.biases_dec
        train.adam_step(params, grads, state, cfg)
        bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for p, g, mi, vi in zip(arrays, flat_grads, m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * g * g
            p -= cfg.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + cfg.adam_epsilon)
        got = params.weights + params.biases_enc + params.biases_dec
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, arrays))
        moments = state.m.weights + state.m.biases_enc + state.m.biases_dec
        assert all(a.tobytes() == b.tobytes() for a, b in zip(moments, m))


def test_fit_loss_trend_on_gaussian_data():
    rng = np.random.default_rng(35)
    data = rng.multivariate_normal([0, 0], [[1.0, 0.6], [0.6, 1.0]], size=300)
    cfg = train.TrainConfig(sigma=0.2, batch_size=128, epochs=200,
                            latent_dim=2, hidden_dims=[], seed=0)
    model = train.fit(data, cfg)
    md = np.array([h.md_term for h in model.loss_history])
    # trailing 10-epoch mean decreases versus the first window
    assert md[-10:].mean() <= md[:10].mean()


def test_fit_folds_short_tail_batch():
    # 258 rows at batch 256 once trained on a 2-row last batch, whose
    # rank-deficient robust correlation pushed the epoch-mean MD to ~80
    def md_history(n):
        x = np.random.default_rng(40).uniform(size=(n, 6))
        cfg = train.TrainConfig(sigma=0.5, batch_size=256, epochs=3,
                                latent_dim=3, seed=1)
        return [h.md_term for h in train.fit(x, cfg).loss_history]

    assert max(md_history(258)) < 2 * max(md_history(256))


def test_fit_is_deterministic():
    rng = np.random.default_rng(36)
    data = rng.normal(size=(120, 4))
    cfg = train.TrainConfig(sigma=0.3, batch_size=64, epochs=3,
                            latent_dim=2, seed=9)
    m1 = train.fit(data, cfg)
    m2 = train.fit(data, cfg)
    for w1, w2 in zip(m1.params.weights, m2.params.weights):
        assert np.array_equal(w1, w2)


def test_fit_rejects_tiny_dataset():
    with pytest.raises(ParameterError):
        train.fit(np.zeros((1, 2)), train.TrainConfig(batch_size=256, epochs=1))


def test_fit_trains_fewer_rows_than_batch_size_as_one_batch():
    # fewer rows than batch_size make one batch, as at batch_size n; the
    # model's config keeps the configured size
    x = np.random.default_rng(40).normal(size=(50, 3))
    model = train.fit(x, _config(batch_size=256, latent_dim=2))
    whole = train.fit(x, _config(batch_size=50, latent_dim=2))
    assert model.config.batch_size == 256
    assert len(model.loss_history) == 2
    for w, v in zip(model.params.weights, whole.params.weights):
        assert np.array_equal(w, v)


def test_grid_search_single_cell():
    rng = np.random.default_rng(37)
    data = rng.normal(size=(80, 3))
    cfg = train.TrainConfig(batch_size=40, latent_dim=2, seed=1, epochs=1)
    best, table = train.grid_search(data, data, [0.1], cfg)
    assert best.sigma == 0.1
    assert len(table) == 1


def _degenerate_for(monkeypatch, sigmas):
    """Make detect.score fail as on non-finite scores for models trained
    with one of sigmas."""
    from drmdit import detect
    real = detect.score

    def score(model, data, mode="robust_md"):
        if model.config.sigma in sigmas:
            raise DegeneracyError("1 of 1 robust_md scores are not finite")
        return real(model, data, mode=mode)

    monkeypatch.setattr(detect, "score", score)


def test_grid_search_ranks_a_degenerate_cell_last(monkeypatch):
    data = np.random.default_rng(37).normal(size=(80, 3))
    cfg = train.TrainConfig(batch_size=40, latent_dim=2, seed=1, epochs=1)
    _degenerate_for(monkeypatch, {0.1})
    best, table = train.grid_search(data, data, [0.1, 0.5], cfg)
    assert best.sigma == 0.5
    assert [row["score"] for row in table][0] == -np.inf
    assert np.isfinite(table[1]["score"])


def test_grid_search_with_every_cell_degenerate_is_an_error(monkeypatch):
    data = np.random.default_rng(37).normal(size=(80, 3))
    cfg = train.TrainConfig(batch_size=40, latent_dim=2, seed=1, epochs=1)
    _degenerate_for(monkeypatch, {0.1, 0.5})
    with pytest.raises(DegeneracyError, match="no grid cell"):
        train.grid_search(data, data, [0.1, 0.5], cfg)


def test_grid_search_empty_grid():
    with pytest.raises(ParameterError):
        train.grid_search(np.zeros((10, 2)), np.zeros((10, 2)), [], train.TrainConfig())


def _whole_set_freeze(params, x, config):
    """_freeze as one pass over the whole set: a full forward trace and the
    N x d residual."""
    trace = autoenc.forward(params, x)
    z = trace.latent
    stats = robust.robust_correlation(z, ridge_epsilon=config.ridge_epsilon)
    cstats = robust.classical_stats(z, ridge_epsilon=config.ridge_epsilon)
    resid = trace.reconstruction - x
    return stats, cstats, {
        "robust_md": float(np.median(robust.robust_md(z, stats))),
        "classical_md": float(np.median(robust.classical_md(z, cstats))),
        "euclidean_recon": float(np.median(np.mean(resid * resid, axis=1))),
    }


@pytest.mark.parametrize("n", [9000, 2 * 4096 + 1])
def test_freeze_in_blocks_is_bit_identical_to_the_whole_set_pass(n):
    # three scoring blocks, the last one partial
    x = np.random.default_rng(46).uniform(size=(n, 7))
    cfg = train.TrainConfig(epochs=1, batch_size=1024, latent_dim=3, sigma=0.5, seed=3)
    model = train.fit(x, cfg)
    stats, cstats, medians = _whole_set_freeze(model.params, x, cfg)
    assert model.train_score_medians == medians
    for got, want in ((model.robust_stats, stats), (model.classical_stats, cstats)):
        for name in want.__dataclass_fields__:
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_fit_without_epochs_holds_less_than_one_copy_of_the_set():
    # the final pass keeps N x k latents and N errors; a forward trace of
    # the whole set would hold several N x d arrays
    n, d = 100_000, 41
    x = np.random.default_rng(47).uniform(size=(n, d))
    cfg = train.TrainConfig(epochs=0, latent_dim=8)
    train.fit(x[:5000], cfg)  # first call: lazy imports, caches
    tracemalloc.start()
    try:
        train.fit(x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8


def test_train_path_holds_at_most_two_copies_of_the_loaded_set(tmp_path):
    # load, drop labeled anomalies, skew-filter, min-max scale and fit: one
    # N x d array throughout, plus the loader's chunk buffers and O(N * k)
    n, d = 30_000, 41
    rng = np.random.default_rng(50)
    x = rng.standard_normal((n, d)).round(5)
    x[rng.choice(n, 300, replace=False), 3] += 40.0  # skew outliers
    labels = np.where(rng.uniform(size=n) < 0.1, "DoS", "BENIGN")
    lines = [",".join(map(repr, row)) + f",{label}\n"
             for row, label in zip(x.tolist(), labels)]
    paths = {}
    for name, rows in (("warm", lines[:100]), ("flows", lines)):
        paths[name] = tmp_path / f"{name}.csv"
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(",".join([f"f{j}" for j in range(d)] + ["label"]) + "\n")
            fh.writelines(rows)
    features = tmp_path / "features.json"
    features.write_text(json.dumps({"label_column": "label"}))
    cfg = train.TrainConfig(epochs=0)
    warm = cli._training_rows(cli._load_dataset(paths["warm"], features))
    train.fit(warm, cfg)  # lazy imports, caches
    tracemalloc.start()
    try:
        model = train.fit(cli._training_rows(cli._load_dataset(paths["flows"], features)),
                          cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.normalization) == d
    assert peak <= 2 * n * d * 8


def test_a_non_finite_training_score_is_a_degeneracy_error():
    # a learning rate of 1e300 leaves finite weights whose reconstructions
    # overflow: the checkpoint would hold an Infinity median
    x = np.random.default_rng(48).uniform(size=(300, 4))
    cfg = train.TrainConfig(epochs=1, batch_size=300, latent_dim=2, learning_rate=1e300)
    with np.errstate(over="ignore"), \
            pytest.raises(DegeneracyError, match="training euclidean_recon scores"):
        train.fit(x, cfg)


@pytest.mark.parametrize("edit", ["median", "weight"])
def test_save_checkpoint_refuses_a_model_load_would_reject(tmp_path, edit):
    model = train.fit(np.random.default_rng(49).uniform(size=(100, 4)),
                      train.TrainConfig(epochs=1, batch_size=50, latent_dim=2))
    if edit == "median":
        model.train_score_medians["robust_md"] = float("nan")
    else:
        model.params.weights[0][0, 0] = float("inf")
    path = tmp_path / "model.json"
    with pytest.raises(DegeneracyError, match="model not saved.*non-finite"):
        train.save_checkpoint(model, path)
    assert not path.exists()


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(38)
    data = FeatureMatrix(features=rng.normal(size=(100, 4)),
                         feature_names=["a", "b", "c", "d"],
                         normalization=[(0.0, 1.0), (-1.0, 2.0), (0.5, 0.5), (3.0, 4.0)])
    cfg = train.TrainConfig(sigma=0.3, batch_size=50, epochs=2,
                            latent_dim=2, seed=11)
    model = train.fit(data, cfg)
    path = tmp_path / "model.json"
    train.save_checkpoint(model, path)
    loaded = train.load_checkpoint(path)
    for w1, w2 in zip(model.params.weights, loaded.params.weights):
        assert np.array_equal(w1, w2)
    assert np.array_equal(model.robust_stats.corr_inv, loaded.robust_stats.corr_inv)
    assert loaded.config == model.config
    assert loaded.train_score_medians == model.train_score_medians
    assert loaded.normalization == data.normalization
    assert loaded.feature_names == data.feature_names
    # scores through the reloaded model match exactly
    x = rng.normal(size=(5, 4))
    assert np.array_equal(autoenc.encode(model.params, x),
                          autoenc.encode(loaded.params, x))


def test_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(39)
    data = rng.normal(size=(100, 4))
    cfg = train.TrainConfig(sigma=0.3, batch_size=50, epochs=2,
                            latent_dim=2, seed=12)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    train.save_checkpoint(train.fit(data, cfg), p1)
    train.save_checkpoint(train.fit(data, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_unknown_version(tmp_path):
    with pytest.raises(ParameterError):
        train.model_from_dict({"format_version": 99})


def _small_checkpoint():
    x = np.random.default_rng(44).normal(size=(60, 4))
    data = FeatureMatrix(features=x, feature_names=["a", "b", "c", "d"],
                         normalization=[(0.0, 1.0)] * 4)
    cfg = train.TrainConfig(sigma=0.3, batch_size=30, epochs=1, latent_dim=2)
    return json.loads(json.dumps(train.model_to_dict(train.fit(data, cfg))))  # as read


@pytest.mark.parametrize("path", [
    ("weights", 0),  # one weight row cut off
    ("weights", 1),
    ("biases_enc", 1),
    ("biases_dec", 0),
    ("robust_stats", "medians"),
    ("robust_stats", "corr_inv"),
    ("classical_stats", "cov"),
    ("normalization",),
    ("feature_names",),
    ("layer_dims",),
])
def test_checkpoint_shape_mismatch_is_malformed(path):
    doc = _small_checkpoint()
    train.model_from_dict(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = parent[path[-1]][:-1]  # one row or entry short
    with pytest.raises(ParameterError, match="malformed checkpoint"):
        train.model_from_dict(doc)


def _edited_checkpoint(path, value):
    """_small_checkpoint with the value at path, a sequence of keys, replaced."""
    doc = _small_checkpoint()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("path", [
    ("weights", 0, 1, 2),
    ("biases_enc", 1, 0),
    ("biases_dec", 0, 3),
    ("robust_stats", "medians", 0),
    ("robust_stats", "mads", 1),
    ("robust_stats", "corr", 0, 1),
    ("robust_stats", "corr_inv", 1, 1),
    ("classical_stats", "means", 0),
    ("classical_stats", "cov", 1, 0),
    ("classical_stats", "cov_inv", 0, 0),
    ("normalization", 2, 1),
    ("train_score_medians", "euclidean_recon"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_checkpoint_non_finite_number_is_malformed(path, value):
    doc = _edited_checkpoint(path, value)
    with pytest.raises(ParameterError, match="malformed checkpoint.*non-finite"):
        train.model_from_dict(doc)


def test_checkpoint_infinity_token_in_json_is_malformed(tmp_path):
    doc = _edited_checkpoint(("normalization", 0, 1), float("inf"))
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))  # json writes the Infinity token
    assert "Infinity" in path.read_text()
    with pytest.raises(ParameterError, match="malformed checkpoint"):
        train.load_checkpoint(path)


@pytest.mark.parametrize("path, value", [
    (("layer_dims", 1), 1e400),  # json reads it as inf: int() overflows
    (("layer_dims", 1), "x"),
    (("robust_stats", "medians", 0), "x"),
    (("classical_stats", "means"), None),
    (("normalization", 0), ["a", "b"]),
    (("normalization", 0, 1), None),
    (("train_score_medians", "robust_md"), "x"),
    (("train_score_medians",), [1, 2]),
    # feature_names of length d that are not a list of strings: the first
    # three were blamed on the CSV, the object scored the columns its keys name
    (("feature_names",), "abcd"),
    (("feature_names",), [0, 1, 2, 3]),
    (("feature_names",), [None] * 4),
    (("feature_names",), {"a": 0, "b": 1, "c": 2, "d": 3}),
    (("feature_names",), ["a", "b", "c", 3]),
])
def test_checkpoint_wrong_value_type_is_malformed(path, value):
    doc = _edited_checkpoint(path, value)
    with pytest.raises(ParameterError, match="malformed checkpoint"):
        train.model_from_dict(doc)


def test_checkpoint_feature_names_may_be_null():
    doc = _edited_checkpoint(("feature_names",), None)
    assert train.model_from_dict(doc).feature_names is None


@pytest.mark.parametrize("path, value", [
    (("weights", 0, 1, 2), "0.1"),  # float() reads it: scored like 0.1
    (("biases_dec", 0, 3), "-2"),
    (("robust_stats", "medians", 0), True),
    (("classical_stats", "cov", 1, 0), False),
    (("normalization", 2, 1), "1.5"),
    (("train_score_medians", "robust_md"), True),
])
def test_checkpoint_number_of_another_json_type_is_malformed(path, value):
    doc = _edited_checkpoint(path, value)
    with pytest.raises(ParameterError, match="malformed checkpoint.*not a number"):
        train.model_from_dict(doc)


@pytest.mark.parametrize("at", [0, -1])
def test_checkpoint_fractional_layer_width_is_malformed(at):
    doc = _small_checkpoint()
    doc["layer_dims"][at] += 0.7  # int() reads it back as the width it was
    with pytest.raises(ParameterError, match="malformed checkpoint.*layer_dims"):
        train.model_from_dict(doc)


def test_checkpoint_malformed_or_missing(tmp_path):
    with pytest.raises(ParameterError, match="malformed checkpoint"):
        train.model_from_dict({"format_version": 1})
    with pytest.raises(DataError):
        train.load_checkpoint(tmp_path / "missing.json")
