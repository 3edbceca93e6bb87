import numpy as np
import pytest

from drmdit import autoenc
from drmdit.errors import ParameterError


def test_init_params_deterministic():
    p1 = autoenc.init_params([4, 2], seed=7)
    p2 = autoenc.init_params([4, 2], seed=7)
    for w1, w2 in zip(p1.weights, p2.weights):
        assert np.array_equal(w1, w2)


def test_init_params_shapes_and_tie():
    p = autoenc.init_params([4, 2], seed=0)
    assert p.weights[0].shape == (2, 4)
    assert p.weights[0].T.shape == (4, 2)
    # the decoder's transpose view shares storage: mutating one mutates the other
    p.weights[0][0, 0] = 99.0
    assert p.weights[0].T[0, 0] == 99.0


def test_init_params_rejects_single_width():
    with pytest.raises(ParameterError):
        autoenc.init_params([4])


def test_init_params_glorot_bounds():
    p = autoenc.init_params([10, 6, 3], seed=1)
    for w, fan_in, fan_out in zip(p.weights, [10, 6], [6, 3]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.max(np.abs(w)) <= limit


def test_n_params_count():
    p = autoenc.init_params([5, 3, 2], seed=0)
    # weights: 3*5 + 2*3; enc biases 3 + 2; dec biases 5 + 3
    assert p.n_params() == 15 + 6 + 5 + 8


def test_forward_identity_small_angle():
    # Square single layer with identity weights: tanh is ~identity for
    # tiny inputs, so latent ~= batch.
    p = autoenc.init_params([3, 3], seed=0)
    p.weights[0][:] = np.eye(3)
    batch = np.random.default_rng(24).normal(size=(6, 3)) * 1e-3
    trace = autoenc.forward(p, batch)
    assert np.max(np.abs(trace.latent - batch)) < 1e-3


def test_forward_shapes():
    p = autoenc.init_params([5, 3, 2], seed=2)
    batch = np.random.default_rng(25).normal(size=(7, 5))
    trace = autoenc.forward(p, batch)
    assert trace.latent.shape == (7, 2)
    assert trace.reconstruction.shape == (7, 5)
    assert trace.enc_act[0] is not None and trace.enc_act[0].shape == (7, 5)


def test_forward_output_layer_is_linear():
    # With large latent magnitudes a tanh output would saturate at 1;
    # linear output can exceed it.
    p = autoenc.init_params([2, 2], seed=3)
    p.weights[0][:] = 10.0 * np.eye(2)
    trace = autoenc.forward(p, np.array([[5.0, 5.0]]))
    assert np.max(np.abs(trace.reconstruction)) > 1.0


def test_forward_rejects_bad_width():
    p = autoenc.init_params([4, 2], seed=0)
    with pytest.raises(ParameterError):
        autoenc.forward(p, np.zeros((3, 5)))


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu"])
def test_encode_is_forward_latent(activation):
    p = autoenc.init_params([6, 4, 3, 2], activation=activation, seed=5)
    batch = np.random.default_rng(26).normal(size=(9, 6))
    assert autoenc.encode(p, batch).tobytes() == autoenc.forward(p, batch).latent.tobytes()
    with pytest.raises(ParameterError):
        autoenc.encode(p, np.zeros((3, 5)))


@pytest.mark.parametrize("activation", autoenc.ACTIVATIONS)
def test_passes_leave_their_inputs_unchanged(activation):
    # the activations are written over fresh pre-activations and backward's
    # slopes into buffers of its own, never over an argument
    rng = np.random.default_rng(28)
    p = autoenc.init_params([6, 4, 3], activation=activation, seed=7)
    arrays = [rng.normal(size=(5, 6)), rng.normal(size=(5, 3)),
              rng.normal(size=(5, 3)), rng.normal(size=(5, 6))]
    batch, latent, grad_latent, grad_recon = arrays
    before = [a.copy() for a in arrays + p.weights + p.biases_enc + p.biases_dec]
    autoenc.encode(p, batch)
    autoenc.decode(p, latent)
    trace = autoenc.forward(p, batch)
    held = [a.copy() for a in trace.enc_act + trace.dec_act]
    autoenc.backward(p, trace, grad_wrt_latent=grad_latent, grad_wrt_recon=grad_recon)
    after = arrays + p.weights + p.biases_enc + p.biases_dec
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    assert all(np.array_equal(a, b) for a, b in zip(trace.enc_act + trace.dec_act, held))


def test_backward_zero_upstream_gives_zero_grads():
    p = autoenc.init_params([5, 3], seed=4)
    trace = autoenc.forward(p, np.random.default_rng(26).normal(size=(4, 5)))
    grads = autoenc.backward(p, trace)
    for g in grads.weights + grads.biases_enc + grads.biases_dec:
        assert np.all(g == 0.0)


def _loss_and_grads(params, batch):
    """loss = 0.5*||recon - x||^2 + 0.5*||latent||^2 (summed)."""
    trace = autoenc.forward(params, batch)
    loss = 0.5 * float(np.sum((trace.reconstruction - batch) ** 2)) \
        + 0.5 * float(np.sum(trace.latent ** 2))
    grads = autoenc.backward(
        params, trace,
        grad_wrt_latent=trace.latent,
        grad_wrt_recon=trace.reconstruction - batch,
    )
    return loss, grads


@pytest.mark.parametrize("activation", autoenc.ACTIVATIONS)
def test_backward_finite_difference_check(activation):
    rng = np.random.default_rng(27)
    params = autoenc.init_params([5, 3, 2], activation=activation, seed=5)
    # nonzero biases: with zero ones, a row that relu zeroes entirely puts
    # the next layer's pre-activations exactly on the kink
    for b in params.biases_enc + params.biases_dec:
        b[:] = rng.normal(scale=0.1, size=b.size)
    batch = rng.normal(size=(6, 5))
    _, grads = _loss_and_grads(params, batch)

    h = 1e-6
    worst = 0.0
    targets = (
        [(w, g) for w, g in zip(params.weights, grads.weights)]
        + [(b, g) for b, g in zip(params.biases_enc, grads.biases_enc)]
        + [(b, g) for b, g in zip(params.biases_dec, grads.biases_dec)]
    )
    for arr, grad in targets:
        flat = arr.ravel()
        gflat = grad.ravel()
        idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = _loss_and_grads(params, batch)
            flat[i] = orig - h
            lm, _ = _loss_and_grads(params, batch)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    assert worst < 1e-4


def test_backward_tied_weight_sum_rule():
    # Single linear-regime layer, gradient only through the reconstruction:
    # the tied weight must receive both the decoder-path and encoder-path
    # contributions.
    p = autoenc.init_params([2, 2], seed=6)
    p.weights[0][:] = np.eye(2) * 1e-4  # keep tanh in its linear regime
    x = np.array([[0.3, -0.2]])
    trace = autoenc.forward(p, x)
    delta = np.array([[1.0, 2.0]])
    grads = autoenc.backward(p, trace, grad_wrt_recon=delta)
    # decoder path: dec_act[1]^T @ delta; encoder path: (delta @ W^T scaled
    # by activation slope ~1) routed through d_pre^T @ x
    dec_term = trace.dec_act[1].T @ delta
    slope = 1.0 - trace.enc_act[1] ** 2  # tanh' from the activation
    enc_term = ((delta @ p.weights[0].T) * slope).T @ x
    assert np.allclose(grads.weights[0], dec_term + enc_term, atol=1e-12)

