"""Tied-weight multilayer autoencoder with hand-rolled backprop.

One weight matrix per encoder layer; the decoder uses its transpose, so a
parameter update is visible on both paths by construction. Hidden layers
use the configured activation, the reconstruction output layer is linear.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

ACTIVATIONS = ("sigmoid", "tanh", "relu")


def _act(name, x):
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if name == "tanh":
        return np.tanh(x)
    if name == "relu":
        return np.maximum(x, 0.0)
    raise ParameterError(f"unknown activation {name!r}")


def _act_deriv(name, pre):
    if name == "sigmoid":
        s = _act("sigmoid", pre)
        return s * (1.0 - s)
    if name == "tanh":
        t = np.tanh(pre)
        return 1.0 - t * t
    if name == "relu":
        return np.where(pre > 0, 1.0, 0.0)
    raise ParameterError(f"unknown activation {name!r}")


@dataclass
class NetworkParams:
    """Encoder weights (decoder is the transpose view) plus per-side biases.

    weights[l] has shape (layer_dims[l+1], layer_dims[l]). biases_dec[l] is
    the bias applied when decoding back to width layer_dims[l].
    """

    layer_dims: list
    weights: list
    biases_enc: list  # biases_enc[l] has length layer_dims[l+1]
    biases_dec: list  # biases_dec[l] has length layer_dims[l]
    activation: str = "tanh"

    def n_params(self):
        return sum(w.size for w in self.weights) + sum(
            b.size for b in self.biases_enc
        ) + sum(b.size for b in self.biases_dec)


@dataclass
class ForwardTrace:
    """Everything backward() needs: pre-activations and activations per layer."""

    enc_pre: list  # enc_pre[l]: N x layer_dims[l+1]
    enc_act: list  # enc_act[0] is the input batch; enc_act[l+1] = act(enc_pre[l])
    dec_pre: list  # dec_pre[l]: N x layer_dims[l], l = L-1 .. 0 stored by index l
    dec_act: list  # dec_act[l]: activations at width layer_dims[l]; dec_act[0] = recon
    latent: np.ndarray
    reconstruction: np.ndarray


@dataclass
class Gradients:
    weights: list
    biases_enc: list
    biases_dec: list

    @staticmethod
    def zeros_like(params: NetworkParams) -> "Gradients":
        return Gradients(
            weights=[np.zeros_like(w) for w in params.weights],
            biases_enc=[np.zeros_like(b) for b in params.biases_enc],
            biases_dec=[np.zeros_like(b) for b in params.biases_dec],
        )


def init_params(layer_dims, activation="tanh", seed=42) -> NetworkParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ParameterError(f"layer_dims needs >=2 positive widths, got {layer_dims}")
    if activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
    return NetworkParams(
        layer_dims=dims,
        weights=weights,
        biases_enc=[np.zeros(d) for d in dims[1:]],
        biases_dec=[np.zeros(d) for d in dims[:-1]],
        activation=activation,
    )


def _as_batch(params: NetworkParams, batch):
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise ParameterError(
            f"batch shape {x.shape} does not match input width {params.layer_dims[0]}"
        )
    return x


def _encoder(params: NetworkParams, x):
    """(pre-activation, activation) of each encoder layer in turn."""
    h = x
    for w, b in zip(params.weights, params.biases_enc):
        pre = h @ w.T
        pre += b
        h = _act(params.activation, pre)
        yield pre, h


def _decoder(params: NetworkParams, latent):
    """(pre-activation, activation) of each decoder layer in turn, from the
    latent back to the reconstruction; the output layer is linear."""
    g = latent
    for l in range(len(params.weights) - 1, -1, -1):
        pre = g @ params.weights[l]
        pre += params.biases_dec[l]
        g = pre if l == 0 else _act(params.activation, pre)
        yield pre, g


def encode(params: NetworkParams, batch):
    """The latent rows of a batch: forward's encoder half, keeping no
    per-layer record and running no decoder."""
    for _, latent in _encoder(params, _as_batch(params, batch)):
        pass
    return latent


def decode(params: NetworkParams, latent):
    """The reconstruction of latent rows: forward's decoder half, keeping no
    per-layer record."""
    for _, reconstruction in _decoder(params, latent):
        pass
    return reconstruction


def forward(params: NetworkParams, batch) -> ForwardTrace:
    """Encode then decode a batch (rows are samples)."""
    x = _as_batch(params, batch)
    n_layers = len(params.weights)
    enc_pre, enc_act = [], [x]
    for pre, h in _encoder(params, x):
        enc_pre.append(pre)
        enc_act.append(h)
    latent = enc_act[-1]

    dec_pre = [None] * n_layers
    dec_act = [None] * (n_layers + 1)
    dec_act[n_layers] = latent
    for l, (pre, g) in zip(range(n_layers - 1, -1, -1), _decoder(params, latent)):
        dec_pre[l] = pre
        dec_act[l] = g
    return ForwardTrace(enc_pre=enc_pre, enc_act=enc_act, dec_pre=dec_pre,
                        dec_act=dec_act, latent=latent, reconstruction=dec_act[0])


def backward(params: NetworkParams, trace: ForwardTrace,
             grad_wrt_latent=None, grad_wrt_recon=None) -> Gradients:
    """Reverse accumulation through decoder then encoder.

    Tied weights collect the sum of both paths' contributions. Upstream
    gradients must already carry any batch-mean factors.
    """
    n_layers = len(params.weights)
    n, k = trace.latent.shape
    if grad_wrt_latent is None:
        grad_wrt_latent = np.zeros_like(trace.latent)
    if grad_wrt_recon is None:
        grad_wrt_recon = np.zeros_like(trace.reconstruction)
    grad_wrt_latent = np.asarray(grad_wrt_latent, dtype=np.float64)
    grad_wrt_recon = np.asarray(grad_wrt_recon, dtype=np.float64)
    if grad_wrt_latent.shape != trace.latent.shape:
        raise ParameterError("grad_wrt_latent shape mismatch")
    if grad_wrt_recon.shape != trace.reconstruction.shape:
        raise ParameterError("grad_wrt_recon shape mismatch")

    grads = Gradients.zeros_like(params)

    # decoder: walk from the reconstruction back up to the latent
    d_out = grad_wrt_recon
    for l in range(n_layers):
        if l == 0:
            d_pre = d_out  # linear output layer
        else:
            d_pre = d_out * _act_deriv(params.activation, trace.dec_pre[l])
        # dec step l computed: out_l = act(in @ W_l + b_dec_l), in = dec_act[l+1]
        grads.weights[l] += trace.dec_act[l + 1].T @ d_pre
        grads.biases_dec[l] += d_pre.sum(axis=0)
        d_out = d_pre @ params.weights[l].T
    d_latent = grad_wrt_latent + d_out

    # encoder: walk from the latent back down to the input
    d_h = d_latent
    for l in range(n_layers - 1, -1, -1):
        d_pre = d_h * _act_deriv(params.activation, trace.enc_pre[l])
        grads.weights[l] += d_pre.T @ trace.enc_act[l]
        grads.biases_enc[l] += d_pre.sum(axis=0)
        if l:  # nothing needs the gradient w.r.t. the input batch
            d_h = d_pre @ params.weights[l]
    return grads
