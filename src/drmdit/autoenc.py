"""Tied-weight multilayer autoencoder with hand-rolled backprop.

One weight matrix per encoder layer; the decoder uses its transpose, so a
parameter update is visible on both paths by construction. Hidden layers
use the configured activation, the reconstruction output layer is linear.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

ACTIVATIONS = ("sigmoid", "tanh", "relu")


def _act(name, x):
    """The activation of x, written over x: callers pass a fresh
    pre-activation."""
    if name == "sigmoid":
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        return np.divide(1.0, x, out=x)
    if name == "tanh":
        return np.tanh(x, out=x)
    if name == "relu":
        return np.maximum(x, 0.0, out=x)
    raise ParameterError(f"unknown activation {name!r}")


def _grad_pre(name, h, grad):
    """The gradient at a hidden layer's pre-activation, given its
    activation h and the gradient at h: grad times the activation's slope,
    which each activation gives from h alone (sigmoid s(1 - s), tanh
    1 - h^2, relu h > 0), in one new buffer."""
    if name == "sigmoid":
        out = np.subtract(1.0, h)
        out *= h
    elif name == "tanh":
        out = np.multiply(h, h)
        np.subtract(1.0, out, out=out)
    elif name == "relu":
        return np.multiply(grad, h > 0)
    else:
        raise ParameterError(f"unknown activation {name!r}")
    out *= grad
    return out


def _layout(layer_dims):
    """(field, layer, shape) of each parameter array in flat order: per
    layer its weights, encoder bias and decoder bias."""
    for l, (fan_in, fan_out) in enumerate(zip(layer_dims[:-1], layer_dims[1:])):
        yield "weights", l, (fan_out, fan_in)
        yield "biases_enc", l, (fan_out,)
        yield "biases_dec", l, (fan_in,)


def _views(flat, layer_dims):
    """{field: [arrays]}: the parameter arrays of layer_dims as views of the
    flat buffer, in _layout order."""
    views = {"weights": [], "biases_enc": [], "biases_dec": []}
    at = 0
    for name, _, shape in _layout(layer_dims):
        size = math.prod(shape)
        views[name].append(flat[at:at + size].reshape(shape))
        at += size
    return views


def flat_name(layer_dims, index):
    """The name, as "weights[0]", of the array that holds entry index of a
    flat parameter or gradient buffer."""
    for name, l, shape in _layout(layer_dims):
        index -= math.prod(shape)
        if index < 0:
            return f"{name}[{l}]"


@dataclass
class NetworkParams:
    """Encoder weights (decoder is the transpose view) plus per-side biases.

    weights[l] has shape (layer_dims[l+1], layer_dims[l]). biases_dec[l] is
    the bias applied when decoding back to width layer_dims[l]. Made by
    init_params, every array is a view of one flat buffer, flat, which the
    optimizer updates in one pass; a checkpoint's params have none.
    """

    layer_dims: list
    weights: list
    biases_enc: list  # biases_enc[l] has length layer_dims[l+1]
    biases_dec: list  # biases_dec[l] has length layer_dims[l]
    activation: str = "tanh"
    flat: np.ndarray | None = None

    def n_params(self):
        return sum(w.size for w in self.weights) + sum(
            b.size for b in self.biases_enc
        ) + sum(b.size for b in self.biases_dec)


@dataclass
class ForwardTrace:
    """Everything backward() needs: the activations of each layer, from
    which backward takes each slope. backward never reads the
    reconstruction, so a caller may overwrite it (joint_loss writes the
    residual there)."""

    enc_act: list  # enc_act[0] is the input batch; enc_act[l+1]: N x layer_dims[l+1]
    dec_act: list  # dec_act[l]: activations at width layer_dims[l]; dec_act[0] = recon
    latent: np.ndarray
    reconstruction: np.ndarray


@dataclass
class Gradients:
    """One array per parameter, each a view of the flat buffer flat, laid
    out as init_params lays out the parameters."""

    weights: list
    biases_enc: list
    biases_dec: list
    flat: np.ndarray

    @staticmethod
    def over(flat, layer_dims) -> "Gradients":
        return Gradients(**_views(flat, layer_dims), flat=flat)

    @staticmethod
    def zeros_like(params: NetworkParams) -> "Gradients":
        return Gradients.over(np.zeros(params.n_params()), params.layer_dims)


def init_params(layer_dims, activation="tanh", seed=42) -> NetworkParams:
    """Glorot-uniform weights, zero biases, deterministic per seed, all in
    one flat buffer. Widths whose parameters cannot be allocated are a
    ParameterError."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ParameterError(f"layer_dims needs >=2 positive widths, got {layer_dims}")
    if activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}")
    size = sum(math.prod(shape) for _, _, shape in _layout(dims))
    try:
        flat = np.zeros(size)
    except (MemoryError, ValueError) as exc:
        raise ParameterError(
            f"layer_dims {dims} need {size} parameters, which cannot be allocated: {exc}"
        ) from None
    views = _views(flat, dims)
    rng = np.random.default_rng(seed)
    for w in views["weights"]:
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return NetworkParams(layer_dims=dims, activation=activation, flat=flat, **views)


def _as_batch(params: NetworkParams, batch):
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_dims[0]:
        raise ParameterError(
            f"batch shape {x.shape} does not match input width {params.layer_dims[0]}"
        )
    return x


def _encoder(params: NetworkParams, x):
    """The activation of each encoder layer in turn."""
    h = x
    for w, b in zip(params.weights, params.biases_enc):
        h = h @ w.T
        h += b
        h = _act(params.activation, h)
        yield h


def _decoder(params: NetworkParams, latent):
    """The activation of each decoder layer in turn, from the latent back
    to the reconstruction; the output layer is linear."""
    g = latent
    for l in range(len(params.weights) - 1, -1, -1):
        g = g @ params.weights[l]
        g += params.biases_dec[l]
        if l:
            g = _act(params.activation, g)
        yield g


def encode(params: NetworkParams, batch):
    """The latent rows of a batch: forward's encoder half, keeping no
    per-layer record and running no decoder."""
    for latent in _encoder(params, _as_batch(params, batch)):
        pass
    return latent


def decode(params: NetworkParams, latent):
    """The reconstruction of latent rows: forward's decoder half, keeping no
    per-layer record."""
    for reconstruction in _decoder(params, latent):
        pass
    return reconstruction


def forward(params: NetworkParams, batch) -> ForwardTrace:
    """Encode then decode a batch (rows are samples)."""
    x = _as_batch(params, batch)
    enc_act = [x, *_encoder(params, x)]
    latent = enc_act[-1]
    dec_act = list(_decoder(params, latent))[::-1] + [latent]  # decoded last to first
    return ForwardTrace(enc_act=enc_act, dec_act=dec_act,
                        latent=latent, reconstruction=dec_act[0])


def backward(params: NetworkParams, trace: ForwardTrace,
             grad_wrt_latent=None, grad_wrt_recon=None) -> Gradients:
    """Reverse accumulation through decoder then encoder.

    Each gradient is written straight into one new flat buffer, laid out
    as init_params lays out the parameters (Gradients.flat); tied weights
    add the encoder path's product to the decoder path's. Upstream
    gradients must already carry any batch-mean factors.
    """
    n_layers = len(params.weights)
    recon_shape = trace.enc_act[0].shape  # the input batch's
    if grad_wrt_latent is None:
        grad_wrt_latent = np.zeros_like(trace.latent)
    if grad_wrt_recon is None:
        grad_wrt_recon = np.zeros(recon_shape)
    grad_wrt_latent = np.asarray(grad_wrt_latent, dtype=np.float64)
    grad_wrt_recon = np.asarray(grad_wrt_recon, dtype=np.float64)
    if grad_wrt_latent.shape != trace.latent.shape:
        raise ParameterError("grad_wrt_latent shape mismatch")
    if grad_wrt_recon.shape != recon_shape:
        raise ParameterError("grad_wrt_recon shape mismatch")

    grads = Gradients.over(np.empty(params.n_params()), params.layer_dims)

    # decoder: walk from the reconstruction back up to the latent
    d_out = grad_wrt_recon
    for l in range(n_layers):
        if l == 0:
            d_pre = d_out  # linear output layer
        else:
            d_pre = _grad_pre(params.activation, trace.dec_act[l], d_out)
        # dec step l computed: out_l = act(in @ W_l + b_dec_l), in = dec_act[l+1]
        np.matmul(trace.dec_act[l + 1].T, d_pre, out=grads.weights[l])
        np.add.reduce(d_pre, axis=0, out=grads.biases_dec[l])
        d_out = d_pre @ params.weights[l].T
    d_latent = grad_wrt_latent + d_out

    # encoder: walk from the latent back down to the input
    d_h = d_latent
    for l in range(n_layers - 1, -1, -1):
        d_pre = _grad_pre(params.activation, trace.enc_act[l + 1], d_h)
        grads.weights[l] += d_pre.T @ trace.enc_act[l]  # the tied weights' second path
        np.add.reduce(d_pre, axis=0, out=grads.biases_enc[l])
        if l:  # nothing needs the gradient w.r.t. the input batch
            d_h = d_pre @ params.weights[l]
    return grads
