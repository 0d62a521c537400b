"""Minimal float32 feed-forward network core with reverse-mode gradients.

Covers exactly the layer set the fixed architectures need: fully-connected,
valid 1-D convolution, batch normalization, ReLU/leaky ReLU and softmax, plus
Adam/RMSProp. Layers are functional: forward returns (output, cache) and
backward consumes that cache, so a layer stores no activations between the
two; only a batch-norm forward writes layer state, folding its batch
statistics into running ones that only ``GemModule.inference`` reads. A ReLU's
cache is its input, masked only by the backward.
Checkpoints name a layer's ndarray attributes (``Agent.arrays``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPE = np.float32
BN_MOMENTUM = 0.9
BN_EPS = 1e-5
LEAKY_SLOPE = 0.2  # a Python float: it takes the dtype of the array it scales
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
RMSPROP_DECAY = 0.9
OPT_EPS = 1e-8  # Adam's and RMSProp's denominator guard


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / float(np.sqrt(fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


class Dense:
    """y = x @ W + b for x shaped (batch, n_in)."""

    def __init__(self, n_in: int, n_out: int, *, rng: np.random.Generator | None = None):
        self.n_in, self.n_out = n_in, n_out
        if rng is None:
            self.weight = np.zeros((n_in, n_out), dtype=DTYPE)
        else:
            self.weight = _uniform_init(rng, (n_in, n_out), n_in)
        self.bias = np.zeros(n_out, dtype=DTYPE)

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray):
        if x.shape[-1] != self.n_in:
            raise ValueError(f"dense expects {self.n_in} inputs, got shape {x.shape}")
        return x @ self.weight + self.bias, x

    def backward(self, cache, dy: np.ndarray):
        x = cache
        grad_w = x.T @ dy
        grad_b = dy.sum(axis=0)
        return dy @ self.weight.T, [grad_w, grad_b]


class Conv1D:
    """Valid 1-D convolution, stride 1, x shaped (batch, channels, length)."""

    def __init__(self, in_channels: int, filters: int, kernel: int, *,
                 rng: np.random.Generator | None = None):
        self.in_channels, self.filters, self.kernel = in_channels, filters, kernel
        shape = (filters, in_channels, kernel)
        if rng is None:
            self.weight = np.zeros(shape, dtype=DTYPE)
        else:
            self.weight = _uniform_init(rng, shape, in_channels * kernel)
        self.bias = np.zeros(filters, dtype=DTYPE)

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(f"conv1d expects (batch, {self.in_channels}, length), got {x.shape}")
        if x.shape[2] < self.kernel:
            raise ValueError(f"input length {x.shape[2]} shorter than kernel {self.kernel}")
        windows = sliding_window_view(x, self.kernel, axis=2)
        y = np.einsum("bclk,fck->bfl", windows, self.weight) + self.bias[:, None]
        return y, x

    def backward(self, cache, dy: np.ndarray):
        x = cache
        windows = sliding_window_view(x, self.kernel, axis=2)
        grad_w = np.einsum("bclk,bfl->fck", windows, dy)
        grad_b = dy.sum(axis=(0, 2))
        pad = self.kernel - 1
        dy_pad = np.pad(dy, ((0, 0), (0, 0), (pad, pad)))
        dy_windows = sliding_window_view(dy_pad, self.kernel, axis=2)
        dx = np.einsum("bflk,fck->bcl", dy_windows, self.weight[:, :, ::-1])
        return dx, [grad_w, grad_b]


class BatchNorm:
    """Per-feature batch normalization for (batch, dim) inputs.

    Every forward standardizes with batch statistics and folds them into the
    running estimates, which only ``GemModule.inference``'s fold reads.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.gamma = np.ones(dim, dtype=DTYPE)
        self.beta = np.zeros(dim, dtype=DTYPE)
        self.running_mean = np.zeros(dim, dtype=DTYPE)
        self.running_var = np.ones(dim, dtype=DTYPE)

    def params(self) -> list[np.ndarray]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray):
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"batchnorm expects (batch, {self.dim}), got {x.shape}")
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        self.running_mean[:] = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
        self.running_var[:] = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (x - mean) * inv_std
        y = self.gamma * x_hat + self.beta
        return y, (x_hat, inv_std)

    def backward(self, cache, dy: np.ndarray):
        x_hat, inv_std = cache
        batch = dy.shape[0]
        grad_gamma = (dy * x_hat).sum(axis=0)
        grad_beta = dy.sum(axis=0)
        dx_hat = dy * self.gamma
        dx = (inv_std / batch) * (
            batch * dx_hat - dx_hat.sum(axis=0) - x_hat * (dx_hat * x_hat).sum(axis=0)
        )
        return dx, [grad_gamma, grad_beta]


class Relu:
    def params(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray):
        return np.maximum(x, 0), x

    def backward(self, cache, dy: np.ndarray):
        return dy * (cache > 0), []


class LeakyRelu:
    def params(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray):
        # Bit for bit x where x > 0, else x * LEAKY_SLOPE, as 0 < LEAKY_SLOPE < 1.
        return np.maximum(x, x * LEAKY_SLOPE), x

    def backward(self, cache, dy: np.ndarray):
        return np.where(cache > 0, dy, dy * LEAKY_SLOPE), []


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class Sequential:
    """A chain of layers sharing the functional forward/backward contract."""

    def __init__(self, layers: Sequence):
        self.layers = list(layers)

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        if not np.isfinite(x).all():
            raise FloatingPointError("non-finite network output")
        return x, caches

    def backward(self, caches, dy: np.ndarray):
        if len(caches) != len(self.layers):
            raise ValueError("forward cache missing or mismatched")
        grads: list[np.ndarray] = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy, layer_grads = layer.backward(cache, dy)
            grads = layer_grads + grads
        return dy, grads


class Adam:
    """Adam with bias correction; shares its parameter list with the network."""

    def __init__(self, params: Sequence[np.ndarray], lr: float):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + OPT_EPS)


class RMSProp:
    """RMSProp with the epsilon inside the square root."""

    def __init__(self, params: Sequence[np.ndarray], lr: float):
        self.params = list(params)
        self.lr = lr
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        for p, g, v in zip(self.params, grads, self.v):
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            v *= RMSPROP_DECAY
            v += (1.0 - RMSPROP_DECAY) * (g * g)
            p -= self.lr * g / np.sqrt(v + OPT_EPS)
