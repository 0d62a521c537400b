"""Minimal float32 feed-forward network core with reverse-mode gradients.

Covers exactly the layer set the fixed architectures need: fully-connected,
valid 1-D convolution, batch normalization, and the usual activations, plus
Adam/RMSProp and a binary checkpoint format. Layers are functional: forward
returns (output, cache) and backward consumes that cache, so inference-mode
forwards are safe to share across threads while nobody writes parameters.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPE = np.float32

CHECKPOINT_MAGIC = b"TYTS"
CHECKPOINT_VERSION = 1


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / float(np.sqrt(fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


class Dense:
    """y = x @ W + b for x shaped (batch, n_in)."""

    kind = "dense"

    def __init__(self, n_in: int, n_out: int, *, rng: np.random.Generator | None = None):
        self.n_in, self.n_out = n_in, n_out
        if rng is None:
            self.weight = np.zeros((n_in, n_out), dtype=DTYPE)
            self.bias = np.zeros(n_out, dtype=DTYPE)
        else:
            self.weight = _uniform_init(rng, (n_in, n_out), n_in)
            self.bias = np.zeros(n_out, dtype=DTYPE)

    def spec(self) -> dict:
        return {"kind": self.kind, "in": self.n_in, "out": self.n_out}

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def state_arrays(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, training: bool = False):
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

    kind = "conv1d"

    def __init__(self, in_channels: int, filters: int, kernel: int, *,
                 rng: np.random.Generator | None = None):
        self.in_channels, self.filters, self.kernel = in_channels, filters, kernel
        shape = (filters, in_channels, kernel)
        if rng is None:
            self.weight = np.zeros(shape, dtype=DTYPE)
        else:
            self.weight = _uniform_init(rng, shape, in_channels * kernel)
        self.bias = np.zeros(filters, dtype=DTYPE)

    def spec(self) -> dict:
        return {"kind": self.kind, "in_channels": self.in_channels,
                "filters": self.filters, "kernel": self.kernel}

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def state_arrays(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, training: bool = False):
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

    Training mode standardizes with batch statistics and folds them into the
    running estimates; inference mode uses the running estimates only.
    """

    kind = "batchnorm"

    def __init__(self, dim: int, momentum: float = 0.9, eps: float = 1e-5):
        self.dim, self.momentum, self.eps = dim, momentum, eps
        self.gamma = np.ones(dim, dtype=DTYPE)
        self.beta = np.zeros(dim, dtype=DTYPE)
        self.running_mean = np.zeros(dim, dtype=DTYPE)
        self.running_var = np.ones(dim, dtype=DTYPE)

    def spec(self) -> dict:
        return {"kind": self.kind, "dim": self.dim,
                "momentum": self.momentum, "eps": self.eps}

    def params(self) -> list[np.ndarray]:
        return [self.gamma, self.beta]

    def state_arrays(self) -> list[np.ndarray]:
        return [self.running_mean, self.running_var]

    def forward(self, x: np.ndarray, training: bool = False):
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"batchnorm expects (batch, {self.dim}), got {x.shape}")
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean[:] = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var[:] = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
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
    kind = "relu"

    def spec(self) -> dict:
        return {"kind": self.kind}

    def params(self) -> list[np.ndarray]:
        return []

    def state_arrays(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, training: bool = False):
        return np.maximum(x, 0), x > 0

    def backward(self, cache, dy: np.ndarray):
        return dy * cache, []


class LeakyRelu:
    kind = "leaky_relu"

    def __init__(self, slope: float = 0.2):
        self.slope = slope

    def spec(self) -> dict:
        return {"kind": self.kind, "slope": self.slope}

    def params(self) -> list[np.ndarray]:
        return []

    def state_arrays(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, training: bool = False):
        pos = x > 0
        return np.where(pos, x, x * np.asarray(self.slope, dtype=x.dtype)), pos

    def backward(self, cache, dy: np.ndarray):
        return np.where(cache, dy, dy * np.asarray(self.slope, dtype=dy.dtype)), []


class Sigmoid:
    kind = "sigmoid"

    def spec(self) -> dict:
        return {"kind": self.kind}

    def params(self) -> list[np.ndarray]:
        return []

    def state_arrays(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, training: bool = False):
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        return y, y

    def backward(self, cache, dy: np.ndarray):
        y = cache
        return dy * y * (1.0 - y), []


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class Softmax:
    kind = "softmax"

    def spec(self) -> dict:
        return {"kind": self.kind}

    def params(self) -> list[np.ndarray]:
        return []

    def state_arrays(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, training: bool = False):
        y = softmax(x)
        return y, y

    def backward(self, cache, dy: np.ndarray):
        y = cache
        inner = (dy * y).sum(axis=-1, keepdims=True)
        return y * (dy - inner), []


LAYER_KINDS = {
    "dense": lambda s, rng: Dense(s["in"], s["out"], rng=rng),
    "conv1d": lambda s, rng: Conv1D(s["in_channels"], s["filters"], s["kernel"], rng=rng),
    "batchnorm": lambda s, rng: BatchNorm(s["dim"], s["momentum"], s["eps"]),
    "relu": lambda s, rng: Relu(),
    "leaky_relu": lambda s, rng: LeakyRelu(s["slope"]),
    "sigmoid": lambda s, rng: Sigmoid(),
    "softmax": lambda s, rng: Softmax(),
}


def layer_from_spec(spec: dict, rng: np.random.Generator | None = None):
    kind = spec.get("kind")
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    return LAYER_KINDS[kind](spec, rng)


class Sequential:
    """A chain of layers sharing the functional forward/backward contract."""

    def __init__(self, layers: Sequence):
        self.layers = list(layers)

    def spec(self) -> list[dict]:
        return [layer.spec() for layer in self.layers]

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def state_arrays(self) -> list[np.ndarray]:
        return [s for layer in self.layers for s in layer.state_arrays()]

    def forward(self, x: np.ndarray, training: bool = False):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, training=training)
            caches.append(cache)
        if not np.all(np.isfinite(x)):
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


def sequential_from_spec(specs: Sequence[dict], rng: np.random.Generator | None = None) -> Sequential:
    return Sequential([layer_from_spec(s, rng) for s in specs])


class Adam:
    """Adam with bias correction; shares its parameter list with the network."""

    def __init__(self, params: Sequence[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            m[:] = self.beta1 * m + (1.0 - self.beta1) * g
            v[:] = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class RMSProp:
    """RMSProp with the epsilon inside the square root."""

    def __init__(self, params: Sequence[np.ndarray], lr: float,
                 decay: float = 0.9, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.decay, self.eps = decay, eps
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads: Sequence[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        for p, g, v in zip(self.params, grads, self.v):
            if g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            v[:] = self.decay * v + (1.0 - self.decay) * (g * g)
            p -= self.lr * g / np.sqrt(v + self.eps)


def _net_arrays(net: Sequential) -> list[np.ndarray]:
    return net.params() + net.state_arrays()


def save_bundle(path, nets: dict[str, Sequential], extra: dict | None = None) -> None:
    """Write one or more networks to a single checkpoint file.

    Layout: magic, u32 version, u32 header length, JSON header (layer specs,
    array shapes, extra metadata), then every array as flat little-endian
    float32 in header order. Round-trips are bit-exact. A temporary file in
    the same directory replaces ``path`` only once it is fully written.
    """
    header = {
        "order": list(nets),
        "nets": {
            name: {
                "spec": net.spec(),
                "shapes": [list(a.shape) for a in _net_arrays(net)],
            }
            for name, net in nets.items()
        },
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
            fh.write(header_bytes)
            for net in nets.values():
                for arr in _net_arrays(net):
                    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_bundle(path) -> tuple[dict[str, Sequential], dict]:
    """Read a checkpoint written by :func:`save_bundle`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<I", blob[8:12])
    header_end = 12 + header_len
    if len(blob) < header_end:
        raise ValueError(f"{path}: truncated checkpoint header")
    header = json.loads(blob[12:header_end].decode("utf-8"))
    nets: dict[str, Sequential] = {}
    offset = header_end
    for name in header["order"]:
        entry = header["nets"][name]
        net = sequential_from_spec(entry["spec"])
        arrays = _net_arrays(net)
        if len(arrays) != len(entry["shapes"]):
            raise ValueError(f"{path}: array count mismatch for net {name!r}")
        for arr, shape in zip(arrays, entry["shapes"]):
            count = int(np.prod(shape)) if shape else 1
            end = offset + 4 * count
            if end > len(blob):
                raise ValueError(f"{path}: truncated checkpoint payload")
            data = np.frombuffer(blob[offset:end], dtype="<f4").reshape(shape)
            if tuple(shape) != arr.shape:
                raise ValueError(f"{path}: shape mismatch for net {name!r}")
            arr[...] = data
            offset = end
        nets[name] = net
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes in checkpoint")
    return nets, header["extra"]


def save(net: Sequential, path, extra: dict | None = None) -> None:
    save_bundle(path, {"net": net}, extra)


def load(path) -> Sequential:
    nets, _ = load_bundle(path)
    if "net" not in nets:
        raise ValueError(f"{path}: not a single-network checkpoint")
    return nets["net"]
