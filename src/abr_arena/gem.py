"""Hidden-feature GAN: a generator rolls the streaming history into a fixed
16-dim vector, and a discriminator scores how much that vector looks like
ones harvested from winning sessions. Least-squares losses, RMSProp updates.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .neural import BN_EPS, DTYPE, BatchNorm, Dense, LeakyRelu, RMSProp, Sequential

HIDDEN_SIZE = 16
GEM_LR = 1e-4
GEM_BATCH = 64
WIN_BUFFER_CAPACITY = 10_000


def build_generator(input_dim: int, rng: np.random.Generator | None) -> Sequential:
    return Sequential([
        Dense(input_dim, 64, rng=rng), BatchNorm(64), LeakyRelu(),
        Dense(64, 32, rng=rng), BatchNorm(32), LeakyRelu(),
        Dense(32, HIDDEN_SIZE, rng=rng),
    ])


def build_discriminator(rng: np.random.Generator | None) -> Sequential:
    # Least-squares convention: the score head is linear, not squashed.
    # A sigmoid output caps how fast generated samples can be re-scored and
    # saturates the generator's gradients once the discriminator is ahead.
    return Sequential([
        Dense(HIDDEN_SIZE, 64, rng=rng), BatchNorm(64), LeakyRelu(),
        Dense(64, 32, rng=rng), BatchNorm(32), LeakyRelu(),
        Dense(32, 1, rng=rng),
    ])


@dataclass(frozen=True)
class GemReport:
    d_loss: float
    g_loss: float
    skipped: bool


class GemModule:
    """One agent's generator/discriminator pair plus ``buffer``, a float32
    (n, HIDDEN_SIZE) array of the newest n <= WIN_BUFFER_CAPACITY winning hidden
    features, oldest first; with ``rng`` None every weight starts at zero."""

    def __init__(self, input_dim: int, *, rng: np.random.Generator | None):
        self.input_dim = input_dim
        self.gen = build_generator(input_dim + HIDDEN_SIZE, rng)
        self.disc = build_discriminator(rng)
        self.buffer = np.zeros((0, HIDDEN_SIZE), dtype=DTYPE)
        self.gen_opt = RMSProp(self.gen.params(), lr=GEM_LR)
        self.disc_opt = RMSProp(self.disc.params(), lr=GEM_LR)

    def inference(self) -> Sequential:
        """A copy of the generator with each batch norm folded into the dense
        layer before it at its running statistics: with ``scale = gamma /
        sqrt(running_var + BN_EPS)``, weight ``W * scale`` and bias ``(b -
        running_mean) * scale + beta``, in float64 rounded once. Inference
        only; it goes stale once ``gen``'s parameters or statistics move."""
        layers = copy.deepcopy(self.gen.layers)
        for dense, bn in zip(layers, layers[1:]):
            if isinstance(bn, BatchNorm):
                scale = bn.gamma / np.sqrt(bn.running_var.astype(np.float64) + BN_EPS)
                bias = dense.bias.astype(np.float64)
                dense.bias[...] = (bias - bn.running_mean) * scale + bn.beta
                dense.weight *= scale
        return Sequential([layer for layer in layers if not isinstance(layer, BatchNorm)])

    def hidden_for(self, prev_rows: np.ndarray, net: Sequential) -> np.ndarray:
        """Next hidden features (n, HIDDEN_SIZE) from the previous steps' flat
        rows: a row ``concat(state, h_prev)`` is exactly the generator input.

        Runs ``net``, an :meth:`inference` of this module built since its
        parameters last changed: inference runs only through the fold.
        """
        prev_rows = np.asarray(prev_rows, dtype=DTYPE)
        if prev_rows.ndim != 2 or prev_rows.shape[1] != self.input_dim + HIDDEN_SIZE:
            raise ValueError(f"previous rows must be (n, {self.input_dim + HIDDEN_SIZE}), "
                             f"got {prev_rows.shape}")
        out, _ = net.forward(prev_rows)
        return out

    def collect(self, rows: np.ndarray) -> None:
        """Harvest the winning sessions' hidden features from the GEM columns
        of their (sessions, chunks, flat_dim) block of flat rows, as the
        agent's ``AgentPolicy`` wrote them: session after session, each in
        step order, appended to the buffer, which keeps its newest
        ``WIN_BUFFER_CAPACITY`` rows in a new array."""
        wins = rows[..., -HIDDEN_SIZE:].reshape(-1, HIDDEN_SIZE)[-WIN_BUFFER_CAPACITY:]
        kept = self.buffer[max(0, len(self.buffer) + len(wins) - WIN_BUFFER_CAPACITY):]
        self.buffer = np.concatenate([kept, wins], dtype=DTYPE)

    def disc_gradients(self, real: np.ndarray, fake: np.ndarray):
        """(L_d, discriminator gradients); the generated batch is a constant.

        Least squares: real samples are pushed toward 1, generated ones toward
        0. Both halves pass through the discriminator as one mixed batch, so
        its batch normalization sees winning and generated samples
        together and their contrast survives the per-batch standardization.
        """
        if not len(real) or not len(fake):
            raise ValueError("empty batch")
        stacked = np.concatenate([real, fake])
        p, cache = self.disc.forward(stacked)
        p_real, p_fake = p[:len(real)], p[len(real):]
        loss = float(0.5 * np.mean((p_real - 1.0) ** 2) + 0.5 * np.mean(p_fake ** 2))
        if not np.isfinite(loss):
            return loss, None
        d_p = np.concatenate([(p_real - 1.0) / len(real), p_fake / len(fake)])
        _, grads = self.disc.backward(cache, d_p)
        return loss, grads

    def gen_gradients(self, inputs: np.ndarray):
        """(L_g, generator gradients) through the frozen discriminator:
        least squares, pushing D(G(s, h)) toward 1."""
        batch = len(inputs)
        if not batch:
            raise ValueError("empty batch")
        fake, gen_cache = self.gen.forward(inputs)
        p, disc_cache = self.disc.forward(fake)
        loss = float(0.5 * np.mean((p - 1.0) ** 2))
        if not np.isfinite(loss):
            return loss, None
        d_fake, _ = self.disc.backward(disc_cache, (p - 1.0) / batch)
        _, grads = self.gen.backward(gen_cache, d_fake)
        return loss, grads

    def update(self, gen_inputs: np.ndarray, rng: np.random.Generator) -> GemReport:
        """One discriminator descent step on L_d, then one generator step on
        L_g with the discriminator's parameters frozen.

        Skips (no parameter writes) while the winning-sample buffer is empty;
        a non-finite loss also aborts without writing.
        """
        if len(self.buffer) == 0:
            return GemReport(d_loss=float("nan"), g_loss=float("nan"), skipped=True)
        gen_inputs = np.asarray(gen_inputs, dtype=DTYPE)
        if gen_inputs.ndim != 2 or gen_inputs.shape[1] != self.input_dim + HIDDEN_SIZE:
            raise ValueError(f"generator inputs must be (n, {self.input_dim + HIDDEN_SIZE})")
        real = self.buffer[rng.integers(len(self.buffer), size=GEM_BATCH)]
        fake_in = gen_inputs[rng.integers(len(gen_inputs), size=GEM_BATCH)]
        fake, _ = self.gen.forward(fake_in)
        d_value, disc_grads = self.disc_gradients(real, fake)
        if disc_grads is not None:
            self.disc_opt.step(disc_grads)

        gen_in = gen_inputs[rng.integers(len(gen_inputs), size=GEM_BATCH)]
        g_value, gen_grads = self.gen_gradients(gen_in)
        if gen_grads is not None:
            self.gen_opt.step(gen_grads)

        return GemReport(d_loss=d_value, g_loss=g_value, skipped=False)
