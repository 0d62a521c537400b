"""The self-play ABR agent: a conv feature trunk over flat normalized state
rows with softmax policy and value heads, trained from match outcomes with an
entropy bonus and a win-rate-scheduled learning rate.

A flat row (``AgentConfig.flat_dim`` float32 columns) is the one normalized
state layout: throughput, download-time and bitrate histories, remaining play
time, buffer level, next chunk sizes, then the GEM's hidden feature.
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .elo import Rating
from .gem import HIDDEN_SIZE, GemModule
from .neural import DTYPE, Adam, Conv1D, Dense, Relu, Sequential, softmax
from .simulator import Observation, SessionConfig, Trajectory
from .workload import Manifest

CONV_FILTERS = 64
CONV_KERNEL = 3
HEAD_WIDTH = 64
# Rows per step of the trunk backward: its (rows, dim) block buffers stay
# cache-sized and are reused from the heap, not faulted in on every update.
_ROW_BLOCK = 128

REWARD_MODES = ("broadcast", "terminal")


@functools.cache
def _worker():
    """The one thread beside the caller's in :meth:`Agent.gradients`.

    It runs the value head's large matmuls, which release the GIL: its
    first-layer forward and weight gradient and its :meth:`FeatureTrunk.backward`.
    Everything else stays on the calling thread: the heads' tails, the losses
    and the optimizer steps, and every other method of ``neural``, ``Agent``
    and ``gem``, which ``perfbench/tracing.py`` wraps in spans on one stack.
    The caller allocates the buffers the worker fills, so the worker's own
    malloc arena stays small.
    """
    # Imported here: concurrent.futures loads logging, about 0.6 MB of peak
    # memory that processes which never update need not hold.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="abr-arena-value")


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _beside(here, there):
    """(here(), there()): ``there`` on the worker thread while ``here`` runs
    on this one. The worker is waited for even when ``here`` raises."""
    future = _worker().submit(there)
    try:
        result = here()
    finally:
        future.exception()  # waits; a failure of ``here`` takes precedence
    return result, future.result()


META_KIND = "abr-arena-agent"


@dataclass(frozen=True)
class AgentConfig:
    history_len: int = 10
    num_levels: int = 6
    discount: float = 0.6
    entropy_weight: float = 0.01
    policy_lr: float = 1e-4
    value_lr: float = 1e-3
    td_steps: int = 1
    reward_mode: str = "broadcast"
    throughput_scale_kbps: float = 10_000.0
    time_scale_s: float = 10.0
    size_scale_bits: float = 8e6

    def __post_init__(self):
        for name in ("history_len", "num_levels"):
            if getattr(self, name) < CONV_KERNEL:
                raise ValueError(f"{name} must be >= {CONV_KERNEL}, got {getattr(self, name)}")
        if not 0 < self.discount <= 1:
            raise ValueError(f"discount must be in (0,1], got {self.discount}")
        if not (math.isfinite(self.entropy_weight) and self.entropy_weight >= 0):
            raise ValueError(f"entropy_weight must be finite and >= 0, got {self.entropy_weight}")
        for name in ("policy_lr", "value_lr", "throughput_scale_kbps", "time_scale_s",
                     "size_scale_bits"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.td_steps < 1:
            raise ValueError(f"td_steps must be >= 1, got {self.td_steps}")
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"reward_mode must be one of {REWARD_MODES}")

    @property
    def flat_dim(self) -> int:
        return 3 * self.history_len + 2 + self.num_levels + HIDDEN_SIZE


@dataclass(frozen=True)
class SessionScales:
    """Divisors the config cannot know up front: the video's top bitrate and
    length and the session's buffer capacity."""

    top_bitrate_kbps: float
    buffer_capacity_s: float
    total_duration_s: float


def normalize(obs: Observation, config: AgentConfig, scales: SessionScales,
              out: np.ndarray) -> np.ndarray:
    """Write physical-unit observations, scaled into the network's input
    range, into the state columns of the flat rows ``out`` and return it.

    A batch of observations fills one row of ``out`` per session. Scaling is
    done in float64 and rounded once into the rows; the GEM's hidden-feature
    columns are left as they are.
    """
    k, n = config.history_len, config.num_levels
    out[..., :k] = obs.throughput_kbps / config.throughput_scale_kbps
    out[..., k:2 * k] = obs.download_time_s / config.time_scale_s
    out[..., 2 * k:3 * k] = obs.chosen_bitrate_kbps / scales.top_bitrate_kbps
    out[..., 3 * k] = obs.remaining_play_s / scales.total_duration_s
    out[..., 3 * k + 1] = obs.buffer_s / scales.buffer_capacity_s
    out[..., 3 * k + 2:3 * k + 2 + n] = obs.next_sizes_bits / config.size_scale_bits
    return out


def sample_levels(probs: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Draw row i's level with ``rngs[i]``, exactly as
    ``rngs[i].choice(len(row), p=row)`` does: one ``random()`` per row, then
    the number of entries of the normalized cumulative sum at or below it.

    Rows must be finite, non-negative and sum to 1 within sqrt(eps), as
    ``choice`` requires; no generator is advanced when one is not.
    """
    p = np.asarray(probs, dtype=np.float64)
    if not np.all(np.isfinite(p) & (p >= 0)):
        raise ValueError("probabilities must be finite and non-negative")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > np.sqrt(np.finfo(np.float64).eps)):
        raise ValueError("probabilities do not sum to 1")
    u = np.array([rng.random() for rng in rngs])
    cdf = np.cumsum(p, axis=1)
    cdf = cdf / cdf[:, -1:]
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def dynamic_lr(win_rate: float, base_lr: float) -> float:
    """Win-rate-scheduled learning rate (natural log, 0*ln(0) == 0).

    Below 0.5 the rate is base_lr * (w ln w + 2); at or above 0.5 it is
    -base_lr * w ln w, so a fully dominant agent (w = 1) stops learning.
    """
    if not 0.0 <= win_rate <= 1.0:
        raise ValueError(f"win rate must be in [0,1], got {win_rate}")
    w_log_w = 0.0 if win_rate == 0.0 else win_rate * math.log(win_rate)
    return base_lr * (w_log_w + 2.0) if win_rate < 0.5 else -base_lr * w_log_w


def td_targets(rewards: np.ndarray, values: np.ndarray, discount: float,
               td_steps: int = 1) -> np.ndarray:
    """n-step bootstrap targets along the last axis, one session per row (a
    1-D array is one session); the value beyond a session's last step is 0."""
    rewards, values = np.asarray(rewards, np.float64), np.asarray(values, np.float64)
    horizon, targets = rewards.shape[-1], np.zeros(rewards.shape, dtype=np.float64)
    for j in range(min(td_steps, horizon)):
        targets[..., :horizon - j] += (discount ** j) * rewards[..., j:]
    if td_steps < horizon:
        targets[..., :horizon - td_steps] += (discount ** td_steps) * values[..., td_steps:]
    return targets


@dataclass
class UpdateBatch:
    """One epoch's update data: every step's flat row and action, session
    after session, and the (sessions, chunks) rewards."""

    inputs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    win_rate: float


class FeatureTrunk:
    """The shared feature layer, read straight off flat rows.

    Each history segment of the row (throughput, download time, bitrate, next
    sizes, hidden) feeds a 1-channel kernel-3 valid convolution; the two scalars
    feed a dense layer. Features are position-major, a (positions + 1, filters)
    block: each branch is one matmul of its gathered windows into its own slab,
    the scalar units come last, and one bias add and one ReLU cover the block.
    The backward takes one head's first dense layer as (d_h, W), output
    gradient and weight, and walks the batch in blocks of ``_ROW_BLOCK`` rows,
    so no (batch, dim) feature gradient is built. Per block d_h @ W.T is one
    matmul into the block buffer, masked in place by the ReLU, and one batched
    matmul against the block's (positions, rows, kernel) windows gives every
    position's kernel gradient. Per-position kernel and bias sums are added up
    per branch after the last block.

    ``order[c]`` is column c's filter-major column (filter f, position l at
    f * width + l in each branch), the checkpoint row order of the heads'
    first layers. ``Agent`` permutes those rows at initialisation, save and
    load; their Adam moments are position-major, to be permuted likewise.
    """

    def __init__(self, config: AgentConfig, rng: np.random.Generator | None):
        k, n = config.history_len, config.num_levels
        segments = {"throughput": (0, k), "download": (k, k), "bitrate": (2 * k, k),
                    "sizes": (3 * k + 2, n), "hidden": (3 * k + 2 + n, HIDDEN_SIZE)}
        # _taps[l]: the row columns position l's window reads; branch i owns
        # positions lo:hi. _widths: positions per layer, the scalar units last.
        self.convs, self._branches, taps, order, lo = {}, [], [], [], 0
        for name, (start, length) in segments.items():
            conv = self.convs[name] = Conv1D(1, CONV_FILTERS, CONV_KERNEL, rng=rng)
            hi = lo + length - CONV_KERNEL + 1
            taps.append(start + np.arange(hi - lo)[:, None] + np.arange(CONV_KERNEL))
            order.append(np.arange(CONV_FILTERS * lo, CONV_FILTERS * hi).reshape(-1, hi - lo).T)
            self._branches.append((conv, lo, hi))
            lo = hi
        self._taps = np.concatenate(taps)
        self._widths = [hi - lo for _, lo, hi in self._branches] + [1]
        self.order = np.concatenate([*order, CONV_FILTERS * lo + np.arange(CONV_FILTERS)], axis=None)
        self.scalars = Dense(2, CONV_FILTERS, rng=rng)
        self._scalar_cols = slice(3 * k, 3 * k + 2)
        self.dim = CONV_FILTERS * (lo + 1)
        self.flat_dim = config.flat_dim

    def params(self) -> list[np.ndarray]:
        return [p for layer in (*self.convs.values(), self.scalars) for p in layer.params()]

    def forward(self, rows: np.ndarray):
        """Features of ``rows`` (batch, flat_dim), in the parameters' dtype."""
        rows = np.asarray(rows, dtype=self.scalars.weight.dtype)
        if rows.ndim != 2 or rows.shape[1] != self.flat_dim:
            raise ValueError(f"rows must be (batch, {self.flat_dim}), got {rows.shape}")
        windows = rows[:, self._taps]
        features = np.empty((len(rows), self.dim), dtype=rows.dtype)
        slabs = features.reshape(len(rows), -1, CONV_FILTERS)
        for conv, lo, hi in self._branches:
            np.matmul(windows[:, lo:hi], conv.weight[:, 0].T, out=slabs[:, lo:hi])
        np.matmul(rows[:, self._scalar_cols], self.scalars.weight, out=slabs[:, -1])
        slabs += np.repeat(self.params()[1::2], self._widths, axis=0)  # each layer's bias
        np.maximum(features, 0, out=features)
        # np.maximum keeps NaN and +inf: the largest feature is finite iff all are.
        if not np.isfinite(features.max()):
            raise FloatingPointError("non-finite network output")
        return features, (rows, features)

    def workspace(self) -> tuple[np.ndarray, np.ndarray]:
        """The (``_ROW_BLOCK``, dim) block gradient and ReLU mask buffers of
        one :meth:`backward` call."""
        return (np.empty((_ROW_BLOCK, self.dim), self.scalars.weight.dtype),
                np.empty((_ROW_BLOCK, self.dim), bool))

    def backward(self, cache, d_h, weight, work=None) -> list[np.ndarray]:
        """Parameter gradients in :meth:`params` order for one head whose
        first dense layer has weight ``weight`` and output gradient ``d_h``;
        no input gradient. ``work`` is a :meth:`workspace`, new if None."""
        rows, features = cache
        positions, dtype = len(self._taps), features.dtype
        d_block, mask = self.workspace() if work is None else work
        # Each conv position's kernel and each position's bias sums, then the
        # scalar units' weight gradient.
        d_kernel = np.zeros((positions, CONV_FILTERS, CONV_KERNEL), dtype)
        d_bias = np.zeros((positions + 1, CONV_FILTERS), dtype)
        d_scalar = np.zeros(self.scalars.weight.shape, dtype)
        for start in range(0, len(rows), _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, len(rows))
            block = slice(start, stop)
            d_pre = np.matmul(d_h[block], weight.T, out=d_block[:stop - start])
            d_pre *= np.greater(features[block], 0, out=mask[:stop - start])
            d_pre = d_pre.reshape(len(d_pre), -1, CONV_FILTERS)
            windows = rows[block, self._taps].transpose(1, 0, 2)
            d_kernel += d_pre[:, :-1].transpose(1, 2, 0) @ windows
            d_bias += d_pre.sum(axis=0)
            d_scalar += rows[block, self._scalar_cols].T @ d_pre[:, -1]
        starts = [lo for _, lo, _ in self._branches]
        kernels = np.add.reduceat(d_kernel, starts)
        biases = np.add.reduceat(d_bias[:-1], starts)
        return [g for conv, kernel, bias in zip(self.convs.values(), kernels, biases)
                for g in (kernel.reshape(conv.weight.shape), bias)] + [d_scalar, d_bias[-1]]


class Agent:
    """Feature trunk, policy and value heads, and a paired GEM."""

    def __init__(self, config: AgentConfig = AgentConfig(), *, seed: int = 0):
        self._build(config, *(np.random.default_rng([seed, i]) for i in (0, 1)))
        self._permute_feature_rows(self.trunk.order)  # drawn filter-major, as stored

    def _permute_feature_rows(self, index: np.ndarray) -> None:
        """Reorder the heads' first-layer rows, one per trunk feature, in place."""
        for head in (self.policy_head, self.value_head):
            head.layers[0].weight[...] = head.layers[0].weight[index]

    def _build(self, config: AgentConfig, rng: np.random.Generator | None,
               gem_rng: np.random.Generator | None) -> None:
        """Networks and optimizers drawn from the generators; all-zero for None."""
        self.config = config
        self.trunk = FeatureTrunk(config, rng)
        self.policy_head = Sequential([Dense(self.trunk.dim, HEAD_WIDTH, rng=rng), Relu(),
                                       Dense(HEAD_WIDTH, config.num_levels, rng=rng)])
        self.value_head = Sequential([Dense(self.trunk.dim, HEAD_WIDTH, rng=rng), Relu(),
                                      Dense(HEAD_WIDTH, 1, rng=rng)])
        trunk_params = self.trunk.params()
        self.policy_opt = Adam(trunk_params + self.policy_head.params(), lr=config.policy_lr)
        self.value_opt = Adam(trunk_params + self.value_head.params(), lr=config.value_lr)
        self.gem = GemModule(config.flat_dim - HIDDEN_SIZE, rng=gem_rng)
        self.rating = Rating()

    def policy_probs(self, rows: np.ndarray) -> np.ndarray:
        features, _ = self.trunk.forward(rows)
        logits, _ = self.policy_head.forward(features)
        return softmax(logits)

    def act(self, rows: np.ndarray, mode: str = "greedy",
            rngs: Sequence[np.random.Generator | None] | None = None) -> np.ndarray:
        """Pick one level per flat normalized row.

        Greedy takes the argmax (ties resolve to the lowest index); sample
        mode draws row i from its softmax distribution with ``rngs[i]``.
        """
        probs = self.policy_probs(rows)
        if mode == "greedy":
            return np.argmax(probs, axis=1)
        if mode == "sample":
            if rngs is None or len(rngs) != len(probs) or any(rng is None for rng in rngs):
                raise ValueError("sample mode needs one random generator per row")
            p = probs.astype(np.float64)
            p /= p.sum(axis=1, keepdims=True)
            return sample_levels(p, rngs)
        raise ValueError(f"unknown act mode {mode!r}")

    # ---- learning --------------------------------------------------------

    def build_update_batch(self, rows: np.ndarray, trajectories: Sequence[Trajectory],
                           outcome_rewards: Sequence[float], win: float) -> UpdateBatch:
        """One epoch's batch from the (sessions, chunks, flat_dim) block of
        flat rows its :class:`AgentPolicy` wrote, the played trajectories, and
        each session's match reward on every step (``broadcast``) or on its
        last step only (``terminal``)."""
        outcomes = np.asarray(outcome_rewards, dtype=np.float64)
        rewards = np.zeros(rows.shape[:2], dtype=np.float64)
        if self.config.reward_mode == "broadcast":
            rewards[:] = outcomes[:, None]
        else:
            rewards[:, -1] = outcomes
        actions = np.array([t.levels for t in trajectories], dtype=np.int64)
        return UpdateBatch(inputs=rows.reshape(-1, rows.shape[-1]), actions=actions.ravel(),
                           rewards=rewards, win_rate=win)

    def gradients(self, batch: UpdateBatch):
        """Losses plus policy-side and value-side gradients.

        Both gradients are taken at the same (current) parameters. The TD
        targets bootstrap from this forward's values and, like the advantage
        in the policy objective, are held constant. Returns
        (report, policy_grads, value_grads); the gradient lists are None when
        a loss came out non-finite.

        The value head's first-layer matmuls and trunk backward run on the
        worker thread (see :func:`_worker`) while this thread does the policy
        head's; each head's arithmetic is the same as run alone.
        """
        cfg = self.config
        features, trunk_cache = self.trunk.forward(batch.inputs)
        batch_size = features.shape[0]
        first_p, first_v = self.policy_head.layers[0], self.value_head.layers[0]
        tail_p, tail_v = (Sequential(head.layers[1:])
                          for head in (self.policy_head, self.value_head))
        hidden_v = np.empty((batch_size, HEAD_WIDTH), features.dtype)
        hidden_p, _ = _beside(lambda: features @ first_p.weight,
                              lambda: np.matmul(features, first_v.weight, out=hidden_v))
        logits, policy_cache = tail_p.forward(hidden_p + first_p.bias)
        values, value_cache = tail_v.forward(hidden_v + first_v.bias)

        values = values[:, 0].astype(np.float64)
        q_targets = td_targets(batch.rewards, values.reshape(batch.rewards.shape),
                               cfg.discount, cfg.td_steps).ravel()
        adv = (q_targets - values).astype(DTYPE)
        value_loss = float(np.mean(adv.astype(np.float64) ** 2))

        probs = softmax(logits)
        log_probs = np.log(np.maximum(probs, 1e-12))
        entropy = -(probs * log_probs).sum(axis=1)
        chosen = log_probs[np.arange(batch_size), batch.actions]
        policy_loss = float(-np.mean(adv * chosen + cfg.entropy_weight * entropy))

        report = {"policy_loss": policy_loss, "value_loss": value_loss,
                  "entropy": float(entropy.mean())}
        if not (np.isfinite(policy_loss) and np.isfinite(value_loss)):
            return report, None, None

        # d(value_loss)/d(v) for the squared bootstrap error.
        d_values = (-2.0 * adv / batch_size)[:, None].astype(DTYPE)
        d_h_v, value_tail_grads = tail_v.backward(value_cache, d_values)
        grad_w_v, work = np.empty_like(first_v.weight), self.trunk.workspace()

        def value_side():
            return (self.trunk.backward(trunk_cache, d_h_v, first_v.weight, work)
                    + [np.matmul(features.T, d_h_v, out=grad_w_v), d_h_v.sum(axis=0)]
                    + value_tail_grads)

        def policy_side():
            # d(policy_loss)/d(logits): the log-likelihood term plus the
            # entropy bonus, both expressed directly at the logits for stability.
            one_hot = np.zeros_like(probs)
            one_hot[np.arange(batch_size), batch.actions] = 1.0
            d_logits = (adv[:, None] * (probs - one_hot)
                        + cfg.entropy_weight * probs * (log_probs + entropy[:, None]))
            d_h, tail_grads = tail_p.backward(policy_cache, (d_logits / batch_size).astype(DTYPE))
            return (self.trunk.backward(trunk_cache, d_h, first_p.weight)
                    + [features.T @ d_h, d_h.sum(axis=0)] + tail_grads)

        policy_grads, value_grads = _beside(policy_side, value_side)
        return report, policy_grads, value_grads

    def update(self, batch: UpdateBatch) -> dict[str, float]:
        """One value descent step and one policy ascent step, with rates from
        the win-rate schedule. A non-finite loss aborts with no writes."""
        lr_p = dynamic_lr(batch.win_rate, self.config.policy_lr)
        lr_v = dynamic_lr(batch.win_rate, self.config.value_lr)
        report, policy_grads, value_grads = self.gradients(batch)
        report.update(policy_lr=lr_p, value_lr=lr_v)
        if policy_grads is not None:
            for opt, lr, grads in ((self.value_opt, lr_v, value_grads),
                                   (self.policy_opt, lr_p, policy_grads)):
                opt.lr = lr
                opt.step(grads)
        return report

    def flatten_trajectory(self, observations: Observation,
                           scales: SessionScales) -> np.ndarray:
        """Flat rows rebuilt from a trajectory's observations, one batch row
        per step: the state columns equal the rows an :class:`AgentPolicy`
        wrote, the GEM columns are zero."""
        rows = np.zeros((len(observations.buffer_s), self.config.flat_dim), dtype=DTYPE)
        return normalize(observations, self.config, scales, rows)

    # ---- persistence -----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The live parameter and batch-norm statistic arrays, by checkpoint
        name ``<net>.<layer>.<attribute>``: a trunk layer is its branch name or
        ``scalars``, a head or GEM network layer its index."""
        layers = {f"trunk.{name}": conv for name, conv in self.trunk.convs.items()}
        layers["trunk.scalars"] = self.trunk.scalars
        nets = {"policy_head": self.policy_head, "value_head": self.value_head,
                "gem_generator": self.gem.gen, "gem_discriminator": self.gem.disc}
        for net_name, net in nets.items():
            layers.update((f"{net_name}.{i}", layer) for i, layer in enumerate(net.layers))
        return {f"{prefix}.{attr}": value for prefix, layer in layers.items()
                for attr, value in vars(layer).items() if isinstance(value, np.ndarray)}

    def save(self, path) -> None:
        """Write one ``.npz`` file: every array of :meth:`arrays`, the heads'
        first-layer rows permuted filter-major in place for the write, and a
        JSON ``meta`` entry of ``kind``, ``agent_config`` and ``rating``. A
        temporary file in the same directory replaces ``path`` once written."""
        meta = json.dumps({"kind": META_KIND, "agent_config": asdict(self.config),
                           "rating": self.rating.value}, sort_keys=True)
        tmp = Path(f"{path}.{os.getpid()}.tmp")
        try:
            self._permute_feature_rows(np.argsort(self.trunk.order))
            # A file handle, not a path: given a path, np.savez appends ".npz".
            with open(tmp, "wb") as fh:
                np.savez(fh, allow_pickle=False, meta=np.array(meta), **self.arrays())
            os.replace(tmp, path)
        finally:
            self._permute_feature_rows(self.trunk.order)
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path) -> "Agent":
        """Read a checkpoint written by :meth:`save` into zero-initialised
        networks of its ``agent_config``. The stored names must be exactly
        their :meth:`arrays`, each with its shape and dtype. A malformed file
        raises one ValueError that names ``path``."""
        stored = _read_npz(path)
        try:
            meta = json.loads(stored.pop("meta").item())
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: no JSON meta entry in checkpoint: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("kind") != META_KIND:
            raise ValueError(f"{path}: not an agent checkpoint")
        try:
            config, rating = AgentConfig(**meta["agent_config"]), float(meta["rating"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad checkpoint metadata: {exc}") from exc
        agent = cls.__new__(cls)
        agent._build(config, None, None)
        agent.rating = Rating(value=rating)
        arrays = agent.arrays()
        if stored.keys() != arrays.keys():
            raise ValueError(f"{path}: missing arrays {sorted(arrays.keys() - stored)}, "
                             f"unexpected arrays {sorted(stored.keys() - arrays)}")
        for name, dst in arrays.items():
            src = stored.pop(name)  # freed once copied
            if src.shape != dst.shape or src.dtype != dst.dtype:
                raise ValueError(f"{path}: {name} is {src.dtype} {src.shape}, "
                                 f"expected {dst.dtype} {dst.shape}")
            if name in ("policy_head.0.weight", "value_head.0.weight"):
                # Filter-major rows; "clip" (the indices are valid) skips take's buffer.
                np.take(src, agent.trunk.order, axis=0, out=dst, mode="clip")
            else:
                dst[...] = src
        return agent


def _read_npz(path) -> dict[str, np.ndarray]:
    """The arrays of the ``.npz`` file ``path``, which must end where its zip
    ends; its bytes are freed on return. Damage raises one ValueError naming it."""
    blob = Path(path).read_bytes()
    if not blob.startswith(b"PK\x03\x04"):
        raise ValueError(f"{path}: not an agent checkpoint")
    # np.savez writes no zip comment: the 22-byte end record closes the file.
    end = blob.rfind(b"PK\x05\x06") + 22
    if end < 22 or end > len(blob):
        raise ValueError(f"{path}: truncated checkpoint")
    if end < len(blob):
        raise ValueError(f"{path}: {len(blob) - end} trailing bytes in checkpoint")
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint: {exc}") from exc


class AgentPolicy:
    """``agent`` as a :data:`simulator.Policy` over ``sessions`` sessions of
    one video; session i samples with ``rngs[i]`` in sample mode.

    ``rows`` (num_chunks, sessions, flat_dim) is the only copy of the
    normalized states and hidden features: call t normalizes into ``rows[t]``
    and, for t > 0, fills its GEM columns from the generator on ``rows[t - 1]``.
    """

    def __init__(self, agent: Agent, sessions: int, manifest: Manifest,
                 cfg: SessionConfig = SessionConfig(), mode: str = "greedy",
                 rngs: Sequence[np.random.Generator | None] | None = None):
        config = agent.config
        if cfg.history_len != config.history_len or manifest.num_levels != config.num_levels:
            raise ValueError("session shapes do not match agent config")
        self.agent, self.mode, self.rngs = agent, mode, rngs
        self.rows = np.zeros((manifest.num_chunks, sessions, config.flat_dim), dtype=DTYPE)
        self._scales = SessionScales(manifest.ladder_kbps[-1], cfg.buffer_capacity_s,
                                     manifest.total_duration_s)
        self._t = 0

    def __call__(self, obs: Observation) -> np.ndarray:
        t, rows = self._t, self.rows
        # A module-global lookup, so wrappers of agent.normalize see each call.
        normalize(obs, self.agent.config, self._scales, rows[t])
        if t:
            rows[t, :, -HIDDEN_SIZE:] = self.agent.gem.hidden_for(rows[t - 1])
        self._t += 1
        return self.agent.act(rows[t], self.mode, self.rngs)
