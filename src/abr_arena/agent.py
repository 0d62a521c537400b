"""The self-play ABR agent: a conv feature trunk over flat normalized observation
rows with softmax policy and value heads, trained from match outcomes with an
entropy bonus and a win-rate-scheduled learning rate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import gem as gem_mod
from .elo import Rating
from .neural import (
    DTYPE, Adam, Conv1D, Dense, Relu, Sequential, load_bundle, save_bundle, softmax,
)
from .simulator import HIDDEN_SIZE, Observation, SessionConfig, Trajectory
from .workload import Manifest

CONV_FILTERS = 64
CONV_KERNEL = 3
HEAD_WIDTH = 64

REWARD_MODES = ("broadcast", "terminal")


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
        if self.history_len < CONV_KERNEL:
            raise ValueError(f"history_len must be >= {CONV_KERNEL}, got {self.history_len}")
        if self.num_levels < CONV_KERNEL:
            raise ValueError(f"num_levels must be >= {CONV_KERNEL}, got {self.num_levels}")
        if not 0 < self.discount <= 1:
            raise ValueError(f"discount must be in (0,1], got {self.discount}")
        if self.entropy_weight < 0:
            raise ValueError(f"entropy_weight must be >= 0, got {self.entropy_weight}")
        if self.policy_lr <= 0 or self.value_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.td_steps < 1:
            raise ValueError(f"td_steps must be >= 1, got {self.td_steps}")
        if self.reward_mode not in REWARD_MODES:
            raise ValueError(f"reward_mode must be one of {REWARD_MODES}")

    @property
    def flat_dim(self) -> int:
        return 3 * self.history_len + 2 + self.num_levels + HIDDEN_SIZE


@dataclass(frozen=True)
class SessionScales:
    """Per-session divisors the config cannot know up front."""

    top_bitrate_kbps: float
    buffer_capacity_s: float
    total_duration_s: float

    @classmethod
    def from_session(cls, manifest: Manifest, cfg: SessionConfig) -> "SessionScales":
        return cls(
            top_bitrate_kbps=float(manifest.ladder_kbps[-1]),
            buffer_capacity_s=cfg.buffer_capacity_s,
            total_duration_s=manifest.total_duration_s,
        )


def normalize(obs: Observation, config: AgentConfig, scales: SessionScales) -> Observation:
    """Scale a physical-unit observation into the network's input range.

    The hidden feature passes through unscaled.
    """
    return Observation(
        throughput_kbps=(obs.throughput_kbps / config.throughput_scale_kbps).astype(DTYPE),
        download_time_s=(obs.download_time_s / config.time_scale_s).astype(DTYPE),
        chosen_bitrate_kbps=(obs.chosen_bitrate_kbps / scales.top_bitrate_kbps).astype(DTYPE),
        remaining_play_s=obs.remaining_play_s / scales.total_duration_s,
        buffer_s=obs.buffer_s / scales.buffer_capacity_s,
        next_sizes_bits=(obs.next_sizes_bits / config.size_scale_bits).astype(DTYPE),
        hidden=np.asarray(obs.hidden, dtype=DTYPE),
    )


def flatten_observation(obs: Observation) -> np.ndarray:
    """Concatenate observation fields into one float32 vector."""
    return np.concatenate([
        obs.throughput_kbps, obs.download_time_s, obs.chosen_bitrate_kbps,
        [obs.remaining_play_s, obs.buffer_s], obs.next_sizes_bits, obs.hidden,
    ], dtype=DTYPE)


def dynamic_lr(win_rate: float, base_lr: float) -> float:
    """Win-rate-scheduled learning rate (natural log, 0*ln(0) == 0).

    Below 0.5 the rate is base_lr * (w ln w + 2); at or above 0.5 it is
    -base_lr * w ln w, so a fully dominant agent (w = 1) stops learning.
    """
    if not 0.0 <= win_rate <= 1.0:
        raise ValueError(f"win rate must be in [0,1], got {win_rate}")
    w_log_w = 0.0 if win_rate == 0.0 else win_rate * math.log(win_rate)
    if win_rate < 0.5:
        return base_lr * (w_log_w + 2.0)
    return -base_lr * w_log_w


def td_targets(rewards: np.ndarray, values: np.ndarray, discount: float,
               td_steps: int = 1) -> np.ndarray:
    """n-step bootstrap targets; the value beyond the terminal step is 0."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    horizon = len(rewards)
    if horizon == 0:
        raise ValueError("empty trajectory")
    targets = np.zeros(horizon, dtype=np.float64)
    for t in range(horizon):
        q = 0.0
        for j in range(td_steps):
            if t + j >= horizon:
                break
            q += (discount ** j) * rewards[t + j]
        tail = t + td_steps
        if tail < horizon:
            q += (discount ** td_steps) * values[tail]
        targets[t] = q
    return targets


def advantages(rewards: np.ndarray, values: np.ndarray, discount: float,
               td_steps: int = 1) -> np.ndarray:
    """A_t = Q_t - V(s_t) with Q_t the n-step bootstrap target."""
    return td_targets(rewards, values, discount, td_steps) - np.asarray(values, dtype=np.float64)


@dataclass
class UpdateBatch:
    """One epoch's policy/value update data; ``inputs`` stacks every step's flat row."""

    inputs: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    q_targets: np.ndarray
    win_rate: float


class FeatureTrunk:
    """The shared feature layer, read straight off flat observation rows.

    Each history segment of the row (throughput, download time, bitrate, next
    sizes, hidden) feeds a 1-channel kernel-3 valid convolution, run as a
    gather of its windows plus one matmul; the two scalars feed a dense layer.
    ReLU outputs fill one feature row: branches in that order, each
    filter-major (filter f, position l at f * width + l), scalar units last.
    The parameters stay in the Conv1D/Dense layers the checkpoint names.
    """

    def __init__(self, config: AgentConfig, rng: np.random.Generator):
        k, n = config.history_len, config.num_levels
        segments = {"throughput": (0, k), "download": (k, k), "bitrate": (2 * k, k),
                    "sizes": (3 * k + 2, n), "hidden": (3 * k + 2 + n, HIDDEN_SIZE)}
        # _taps[j, c]: the row column kernel tap j reads at output position c.
        # Branch i owns positions lo:hi, so feature columns CONV_FILTERS * (lo:hi).
        self.convs, self._branches, taps, lo = {}, [], [], 0
        for name, (start, length) in segments.items():
            conv = self.convs[name] = Conv1D(1, CONV_FILTERS, CONV_KERNEL, rng=rng)
            hi = lo + length - CONV_KERNEL + 1
            taps.append(start + np.arange(CONV_KERNEL)[:, None] + np.arange(hi - lo))
            self._branches.append((conv, lo, hi))
            lo = hi
        self._taps = np.concatenate(taps, axis=1)
        self.scalars = Dense(2, CONV_FILTERS, rng=rng)
        self._scalar_cols = slice(3 * k, 3 * k + 2)
        self.dim = CONV_FILTERS * (lo + 1)

    def params(self) -> list[np.ndarray]:
        return [p for layer in (*self.convs.values(), self.scalars) for p in layer.params()]

    def nets(self) -> dict[str, Sequential]:
        """The per-branch networks the checkpoint format stores."""
        nets = {f"branch_{name}": Sequential([conv, Relu()]) for name, conv in self.convs.items()}
        nets["scalars"] = Sequential([self.scalars, Relu()])
        return nets

    def forward(self, rows: np.ndarray):
        """Features of ``rows`` (batch, flat_dim), in the parameters' dtype."""
        rows = np.asarray(rows, dtype=self.scalars.weight.dtype)
        windows = rows[:, self._taps]
        features = np.empty((len(rows), self.dim), dtype=rows.dtype)
        for conv, lo, hi in self._branches:
            # (filters, kernel) @ (batch, kernel, width): filter-major output.
            pre = conv.weight.reshape(CONV_FILTERS, CONV_KERNEL) @ windows[:, :, lo:hi]
            out = features[:, CONV_FILTERS * lo:CONV_FILTERS * hi]
            np.add(pre, conv.bias[:, None], out=out.reshape(-1, CONV_FILTERS, hi - lo))
        np.add(rows[:, self._scalar_cols] @ self.scalars.weight, self.scalars.bias,
               out=features[:, -CONV_FILTERS:])
        np.maximum(features, 0, out=features)
        if not np.all(np.isfinite(features)):
            raise FloatingPointError("non-finite network output")
        return features, (rows, features)

    def backward(self, cache, d_features: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients, in :meth:`params` order; no input gradient."""
        rows, features = cache
        windows = rows[:, self._taps]
        grads: list[np.ndarray] = []
        for conv, lo, hi in self._branches:
            span = slice(CONV_FILTERS * lo, CONV_FILTERS * hi)
            d_pre = d_features[:, span] * (features[:, span] > 0)
            # One matmul over all (row, position) pairs: (filters, batch * width).
            d_pre = d_pre.reshape(-1, CONV_FILTERS, hi - lo).transpose(1, 0, 2)
            d_pre = d_pre.reshape(CONV_FILTERS, -1)
            patches = windows[:, :, lo:hi].transpose(0, 2, 1).reshape(-1, CONV_KERNEL)
            grads += [(d_pre @ patches).reshape(conv.weight.shape), d_pre.sum(axis=1)]
        d_pre = d_features[:, -CONV_FILTERS:] * (features[:, -CONV_FILTERS:] > 0)
        return grads + [rows[:, self._scalar_cols].T @ d_pre, d_pre.sum(axis=0)]


class Agent:
    """Feature trunk, policy and value heads, and a paired GEM."""

    def __init__(self, config: AgentConfig = AgentConfig(), *, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.trunk = FeatureTrunk(config, rng)
        self.policy_head = Sequential([Dense(self.trunk.dim, HEAD_WIDTH, rng=rng), Relu(),
                                       Dense(HEAD_WIDTH, config.num_levels, rng=rng)])
        self.value_head = Sequential([Dense(self.trunk.dim, HEAD_WIDTH, rng=rng), Relu(),
                                      Dense(HEAD_WIDTH, 1, rng=rng)])
        trunk_params = self.trunk.params()
        self.policy_opt = Adam(trunk_params + self.policy_head.params(), lr=config.policy_lr)
        self.value_opt = Adam(trunk_params + self.value_head.params(), lr=config.value_lr)
        gem_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.gem = gem_mod.GemModule(config.flat_dim - HIDDEN_SIZE, rng=gem_rng)
        self.rating = Rating()

    # ---- forward passes -------------------------------------------------

    def observation_rows(self, norm_obs: Sequence[Observation]) -> np.ndarray:
        """Stack normalized observations into flat network input rows."""
        k, n = self.config.history_len, self.config.num_levels
        for obs in norm_obs:
            if ({obs.throughput_kbps.shape, obs.download_time_s.shape,
                 obs.chosen_bitrate_kbps.shape} != {(k,)} or obs.next_sizes_bits.shape != (n,)
                    or np.shape(obs.hidden) != (HIDDEN_SIZE,)):
                raise ValueError("observation shapes do not match agent config")
        return np.stack([flatten_observation(obs) for obs in norm_obs])

    def policy_probs(self, rows: np.ndarray) -> np.ndarray:
        features, _ = self.trunk.forward(rows)
        logits, _ = self.policy_head.forward(features)
        return softmax(logits)

    def state_values(self, rows: np.ndarray) -> np.ndarray:
        features, _ = self.trunk.forward(rows)
        values, _ = self.value_head.forward(features)
        return values[:, 0]

    # ---- acting ----------------------------------------------------------

    def act(self, norm_obs: Observation, mode: str = "greedy",
            rng: np.random.Generator | None = None) -> int:
        """Pick a level from a normalized observation.

        Greedy takes the argmax (ties resolve to the lowest index); sample
        mode draws from the softmax distribution with the provided generator.
        """
        probs = self.policy_probs(self.observation_rows([norm_obs]))[0]
        if mode == "greedy":
            return int(np.argmax(probs))
        if mode == "sample":
            if rng is None:
                raise ValueError("sample mode needs a random generator")
            p = probs.astype(np.float64)
            p /= p.sum()
            return int(rng.choice(self.config.num_levels, p=p))
        raise ValueError(f"unknown act mode {mode!r}")

    def policy_fn(self, scales: SessionScales, mode: str = "greedy",
                  rng: np.random.Generator | None = None) -> Callable[[Observation], int]:
        return lambda obs: self.act(normalize(obs, self.config, scales), mode, rng)

    def hidden_provider(self, scales: SessionScales) -> Callable[[Observation], np.ndarray]:
        def provider(prev_obs: Observation) -> np.ndarray:
            norm = normalize(prev_obs, self.config, scales)
            state_flat = flatten_observation(norm)[:-HIDDEN_SIZE]
            return self.gem.hidden_for(state_flat, norm.hidden)
        return provider

    # ---- learning --------------------------------------------------------

    def trajectory_rewards(self, outcome_reward: float, length: int) -> np.ndarray:
        if self.config.reward_mode == "broadcast":
            return np.full(length, outcome_reward, dtype=np.float64)
        rewards = np.zeros(length, dtype=np.float64)
        rewards[-1] = outcome_reward
        return rewards

    def build_update_batch(self, trajectories: Sequence[Trajectory],
                           outcome_rewards: Sequence[float],
                           win: float,
                           scales: Sequence[SessionScales]) -> UpdateBatch:
        """Normalize, bootstrap, and stack one epoch's trajectories."""
        rows = np.concatenate([self.flatten_trajectory(t, s) for t, s in zip(trajectories, scales)])
        values = np.split(self.state_values(rows).astype(np.float64),
                          np.cumsum([len(t.steps) for t in trajectories])[:-1])
        rewards = [self.trajectory_rewards(r, len(v)) for r, v in zip(outcome_rewards, values)]
        targets = [td_targets(r, v, self.config.discount, self.config.td_steps)
                   for r, v in zip(rewards, values)]
        actions = [s.action for t in trajectories for s in t.steps]
        return UpdateBatch(inputs=rows, actions=np.asarray(actions, dtype=np.int64),
                           rewards=np.concatenate(rewards), q_targets=np.concatenate(targets),
                           win_rate=win)

    def gradients(self, batch: UpdateBatch):
        """Losses plus policy-side and value-side gradients.

        Both gradients are taken at the same (current) parameters; the
        advantage is a constant coefficient in the policy objective. Returns
        (report, policy_grads, value_grads); the gradient lists are None when
        a loss came out non-finite.
        """
        cfg = self.config
        features, trunk_cache = self.trunk.forward(batch.inputs)
        batch_size = features.shape[0]

        values, value_cache = self.value_head.forward(features)
        values = values[:, 0]
        adv = (batch.q_targets - values.astype(np.float64)).astype(DTYPE)
        value_loss = float(np.mean(adv.astype(np.float64) ** 2))

        logits, policy_cache = self.policy_head.forward(features)
        probs = softmax(logits)
        log_probs = np.log(np.maximum(probs, 1e-12))
        entropy = -(probs * log_probs).sum(axis=1)
        chosen = log_probs[np.arange(batch_size), batch.actions]
        policy_loss = float(-np.mean(adv * chosen + cfg.entropy_weight * entropy))

        report = {
            "policy_loss": policy_loss,
            "value_loss": value_loss,
            "entropy": float(entropy.mean()),
        }
        if not (np.isfinite(policy_loss) and np.isfinite(value_loss)):
            return report, None, None

        # d(value_loss)/d(v) for the squared bootstrap error.
        d_values = (-2.0 * adv / batch_size)[:, None].astype(DTYPE)
        d_feat_v, value_grads = self.value_head.backward(value_cache, d_values)
        trunk_grads_v = self.trunk.backward(trunk_cache, d_feat_v)

        # d(policy_loss)/d(logits): the log-likelihood term plus the entropy
        # bonus, both expressed directly at the logits for stability.
        one_hot = np.zeros_like(probs)
        one_hot[np.arange(batch_size), batch.actions] = 1.0
        d_logits = (adv[:, None] * (probs - one_hot)
                    + cfg.entropy_weight * probs * (log_probs + entropy[:, None]))
        d_logits = (d_logits / batch_size).astype(DTYPE)
        d_feat_p, policy_grads = self.policy_head.backward(policy_cache, d_logits)
        trunk_grads_p = self.trunk.backward(trunk_cache, d_feat_p)

        return report, trunk_grads_p + policy_grads, trunk_grads_v + value_grads

    def update(self, batch: UpdateBatch) -> dict[str, float]:
        """One value descent step and one policy ascent step, with rates from
        the win-rate schedule. A non-finite loss aborts with no writes."""
        lr_p = dynamic_lr(batch.win_rate, self.config.policy_lr)
        lr_v = dynamic_lr(batch.win_rate, self.config.value_lr)
        report, policy_grads, value_grads = self.gradients(batch)
        report["policy_lr"] = lr_p
        report["value_lr"] = lr_v
        if policy_grads is None:
            return report
        self.value_opt.lr = lr_v
        self.value_opt.step(value_grads)
        self.policy_opt.lr = lr_p
        self.policy_opt.step(policy_grads)
        return report

    def flatten_trajectory(self, trajectory: Trajectory, scales: SessionScales) -> np.ndarray:
        """Per-step flat normalized observation rows."""
        return self.observation_rows(
            [normalize(s.observation, self.config, scales) for s in trajectory.steps])

    # ---- persistence -----------------------------------------------------

    def _nets(self) -> dict[str, Sequential]:
        nets = self.trunk.nets()
        nets["policy_head"] = self.policy_head
        nets["value_head"] = self.value_head
        nets["gem_generator"] = self.gem.gen
        nets["gem_discriminator"] = self.gem.disc
        return nets

    def save(self, path) -> None:
        extra = {
            "kind": "abr-arena-agent",
            "agent_config": asdict(self.config),
            "rating": self.rating.value,
        }
        save_bundle(path, self._nets(), extra)

    @classmethod
    def load(cls, path) -> "Agent":
        nets, extra = load_bundle(path)
        if extra.get("kind") != "abr-arena-agent":
            raise ValueError(f"{path}: not an agent checkpoint")
        config = AgentConfig(**extra["agent_config"])
        agent = cls(config, seed=0)
        for name, net in agent._nets().items():
            if name not in nets:
                raise ValueError(f"{path}: checkpoint missing network {name!r}")
            loaded = nets[name]
            dst = net.params() + net.state_arrays()
            src = loaded.params() + loaded.state_arrays()
            if len(dst) != len(src):
                raise ValueError(f"{path}: architecture mismatch in {name!r}")
            for d, s in zip(dst, src):
                if d.shape != s.shape:
                    raise ValueError(f"{path}: shape mismatch in {name!r}")
                d[...] = s
        agent.rating = Rating(value=float(extra.get("rating", 1000.0)))
        return agent
