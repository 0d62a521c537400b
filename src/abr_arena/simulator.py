"""Offline chunk-by-chunk ABR session engine, stepped in lockstep.

A session streams one video over one trace: each step downloads the next
chunk at the chosen ladder level, with exact piecewise-constant integration
of the trace bandwidth, and accounts buffer occupancy, rebuffering, and
bitrate-change totals. :class:`Session` holds many sessions as arrays and
plays chunk index t of all unfinished ones in one lockstep ``step``. The
engine works in physical units; observation scaling lives with the agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .workload import Manifest, Trace, transfer_time


@dataclass(frozen=True)
class SessionConfig:
    buffer_capacity_s: float = 25.0
    per_chunk_latency_s: float = 0.0
    history_len: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.buffer_capacity_s) and self.buffer_capacity_s > 0):
            raise ValueError(f"buffer capacity must be finite and > 0, got {self.buffer_capacity_s}")
        if not (math.isfinite(self.per_chunk_latency_s) and self.per_chunk_latency_s >= 0):
            raise ValueError(f"latency must be finite and >= 0, got {self.per_chunk_latency_s}")
        if self.history_len < 1:
            raise ValueError(f"history_len must be >= 1, got {self.history_len}")


@dataclass(frozen=True, slots=True)
class Observation:
    """State presented to a policy before each chunk decision.

    History arrays hold the last ``history_len`` values, oldest first, with
    pre-history slots zero-filled. A batch of observations has one leading
    row per session in every field: (m, history_len) histories, (m,)
    scalars and (m, levels) next sizes.
    """

    throughput_kbps: np.ndarray
    download_time_s: np.ndarray
    chosen_bitrate_kbps: np.ndarray
    remaining_play_s: float
    buffer_s: float
    next_sizes_bits: np.ndarray


@dataclass(frozen=True)
class SessionMetrics:
    """Session totals judged by the match rule."""

    total_bitrate_kbps: float
    total_rebuffer_s: float
    total_change_kbps: float


@dataclass(frozen=True, slots=True)
class TrajectoryStep:
    action: int
    download_time_s: float


@dataclass(frozen=True)
class Trajectory:
    """A played session. ``rows`` holds the agent's flat network input, one
    row per step, when an agent played it (None for a plain policy)."""

    steps: tuple[TrajectoryStep, ...]
    metrics: SessionMetrics
    rows: np.ndarray | None = None


class Session:
    """One session per (trace, video) match, all stepped in lockstep.

    State is kept as arrays over sessions. The histories are
    (sessions, horizon + history_len): step t writes column
    t + history_len, so chunk index t's window is columns
    [t, t + history_len) and nothing is ever shifted. Buffer, clock and
    totals are vectors; ``active`` lists the sessions chunk index ``t`` plays.
    """

    def __init__(self, matches: Sequence[tuple[Trace, Manifest]],
                 cfg: SessionConfig = SessionConfig()):
        if not matches:
            raise ValueError("no sessions to play")
        self.traces = [trace for trace, _ in matches]
        self.cfg = cfg
        manifests = [manifest for _, manifest in matches]
        self.chunk_s = np.array([m.chunk_duration_s for m in manifests])
        if cfg.buffer_capacity_s <= self.chunk_s.max():
            raise ValueError(f"buffer capacity {cfg.buffer_capacity_s}s must exceed "
                             f"chunk duration {self.chunk_s.max()}s")
        if len({m.num_levels for m in manifests}) > 1:
            raise ValueError("videos played in lockstep must have ladders of one size")
        n, k = len(matches), cfg.history_len
        self.lengths = np.array([m.num_chunks for m in manifests])
        horizon = int(self.lengths.max())
        self.ladder_kbps = np.array([m.ladder_kbps for m in manifests])
        self._sizes = np.zeros((n, horizon, self.ladder_kbps.shape[1]))  # zero past a video's end
        for i, m in enumerate(manifests):
            self._sizes[i, :m.num_chunks] = m.sizes
        self.throughput_kbps, self.download_time_s, self.bitrate_kbps = np.zeros((3, n, horizon + k))
        self.actions = np.zeros((n, horizon), dtype=np.int64)
        (self.buffer_s, self.clock_s, self.total_download_s, self.total_idle_s,
         self.total_rebuffer_s, self.total_bitrate_kbps, self.total_change_kbps) = np.zeros((7, n))
        self.t = 0
        self.active = np.arange(n)

    @property
    def done(self) -> bool:
        return not len(self.active)

    def observe(self) -> Observation:
        """Every active session's observation as one batch; row j belongs to
        session ``active[j]``."""
        act, t, k = self.active, self.t, self.cfg.history_len
        return Observation(
            self.throughput_kbps[act, t:t + k], self.download_time_s[act, t:t + k],
            self.bitrate_kbps[act, t:t + k], (self.lengths[act] - t) * self.chunk_s[act],
            self.buffer_s[act], self._sizes[act, t])

    def views(self) -> list[Observation]:
        """The rows of :meth:`observe`: one plain observation per active session."""
        batch = self.observe()
        return list(map(Observation, batch.throughput_kbps, batch.download_time_s,
                        batch.chosen_bitrate_kbps, batch.remaining_play_s.tolist(),
                        batch.buffer_s.tolist(), batch.next_sizes_bits))

    def step(self, actions) -> None:
        """Download chunk index ``t`` of every active session, session
        ``active[j]`` at ladder level ``actions[j]``.

        Wall time advances by the download span (stalls included) plus any
        idle wait needed so the refilled buffer fits the capacity. Rebuffer
        time accrues only after playback has started; the first chunk's
        startup delay is excluded. Each session sees the same float64
        operations, in the same order, as a session stepped on its own.
        """
        if self.done:
            raise RuntimeError("stepping a finished session")
        act, t, k, cfg = self.active, self.t, self.cfg.history_len, self.cfg
        actions = np.asarray(actions)
        levels = self.ladder_kbps.shape[1]
        if actions.shape != act.shape or np.any((actions < 0) | (actions >= levels)):
            raise ValueError(f"actions {actions} out of range [0, {levels})")
        chunk_s, buffer, clock = self.chunk_s[act], self.buffer_s[act], self.clock_s[act]
        # Zero before the first chunk: an empty buffer always fits one.
        overshoot = np.maximum(buffer + chunk_s - cfg.buffer_capacity_s, 0.0)
        buffer -= overshoot
        clock += overshoot
        self.total_idle_s[act] += overshoot

        size = self._sizes[act, t, actions]
        latency = cfg.per_chunk_latency_s
        # The trace walk stays one scalar integration per session.
        tau = latency + np.array([
            transfer_time(self.traces[i], start, bits)
            for i, start, bits in zip(act.tolist(), (clock + latency).tolist(), size.tolist())])
        bitrate = self.ladder_kbps[act, actions]
        if t:  # playback, and with it rebuffering, starts after the first chunk
            self.total_rebuffer_s[act] += np.maximum(0.0, tau - buffer)
            buffer = np.maximum(0.0, buffer - tau)
            self.total_change_kbps[act] += np.abs(bitrate - self.bitrate_kbps[act, t + k - 1])
        self.clock_s[act] = clock + tau
        self.total_download_s[act] += tau
        self.buffer_s[act] = buffer + chunk_s
        self.total_bitrate_kbps[act] += bitrate
        self.throughput_kbps[act, t + k] = size / tau / 1000.0
        self.download_time_s[act, t + k] = tau
        self.bitrate_kbps[act, t + k] = bitrate
        self.actions[act, t] = actions
        self.t += 1
        self.active = act[self.lengths[act] > self.t]

    def metrics(self) -> list[SessionMetrics]:
        return [SessionMetrics(*totals) for totals in zip(
            self.total_bitrate_kbps.tolist(), self.total_rebuffer_s.tolist(),
            self.total_change_kbps.tolist())]

    def trajectories(self, rows: np.ndarray | None = None) -> list[Trajectory]:
        """The played sessions, with an agent's (sessions, horizon, flat_dim)
        rows when one played them."""
        k = self.cfg.history_len
        played = []
        for i, (length, metrics) in enumerate(zip(self.lengths.tolist(), self.metrics())):
            steps = tuple(map(TrajectoryStep, self.actions[i, :length].tolist(),
                              self.download_time_s[i, k:k + length].tolist()))
            played.append(Trajectory(steps, metrics, None if rows is None else rows[i, :length]))
        return played


def run_session(
    policies: Sequence[Callable[[Observation], int]],
    matches: Sequence[tuple[Trace, Manifest]],
    cfg: SessionConfig = SessionConfig(),
) -> list[Trajectory]:
    """Play policy i over match i, every session in lockstep, and return the
    trajectories in match order. Each decision gets its session's
    observation from :meth:`Session.views`."""
    if len(policies) != len(matches):
        raise ValueError(f"{len(policies)} policies for {len(matches)} matches")
    if not matches:
        return []
    session = Session(matches, cfg)
    while not session.done:
        session.step([int(policies[i](obs))
                      for i, obs in zip(session.active.tolist(), session.views())])
    return session.trajectories()
