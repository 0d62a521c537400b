"""Offline chunk-by-chunk ABR session engine, stepped in lockstep.

A session streams one video over one trace: each step downloads the next
chunk at the chosen ladder level, with exact piecewise-constant integration
of the trace bandwidth, and accounts buffer occupancy, rebuffering, and
bitrate-change totals. :class:`Session` streams one video over many traces,
holding the sessions as arrays, and plays chunk index t of all of them in
one lockstep ``step``, whose downloads one :class:`~.workload.TraceTable`
walk integrates together. The engine works in physical units; observation
scaling lives with the agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .workload import Manifest, Trace, TraceTable


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
    """What policies see before a chunk decision, for a batch of sessions.

    Every field has one leading row per session: (m, history_len)
    histories holding the last ``history_len`` values, oldest first, with
    pre-history slots zero-filled; (m,) remaining play time and buffer
    level; (m, levels) next chunk sizes. Later steps leave it unchanged.
    """

    throughput_kbps: np.ndarray
    download_time_s: np.ndarray
    chosen_bitrate_kbps: np.ndarray
    remaining_play_s: np.ndarray
    buffer_s: np.ndarray
    next_sizes_bits: np.ndarray

    def rows(self, index) -> "Observation":
        """The sessions ``index`` selects; a slice keeps the batch axis."""
        return Observation(*(getattr(self, name)[index] for name in self.__slots__))


# A policy maps a batch of observations to one ladder level per row, called
# once per chunk index in order, so it may keep state (``agent.AgentPolicy``).
Policy = Callable[[Observation], np.ndarray]


@dataclass(frozen=True)
class SessionMetrics:
    """Session totals judged by the match rule."""

    total_bitrate_kbps: float
    total_rebuffer_s: float
    total_change_kbps: float


@dataclass(frozen=True, slots=True)
class TrajectoryStep:
    action: int


@dataclass(frozen=True)
class Trajectory:
    """A played session: each chunk's ladder level and the totals. An
    agent's flat rows stay with its ``AgentPolicy``."""

    levels: tuple[int, ...]
    metrics: SessionMetrics

    @property
    def steps(self) -> tuple[TrajectoryStep, ...]:
        """The levels as step objects, built on demand for the benchmark's
        ``selfplay`` check, which reads ``steps[i].action``."""
        return tuple(map(TrajectoryStep, self.levels))


class Session:
    """One video streamed over many traces, one session per trace, all
    stepped in lockstep.

    State is kept as arrays over sessions. The histories are
    (sessions, num_chunks + history_len): step t writes column
    t + history_len, so chunk index t's window is columns
    [t, t + history_len) and nothing is ever shifted. Buffer, clock and
    totals are vectors. Every session plays every chunk index.
    """

    def __init__(self, traces: Sequence[Trace], manifest: Manifest,
                 cfg: SessionConfig = SessionConfig()):
        if not traces:
            raise ValueError("no sessions to play")
        if cfg.buffer_capacity_s <= manifest.chunk_duration_s:
            raise ValueError(f"buffer capacity {cfg.buffer_capacity_s}s must exceed "
                             f"chunk duration {manifest.chunk_duration_s}s")
        self.traces = list(traces)
        self.manifest = manifest
        self.cfg = cfg
        self.ladder_kbps = np.array(manifest.ladder_kbps)
        self.trace_table = TraceTable(self.traces)
        n, k, horizon = len(self.traces), cfg.history_len, manifest.num_chunks
        self.throughput_kbps, self.download_time_s, self.bitrate_kbps = np.zeros((3, n, horizon + k))
        self.actions = np.zeros((n, horizon), dtype=np.int64)
        (self.buffer_s, self.clock_s, self.total_download_s, self.total_idle_s,
         self.total_rebuffer_s, self.total_bitrate_kbps, self.total_change_kbps) = np.zeros((7, n))
        self.t = 0

    @property
    def done(self) -> bool:
        return self.t == self.manifest.num_chunks

    def observe(self) -> Observation:
        """Every session's observation as one batch, row i for session i."""
        t, k, n, manifest = self.t, self.cfg.history_len, len(self.traces), self.manifest
        sizes = manifest.sizes[t]
        return Observation(
            self.throughput_kbps[:, t:t + k], self.download_time_s[:, t:t + k],
            self.bitrate_kbps[:, t:t + k],
            np.full(n, (manifest.num_chunks - t) * manifest.chunk_duration_s),
            self.buffer_s.copy(), np.broadcast_to(sizes, (n, len(sizes))))

    def step(self, actions) -> None:
        """Download chunk index ``t`` of every session, session i at ladder
        level ``actions[i]``.

        Wall time advances by the download span (stalls included) plus any
        idle wait needed so the refilled buffer fits the capacity. Rebuffer
        time accrues only after playback has started; the first chunk's
        startup delay is excluded. One :class:`~.workload.TraceTable` walk
        integrates every session's download; each session sees the same
        float64 operations, in the same order, as a session stepped on its own.
        """
        if self.done:
            raise RuntimeError("stepping a finished session")
        t, k, cfg = self.t, self.cfg.history_len, self.cfg
        actions = np.asarray(actions)
        levels = len(self.ladder_kbps)
        if actions.shape != self.buffer_s.shape or np.any((actions < 0) | (actions >= levels)):
            raise ValueError(f"actions {actions} out of range [0, {levels})")
        chunk_s = self.manifest.chunk_duration_s
        # Zero before the first chunk: an empty buffer always fits one.
        overshoot = np.maximum(self.buffer_s + chunk_s - cfg.buffer_capacity_s, 0.0)
        buffer = self.buffer_s - overshoot
        clock = self.clock_s + overshoot
        self.total_idle_s += overshoot

        size = self.manifest.sizes[t, actions]
        latency = cfg.per_chunk_latency_s
        tau = latency + self.trace_table.transfer_times(clock + latency, size)
        bitrate = self.ladder_kbps[actions]
        if t:  # playback, and with it rebuffering, starts after the first chunk
            self.total_rebuffer_s += np.maximum(0.0, tau - buffer)
            buffer = np.maximum(0.0, buffer - tau)
            self.total_change_kbps += np.abs(bitrate - self.bitrate_kbps[:, t + k - 1])
        self.clock_s = clock + tau
        self.total_download_s += tau
        self.buffer_s = buffer + chunk_s
        self.total_bitrate_kbps += bitrate
        self.throughput_kbps[:, t + k] = size / tau / 1000.0
        self.download_time_s[:, t + k] = tau
        self.bitrate_kbps[:, t + k] = bitrate
        self.actions[:, t] = actions
        self.t += 1

    def metrics(self) -> list[SessionMetrics]:
        return [SessionMetrics(*totals) for totals in zip(
            self.total_bitrate_kbps.tolist(), self.total_rebuffer_s.tolist(),
            self.total_change_kbps.tolist())]

    def trajectories(self) -> list[Trajectory]:
        """The played sessions, in session order."""
        return [Trajectory(tuple(levels), metrics)
                for levels, metrics in zip(self.actions.tolist(), self.metrics())]


def run_session(
    policies: Sequence[Policy],
    traces: Sequence[Trace],
    manifest: Manifest,
    cfg: SessionConfig = SessionConfig(),
) -> list[list[Trajectory]]:
    """Play every policy, agent or baseline, over ``manifest`` on every trace
    in one lockstep run and return each policy's trajectories in trace order.
    Sessions are policy-major: each chunk index calls every policy once, in
    list order, with its contiguous block of :meth:`Session.observe`'s rows."""
    if not policies or not traces:
        return [[] for _ in policies]
    block = len(traces)
    session = Session(list(traces) * len(policies), manifest, cfg)
    while not session.done:
        obs = session.observe()
        session.step(np.concatenate([policy(obs.rows(slice(p * block, (p + 1) * block)))
                                     for p, policy in enumerate(policies)]))
    played = session.trajectories()
    return [played[p * block:(p + 1) * block] for p in range(len(policies))]
