"""Offline chunk-by-chunk ABR session engine.

A session streams one video over one trace: each step downloads the next
chunk at the chosen ladder level, with exact piecewise-constant integration
of the trace bandwidth, and accounts buffer occupancy, rebuffering, and
bitrate-change totals. The engine works in physical units; observation
scaling for learned policies lives with the agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


@dataclass(frozen=True)
class Observation:
    """State presented to a policy before each chunk decision.

    History arrays hold the last ``history_len`` values, oldest first, with
    pre-history slots zero-filled.
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


@dataclass(frozen=True)
class TrajectoryStep:
    observation: Observation
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
    """Mutable session state; single-owner, stepped sequentially."""

    def __init__(self, manifest: Manifest, trace: Trace, cfg: SessionConfig = SessionConfig()):
        if cfg.buffer_capacity_s <= manifest.chunk_duration_s:
            raise ValueError(
                f"buffer capacity {cfg.buffer_capacity_s}s must exceed "
                f"chunk duration {manifest.chunk_duration_s}s"
            )
        self.manifest = manifest
        self.trace = trace
        self.cfg = cfg
        k = cfg.history_len
        self._tput_hist = np.zeros(k, dtype=np.float64)
        self._dtime_hist = np.zeros(k, dtype=np.float64)
        self._bitrate_hist = np.zeros(k, dtype=np.float64)
        self.clock_s = 0.0
        self.buffer_s = 0.0
        self.next_chunk = 0
        self.total_download_s = 0.0
        self.total_idle_s = 0.0
        self.total_rebuffer_s = 0.0
        self.total_bitrate_kbps = 0.0
        self.total_change_kbps = 0.0
        self.last_download_s = 0.0
        self._last_action: int | None = None
        self._playing = False

    @property
    def done(self) -> bool:
        return self.next_chunk >= self.manifest.num_chunks

    def observe(self) -> Observation:
        man = self.manifest
        if self.done:
            next_sizes = np.zeros(man.num_levels, dtype=np.float64)
        else:
            next_sizes = man.sizes[self.next_chunk].copy()
        remaining = (man.num_chunks - self.next_chunk) * man.chunk_duration_s
        return Observation(
            throughput_kbps=self._tput_hist.copy(),
            download_time_s=self._dtime_hist.copy(),
            chosen_bitrate_kbps=self._bitrate_hist.copy(),
            remaining_play_s=remaining,
            buffer_s=self.buffer_s,
            next_sizes_bits=next_sizes,
        )

    def step(self, action: int) -> tuple[Observation, bool]:
        """Download the next chunk at ladder level ``action``.

        Wall time advances by the download span (stalls included) plus any
        idle wait needed so the refilled buffer fits the capacity. Rebuffer
        time accrues only after playback has started; the first chunk's
        startup delay is excluded.
        """
        if self.done:
            raise RuntimeError("stepping a finished session")
        man = self.manifest
        n = man.num_levels
        if not 0 <= action < n:
            raise ValueError(f"action {action} out of range [0, {n})")
        chunk_dur = man.chunk_duration_s
        if self._playing:
            overshoot = self.buffer_s + chunk_dur - self.cfg.buffer_capacity_s
            if overshoot > 0:
                self.buffer_s -= overshoot
                self.clock_s += overshoot
                self.total_idle_s += overshoot

        size = float(man.sizes[self.next_chunk, action])
        latency = self.cfg.per_chunk_latency_s
        tau = latency + transfer_time(self.trace, self.clock_s + latency, size)
        if self._playing:
            stall = max(0.0, tau - self.buffer_s)
            self.total_rebuffer_s += stall
            self.buffer_s = max(0.0, self.buffer_s - tau)
        self.clock_s += tau
        self.total_download_s += tau
        self.buffer_s += chunk_dur
        self._playing = True

        bitrate = float(man.ladder_kbps[action])
        self.total_bitrate_kbps += bitrate
        if self._last_action is not None:
            self.total_change_kbps += abs(bitrate - float(man.ladder_kbps[self._last_action]))
        self._last_action = action

        for hist, value in (
            (self._tput_hist, size / tau / 1000.0),
            (self._dtime_hist, tau),
            (self._bitrate_hist, bitrate),
        ):
            hist[:-1] = hist[1:]
            hist[-1] = value
        self.last_download_s = tau
        self.next_chunk += 1
        return self.observe(), self.done

    def metrics(self) -> SessionMetrics:
        return SessionMetrics(
            total_bitrate_kbps=self.total_bitrate_kbps,
            total_rebuffer_s=self.total_rebuffer_s,
            total_change_kbps=self.total_change_kbps,
        )


def run_session(
    policy: Callable[[Observation], int],
    manifest: Manifest,
    trace: Trace,
    cfg: SessionConfig = SessionConfig(),
) -> Trajectory:
    """Play the whole video with ``policy`` and return the trajectory."""
    session = Session(manifest, trace, cfg)
    steps: list[TrajectoryStep] = []
    obs = session.observe()
    done = False
    while not done:
        action = int(policy(obs))
        next_obs, done = session.step(action)
        steps.append(TrajectoryStep(obs, action, session.last_download_s))
        obs = next_obs
    return Trajectory(steps=tuple(steps), metrics=session.metrics())
