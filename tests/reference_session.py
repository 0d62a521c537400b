"""Scalar reference simulator: one session stepped on its own, in plain
Python floats, over a trace walked one segment at a time. The lockstep engine
in ``abr_arena.simulator`` and its ``TraceTable`` walk must reproduce this
arithmetic exactly; the tests compare the two with ``==``.
"""

import math
from dataclasses import fields

import numpy as np

from abr_arena.simulator import Observation, SessionConfig, SessionMetrics
from abr_arena.workload import Manifest, Trace


def transfer_time(trace: Trace, start_t: float, size_bits: float) -> float:
    """Exact time (s) to move ``size_bits`` over the looping trace from
    ``start_t``, integrating its piecewise-constant bandwidth."""
    if not 0 <= start_t < math.inf:
        raise ValueError(f"time must be finite and >= 0, got {start_t}")
    ends = np.cumsum([d for d, _ in trace.samples])
    bandwidths = [b for _, b in trace.samples]
    pos = math.fmod(start_t, float(ends[-1]))
    idx = min(int(np.searchsorted(ends, pos, side="right")), len(ends) - 1)
    remaining = size_bits
    elapsed = 0.0
    while True:
        bps = bandwidths[idx] * 1000.0
        seg_left = ends[idx] - pos
        capacity = bps * seg_left
        if capacity >= remaining:
            return elapsed + remaining / bps
        remaining -= capacity
        elapsed += seg_left
        idx += 1
        if idx == len(ends):
            idx = 0
            pos = 0.0
        else:
            pos = ends[idx - 1]


def as_batch(observations) -> Observation:
    """Stack one-session observations into a batch, one row each."""
    return Observation(*(np.array([getattr(obs, field.name) for obs in observations])
                         for field in fields(Observation)))


class ReferenceSession:
    def __init__(self, manifest: Manifest, trace: Trace, cfg: SessionConfig = SessionConfig()):
        if cfg.buffer_capacity_s <= manifest.chunk_duration_s:
            raise ValueError("buffer capacity must exceed the chunk duration")
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
        self._last_action = None
        self._playing = False

    @property
    def done(self) -> bool:
        return self.next_chunk >= self.manifest.num_chunks

    def observe(self) -> Observation:
        man = self.manifest
        return Observation(
            throughput_kbps=self._tput_hist.copy(),
            download_time_s=self._dtime_hist.copy(),
            chosen_bitrate_kbps=self._bitrate_hist.copy(),
            remaining_play_s=(man.num_chunks - self.next_chunk) * man.chunk_duration_s,
            buffer_s=self.buffer_s,
            next_sizes_bits=man.sizes[self.next_chunk].copy(),
        )

    def step(self, action: int) -> None:
        if self.done:
            raise RuntimeError("stepping a finished session")
        man = self.manifest
        if not 0 <= action < man.num_levels:
            raise ValueError(f"action {action} out of range")
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

    def metrics(self) -> SessionMetrics:
        return SessionMetrics(
            total_bitrate_kbps=self.total_bitrate_kbps,
            total_rebuffer_s=self.total_rebuffer_s,
            total_change_kbps=self.total_change_kbps,
        )
