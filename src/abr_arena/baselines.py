"""Classical ABR policies used as rating anchors and opponents.

Every policy maps a batch of observations and the ladder to one level per
row: deterministic, total over valid observations, always in [0, n). So a
:class:`Baseline`, bound to one video and session config, plays the same
session on a trace every time, and keeps it once played.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulator import Observation, SessionConfig, Trajectory
from .workload import Manifest, Trace

POLICY_NAMES = ("constrained", "throughput", "bola", "dynamic")
# DYNAMIC plays the throughput rule below this buffer level and BOLA at or above it.
SWITCH_BUFFER_S = 10.0


def constrained(obs: Observation, ladder) -> np.ndarray:
    """Always pick the intermediate ladder level (lower middle for even n)."""
    return np.full(len(obs.buffer_s), (len(ladder) - 1) // 2)


def throughput_rule(obs: Observation, ladder) -> np.ndarray:
    """Highest level not exceeding the harmonic mean of recent throughput.

    Uses up to the 5 most recent nonzero throughput samples; with no history
    the prediction is 0 and the lowest level is chosen.
    """
    newest_first = obs.throughput_kbps[:, ::-1]
    positive = newest_first > 0
    positives = positive.cumsum(axis=1)
    taken = positive & (positives <= 5)
    inverses = np.divide(1.0, newest_first, out=np.zeros(newest_first.shape), where=taken)
    # cumsum adds left to right, newest first, as a per-row loop would (a sum
    # adds pairwise and may round differently).
    inverse_sum = inverses.cumsum(axis=1)[:, -1]
    count = np.minimum(positives[:, -1], 5)
    prediction = np.divide(count, inverse_sum, out=np.zeros(len(count)), where=count > 0)
    # The level is the number of rungs above the lowest that the prediction reaches.
    return np.asarray(ladder, dtype=np.float64)[1:].searchsorted(prediction, side="right")


@dataclass(frozen=True)
class BolaParams:
    """Utility-maximization parameters.

    ``gain`` (the Lyapunov V) and ``offset`` (gp) are derived so that at an
    empty buffer the lowest level's score dominates (its zero-cross happens
    at a small buffer level), while the top level's score crosses zero right
    at buffer capacity:

        offset = 1.25 * max_m ln(rho_m) / (rho_m - 1),  rho_m = ladder_m / ladder_0
        gain   = capacity_in_chunks / (ln(rho_top) + offset)

    The 1.25 margin keeps the empty-buffer argmax strictly at level 0.
    """

    gain: float
    offset: float
    chunk_duration_s: float

    @classmethod
    def derive(cls, ladder, buffer_capacity_s: float, chunk_duration_s: float) -> "BolaParams":
        ladder = np.asarray(ladder, dtype=np.float64)
        rho = ladder / ladder[0]
        utility = np.log(rho)
        offset = 1.25 * float(np.max(utility[1:] / (rho[1:] - 1.0)))
        cap_chunks = buffer_capacity_s / chunk_duration_s
        gain = cap_chunks / (float(utility[-1]) + offset)
        return cls(gain=gain, offset=offset, chunk_duration_s=chunk_duration_s)


def bola(obs: Observation, ladder, params: BolaParams) -> np.ndarray:
    """Buffer-based utility maximization over the next chunk's sizes."""
    sizes = obs.next_sizes_bits
    utility = np.log(sizes / sizes[:, :1])
    buffer_chunks = obs.buffer_s / params.chunk_duration_s
    scores = (params.gain * (utility + params.offset) - buffer_chunks[:, None]) / sizes
    return scores.argmax(axis=1)


def dynamic_dash(obs: Observation, ladder, bola_params: BolaParams) -> np.ndarray:
    """Throughput rule below ``SWITCH_BUFFER_S`` of buffer, BOLA at or above it."""
    return np.where(obs.buffer_s < SWITCH_BUFFER_S,
                    throughput_rule(obs, ladder), bola(obs, ladder, bola_params))


class Baseline:
    """Policy ``name`` bound to one video and session config, called as any
    policy is. ``played`` holds the sessions it has played, by trace.

    The rule functions are looked up in this module at each call, so a
    name patched here reaches every baseline, ``dynamic_dash``'s calls
    included.
    """

    def __init__(self, name: str, manifest: Manifest, cfg: SessionConfig):
        if name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {name!r}; valid names: {', '.join(POLICY_NAMES)}")
        self.name, self.manifest, self.cfg = name, manifest, cfg
        self.ladder = np.array(manifest.ladder_kbps)
        self.bola_params = BolaParams.derive(
            self.ladder, cfg.buffer_capacity_s, manifest.chunk_duration_s)
        self.played: dict[Trace, Trajectory] = {}

    def __call__(self, obs: Observation) -> np.ndarray:
        if self.name == "constrained":
            return constrained(obs, self.ladder)
        if self.name == "throughput":
            return throughput_rule(obs, self.ladder)
        if self.name == "bola":
            return bola(obs, self.ladder, self.bola_params)
        return dynamic_dash(obs, self.ladder, self.bola_params)


def make_policy(name: str, manifest: Manifest, cfg: SessionConfig) -> Baseline:
    """Build a ready-to-run baseline for one video/session setup."""
    return Baseline(name, manifest, cfg)
