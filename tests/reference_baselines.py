"""Scalar reference baselines: each policy decides for one session's
observation, in plain Python and numpy scalars. The batched policies in
``abr_arena.baselines`` must choose exactly these levels row by row;
``tests/test_baselines.py`` compares the two with ``==``.

``throughput_rule`` adds its inverses in an explicit left-to-right loop: the
builtin ``sum`` does the same up to Python 3.11, but compensates its rounding
from 3.12 on.
"""

import numpy as np

from abr_arena.baselines import SWITCH_BUFFER_S, BolaParams
from abr_arena.simulator import Observation


def constrained(obs: Observation, ladder) -> int:
    """Always pick the intermediate ladder level (lower middle for even n)."""
    return (len(ladder) - 1) // 2


def throughput_rule(obs: Observation, ladder) -> int:
    """Highest level not exceeding the harmonic mean of recent throughput.

    Uses up to the 5 most recent nonzero throughput samples; with no history
    the prediction is 0 and the lowest level is chosen.
    """
    recent = [x for x in reversed(obs.throughput_kbps.tolist()) if x > 0][:5]
    if not recent:
        return 0
    inverse_sum = 0.0
    for x in recent:
        inverse_sum += 1.0 / x
    prediction = len(recent) / inverse_sum
    level = int(np.searchsorted(np.asarray(ladder, dtype=np.float64), prediction, side="right")) - 1
    return max(level, 0)


def bola(obs: Observation, ladder, params: BolaParams) -> int:
    """Buffer-based utility maximization over the next chunk's sizes."""
    sizes = np.asarray(obs.next_sizes_bits, dtype=np.float64)
    if sizes.size == 1:
        return 0
    utility = np.log(sizes / sizes[0])
    buffer_chunks = obs.buffer_s / params.chunk_duration_s
    scores = (params.gain * (utility + params.offset) - buffer_chunks) / sizes
    return int(np.argmax(scores))


def dynamic_dash(obs: Observation, ladder, bola_params: BolaParams) -> int:
    """Throughput rule below ``SWITCH_BUFFER_S`` of buffer, BOLA at or above it."""
    if obs.buffer_s < SWITCH_BUFFER_S:
        return throughput_rule(obs, ladder)
    return bola(obs, ladder, bola_params)
