"""Pairwise match judging from session totals.

The judge compares two sessions on (total rebuffer r, total bitrate b)
first; a mixed result falls through to the rebuffer-per-bitrate ratio, and
ties there fall through to total bitrate change. Lower r, higher b, lower
r/b, and lower s are all "better". Equal on everything is a draw. A
match's result is player 0's Elo score: 1.0 win, 0.5 draw, 0.0 loss.
"""

from __future__ import annotations

import math
from typing import Iterable

from .simulator import SessionMetrics

# The ``eval.jsonl`` name of each score.
RESULT_LABELS = {1.0: "agent0", 0.0: "agent1", 0.5: "draw"}


def _validate(m: SessionMetrics, label: str) -> None:
    for name, value in (
        ("total_bitrate_kbps", m.total_bitrate_kbps),
        ("total_rebuffer_s", m.total_rebuffer_s),
        ("total_change_kbps", m.total_change_kbps),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{label}.{name} is not finite: {value}")
        if value < 0:
            raise ValueError(f"{label}.{name} is negative: {value}")
    if m.total_bitrate_kbps <= 0:
        raise ValueError(f"{label}.total_bitrate_kbps must be positive")


def judge(m0: SessionMetrics, m1: SessionMetrics) -> float:
    """Player 0's score in a match, decided from the two sessions' totals."""
    _validate(m0, "m0")
    _validate(m1, "m1")
    r0, b0 = m0.total_rebuffer_s, m0.total_bitrate_kbps
    r1, b1 = m1.total_rebuffer_s, m1.total_bitrate_kbps
    # Stage A: better-or-equal on both axes with at least one strict wins.
    if r0 <= r1 and b0 >= b1 and (r0 < r1 or b0 > b1):
        return 1.0
    if r1 <= r0 and b1 >= b0 and (r1 < r0 or b1 > b0):
        return 0.0
    if r0 != r1 or b0 != b1:
        # Mixed: one agent better on rebuffer, the other on bitrate.
        q0, q1 = r0 / b0, r1 / b1
        if q0 < q1:
            return 1.0
        if q0 > q1:
            return 0.0
    s0, s1 = m0.total_change_kbps, m1.total_change_kbps
    if s0 < s1:
        return 1.0
    if s0 > s1:
        return 0.0
    return 0.5


def win_rate(scores: Iterable[float]) -> tuple[float, float]:
    """Win rates (w0, w1) over player 0's match scores; w0 + w1 = 1 exactly."""
    scores = list(scores)
    if not scores:
        raise ValueError("empty score sequence")
    w0 = sum(scores) / len(scores)
    return w0, 1.0 - w0
