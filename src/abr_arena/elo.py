"""Elo rating bookkeeping for agents and baseline policies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .rule import RESULT_LABELS, judge
from .simulator import Policy, SessionConfig, run_session
from .workload import Manifest, Trace

INITIAL_RATING = 1000.0
K_FACTOR = 10.0


@dataclass
class Rating:
    value: float = INITIAL_RATING


def expected_score(rating_a: float, rating_b: float) -> float:
    """Logistic expected score of player a against player b (400-point scale)."""
    if not (math.isfinite(rating_a) and math.isfinite(rating_b)):
        raise ValueError("ratings must be finite")
    return 1.0 / (1.0 + 10.0 ** ((rating_b - rating_a) / 400.0))


def update(rating_a: float, rating_b: float, score_a: float) -> tuple[float, float]:
    """One head-to-head update; the rating sum is conserved."""
    if score_a not in RESULT_LABELS:
        raise ValueError(f"score must be one of {sorted(RESULT_LABELS)}, got {score_a}")
    new_a = rating_a + K_FACTOR * (score_a - expected_score(rating_a, rating_b))
    new_b = rating_b + K_FACTOR * ((1.0 - score_a) - expected_score(rating_b, rating_a))
    return new_a, new_b


def anchor_baselines(
    policies: Mapping[str, Policy],
    traces: Sequence[Trace],
    manifest: Manifest,
    cfg: SessionConfig = SessionConfig(),
) -> dict[str, float]:
    """Round-robin every unordered policy pair over every trace.

    One ``run_session`` call plays every policy once on each trace; the
    pairs are then judged and ratings, starting at 1000, are updated
    sequentially in pair-major, trace-minor order.
    """
    names = list(policies)
    if len(names) < 2:
        raise ValueError(f"need at least 2 policies, got {len(names)}")
    if not traces:
        raise ValueError("empty trace set")
    played = run_session(list(policies.values()), traces, manifest, cfg)
    metrics = {name: [t.metrics for t in trajectories] for name, trajectories in zip(names, played)}
    ratings = {name: INITIAL_RATING for name in names}
    for i, name_a in enumerate(names):
        for name_b in names[i + 1:]:
            for metrics_a, metrics_b in zip(metrics[name_a], metrics[name_b]):
                ratings[name_a], ratings[name_b] = update(
                    ratings[name_a], ratings[name_b], judge(metrics_a, metrics_b))
    return ratings


def rate_agent(
    agent_rating: float,
    baseline_ratings: Mapping[str, float],
    scores: Mapping[str, Sequence[float]],
) -> float:
    """Update the agent's rating from its match scores against frozen
    baselines. Baseline ratings are anchors and are never modified.
    """
    rating = agent_rating
    for name, score_list in scores.items():
        if name not in baseline_ratings:
            raise KeyError(f"unknown baseline {name!r}")
        anchor = baseline_ratings[name]
        for score in score_list:
            rating = update(rating, anchor, score)[0]
    return rating
