"""Self-play training loop: sample traces, stream both agents over the same
video on identical inputs, judge, and feed the win/loss signal into GEM and
policy/value updates. Elo against anchored baselines tracks progress.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .agent import Agent, AgentConfig, AgentPolicy
from .baselines import POLICY_NAMES, make_policy
from .elo import anchor_baselines, rate_agent
from .rule import RESULT_LABELS, judge, win_rate
from .simulator import Policy, SessionConfig, SessionMetrics, Trajectory, run_session
from .workload import Manifest, Trace

# Seed-derivation tags keeping every random stream independent.
_TAG_SAMPLER = 101
_TAG_ROLLOUT = 102
_TAG_GEM = 103

EPOCH_CSV_COLUMNS = (
    "epoch", "w0", "w1", "elo_a0", "policy_loss", "value_loss", "g_loss", "d_loss",
    "mean_bitrate_0", "mean_rebuffer_0", "mean_change_0",
    "mean_bitrate_1", "mean_rebuffer_1", "mean_change_1",
)


@dataclass
class TrainConfig:
    """One self-play run: each epoch draws ``matches_per_epoch`` training
    traces, and every match and evaluation streams the one video ``manifest``."""

    train_traces: Sequence[Trace]
    val_traces: Sequence[Trace]
    manifest: Manifest
    epochs: int
    matches_per_epoch: int = 16
    seed: int = 0
    eval_every: int = 10
    checkpoint_every: int = 50
    baselines: Sequence[str] = POLICY_NAMES
    session: SessionConfig = field(default_factory=SessionConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("matches_per_epoch", "eval_every", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.train_traces:
            raise ValueError("empty training trace set")
        if len(set(self.baselines)) < 2 or not set(self.baselines) <= set(POLICY_NAMES):
            raise ValueError(f"baselines must name at least 2 distinct policies of "
                             f"{', '.join(POLICY_NAMES)}; got {list(self.baselines)}")


@dataclass
class EpochReport:
    epoch: int
    w0: float
    w1: float
    elo_a0: float
    losses0: dict[str, float]
    losses1: dict[str, float]
    mean_metrics0: SessionMetrics
    mean_metrics1: SessionMetrics


def _rollout_rng(seed: int, epoch: int, match: int, agent_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _TAG_ROLLOUT, epoch, match, agent_idx]))


def run_match(
    player0: Policy,
    player1: Policy,
    traces: Sequence[Trace],
    manifest: Manifest,
    cfg: SessionConfig = SessionConfig(),
) -> list[tuple[Trajectory, Trajectory, float]]:
    """Stream both players over ``manifest`` on each trace in one
    ``run_session`` call and judge each pair of sessions: player 0's score.

    A player is any policy: an :class:`AgentPolicy` keeps its own rows, act
    mode and generators, a baseline needs nothing. No traces play no match.
    """
    played = run_session([player0, player1], traces, manifest, cfg)
    return [(t0, t1, judge(t0.metrics, t1.metrics)) for t0, t1 in zip(*played)]


def _mean_metrics(trajectories: Sequence[Trajectory]) -> SessionMetrics:
    return SessionMetrics(
        total_bitrate_kbps=float(np.mean([t.metrics.total_bitrate_kbps for t in trajectories])),
        total_rebuffer_s=float(np.mean([t.metrics.total_rebuffer_s for t in trajectories])),
        total_change_kbps=float(np.mean([t.metrics.total_change_kbps for t in trajectories])),
    )


def run_epoch(
    agent0: Agent,
    agent1: Agent,
    matches: Sequence[tuple[Trace, Manifest]],
    cfg: SessionConfig = SessionConfig(),
    *,
    seed: int = 0,
    epoch: int = 0,
) -> tuple[EpochReport, list[tuple[Trajectory, Trajectory, float]]]:
    """Play every (trace, video) match, then apply GEM and policy/value
    updates. The matches must share one video (compared with ``==``).

    One ``run_match`` call plays both agents, each as a sampling
    :class:`AgentPolicy`, over every match at the epoch-start parameters
    (updates happen at the epoch barrier); session ``m`` of agent ``a``
    samples from its own ``_rollout_rng(seed, epoch, m, a)``. Each agent's
    (sessions, chunks) block of rows then feeds its GEM buffer, the winning
    sessions' part, and its update batch.
    """
    if not matches:
        raise ValueError("no matches sampled")
    traces, videos = zip(*matches)
    if any(video != videos[0] for video in videos):
        raise ValueError("the matches of one epoch must stream one video")
    agents = (agent0, agent1)
    players = [AgentPolicy(agent, len(traces), videos[0], cfg, "sample",
                           [_rollout_rng(seed, epoch, m, agent_idx) for m in range(len(traces))])
               for agent_idx, agent in enumerate(agents)]
    results = run_match(*players, traces, videos[0], cfg)
    *played, scores = zip(*results)
    wins = win_rate(scores)
    rewards0 = np.array(scores)

    losses: list[dict[str, float]] = []
    for agent_idx, (agent, player, trajectories, rewards) in enumerate(
            zip(agents, players, played, (rewards0, 1.0 - rewards0))):
        rows = player.rows.swapaxes(0, 1)
        agent.gem.collect(rows[rewards == 1.0])
        # The batch's flat rows double as the generator's input pool.
        batch = agent.build_update_batch(rows, trajectories, rewards, wins[agent_idx])
        gem_rng = np.random.default_rng(
            np.random.SeedSequence([seed, _TAG_GEM, epoch, agent_idx]))
        gem_report = agent.gem.update(batch.inputs, gem_rng)
        report = agent.update(batch)
        report["g_loss"] = gem_report.g_loss
        report["d_loss"] = gem_report.d_loss
        losses.append(report)

    report = EpochReport(
        epoch=epoch,
        w0=wins[0],
        w1=wins[1],
        elo_a0=agent0.rating.value,
        losses0=losses[0],
        losses1=losses[1],
        mean_metrics0=_mean_metrics(played[0]),
        mean_metrics1=_mean_metrics(played[1]),
    )
    return report, results


@dataclass
class EvalResult:
    win_rates: dict[str, float]
    records: list[dict]
    rating: float | None


def evaluate(
    agent: Agent,
    baselines: Mapping[str, Policy],
    traces: Sequence[Trace],
    manifest: Manifest,
    cfg: SessionConfig = SessionConfig(),
    *,
    baseline_ratings: Mapping[str, float] | None = None,
    agent_rating: float | None = None,
) -> EvalResult:
    """Head-to-head matches against every baseline on every trace.

    One ``run_session`` call plays the agent, as a greedy
    :class:`AgentPolicy`, and every baseline on every trace; the agent's
    one session per trace is judged against each opponent's.
    Returns per-opponent win rates, one CDF-ready record per (trace,
    opponent), and (when anchor ratings are supplied) the updated Elo.
    """
    if not traces:
        raise ValueError("empty trace set")
    chunks = manifest.num_chunks
    steps_denom = max(1, chunks - 1)
    records: list[dict] = []
    win_rates: dict[str, float] = {}
    scores_by_opponent: dict[str, list[float]] = {}
    my_sessions, *opponents = run_session(
        [AgentPolicy(agent, len(traces), manifest, cfg), *baselines.values()],
        traces, manifest, cfg)
    for name, their_sessions in zip(baselines, opponents):
        scores: list[float] = []
        for trace, mine, theirs in zip(traces, my_sessions, their_sessions):
            score = judge(mine.metrics, theirs.metrics)
            scores.append(score)
            records.append({
                "trace_id": trace.id,
                "opponent": name,
                "result": RESULT_LABELS[score],
                "agent_bitrate_kbps": mine.metrics.total_bitrate_kbps / chunks,
                "agent_rebuffer_s": mine.metrics.total_rebuffer_s,
                "agent_change_kbps": mine.metrics.total_change_kbps / steps_denom,
                "opponent_bitrate_kbps": theirs.metrics.total_bitrate_kbps / chunks,
                "opponent_rebuffer_s": theirs.metrics.total_rebuffer_s,
                "opponent_change_kbps": theirs.metrics.total_change_kbps / steps_denom,
            })
        win_rates[name] = win_rate(scores)[0]
        scores_by_opponent[name] = scores
    rating = None
    if baseline_ratings is not None and agent_rating is not None:
        rating = rate_agent(agent_rating, baseline_ratings, scores_by_opponent)
    return EvalResult(win_rates=win_rates, records=records, rating=rating)


@dataclass
class TrainResult:
    reports: list[EpochReport]
    baseline_ratings: dict[str, float]
    final_rating: float


def _csv_row(report: EpochReport) -> list:
    return [
        report.epoch, repr(report.w0), repr(report.w1), repr(report.elo_a0),
        repr(report.losses0.get("policy_loss", 0.0)),
        repr(report.losses0.get("value_loss", 0.0)),
        repr(report.losses0.get("g_loss", 0.0)),
        repr(report.losses0.get("d_loss", 0.0)),
        repr(report.mean_metrics0.total_bitrate_kbps),
        repr(report.mean_metrics0.total_rebuffer_s),
        repr(report.mean_metrics0.total_change_kbps),
        repr(report.mean_metrics1.total_bitrate_kbps),
        repr(report.mean_metrics1.total_rebuffer_s),
        repr(report.mean_metrics1.total_change_kbps),
    ]


def train(cfg: TrainConfig, out_dir: str | Path) -> TrainResult:
    """Run the full training loop, logging epochs.csv, checkpoints, and a
    final evaluation dump under ``out_dir``."""
    baseline_policies = {
        name: make_policy(name, cfg.manifest, cfg.session) for name in cfg.baselines
    }
    # Make the run directory only once the first session has accepted the video.
    baseline_ratings = anchor_baselines(
        baseline_policies, list(cfg.val_traces), cfg.manifest, cfg.session)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    agent0 = Agent(cfg.agent, seed=cfg.seed * 2 + 1)
    agent1 = Agent(cfg.agent, seed=cfg.seed * 2 + 2)

    def evaluate_a0() -> EvalResult:
        return evaluate(
            agent0, baseline_policies, list(cfg.val_traces), cfg.manifest, cfg.session,
            baseline_ratings=baseline_ratings, agent_rating=agent0.rating.value,
        )

    def checkpoint(tag: str) -> None:
        for idx, agent in enumerate((agent0, agent1)):
            agent.save(out_dir / f"agent{idx}_{tag}.ckpt")

    sampler = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_SAMPLER]))
    traces = list(cfg.train_traces)
    reports: list[EpochReport] = []
    checkpoint("ep00000")

    with open(out_dir / "epochs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPOCH_CSV_COLUMNS)

        initial_eval = evaluate_a0()
        agent0.rating.value = initial_eval.rating
        anchor_row = EpochReport(
            epoch=0, w0=0.5, w1=0.5, elo_a0=agent0.rating.value,
            losses0={}, losses1={},
            mean_metrics0=SessionMetrics(0.0, 0.0, 0.0),
            mean_metrics1=SessionMetrics(0.0, 0.0, 0.0),
        )
        writer.writerow(_csv_row(anchor_row))
        fh.flush()

        for epoch in range(1, cfg.epochs + 1):
            picks = sampler.integers(len(traces), size=cfg.matches_per_epoch)
            matches = [(traces[i], cfg.manifest) for i in picks]
            report, _ = run_epoch(
                agent0, agent1, matches, cfg.session,
                seed=cfg.seed, epoch=epoch,
            )
            if epoch % cfg.eval_every == 0:
                agent0.rating.value = evaluate_a0().rating
                report.elo_a0 = agent0.rating.value
            writer.writerow(_csv_row(report))
            fh.flush()
            reports.append(report)
            if epoch % cfg.checkpoint_every == 0:
                checkpoint(f"ep{epoch:05d}")

    final_eval = evaluate_a0()
    agent0.rating.value = final_eval.rating
    with open(out_dir / "eval.jsonl", "w") as fh:
        for record in final_eval.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    checkpoint("final")
    return TrainResult(
        reports=reports,
        baseline_ratings=baseline_ratings,
        final_rating=agent0.rating.value,
    )
