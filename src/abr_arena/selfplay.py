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

from . import agent as agent_module
from .agent import Agent, AgentConfig, SessionScales
from .baselines import POLICY_NAMES, make_policy
from .elo import K_FACTOR, anchor_baselines, rate_agent
from .gem import HIDDEN_SIZE
from .neural import DTYPE
from .rule import MatchOutcome, judge, match_scores, win_rate
from .simulator import Policy, Session, SessionConfig, SessionMetrics, Trajectory, run_session
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
        if self.matches_per_epoch < 1:
            raise ValueError("matches_per_epoch must be >= 1")
        if not self.train_traces:
            raise ValueError("empty training trace set")


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


def rollout(
    agent: Agent,
    traces: Sequence[Trace],
    manifest: Manifest,
    cfg: SessionConfig = SessionConfig(),
    mode: str = "greedy",
    rngs: Sequence[np.random.Generator | None] | None = None,
) -> list[Trajectory]:
    """Play ``agent`` over ``manifest`` on every trace in one lockstep engine.

    At each chunk index one ``normalize`` call writes every session's state
    columns straight from the engine's arrays, one generator forward over
    the previous rows gives the hidden features, and one policy forward
    picks the levels; session i samples with ``rngs[i]``. Each trajectory
    keeps its rows, which are the only copy of its normalized states and
    hidden features.
    """
    config = agent.config
    if cfg.history_len != config.history_len or manifest.num_levels != config.num_levels:
        raise ValueError("session shapes do not match agent config")
    session = Session(traces, manifest, cfg)
    rows = np.zeros((manifest.num_chunks, len(traces), config.flat_dim), dtype=DTYPE)
    scales = SessionScales(manifest.ladder_kbps[-1], cfg.buffer_capacity_s,
                           manifest.total_duration_s)
    while not session.done:
        t = session.t
        # Via the module, so wrappers of agent.normalize see each call.
        agent_module.normalize(session.observe(), config, scales, rows[t])
        if t:
            rows[t, :, -HIDDEN_SIZE:] = agent.gem.hidden_for(rows[t - 1])
        session.step(agent.act(rows[t], mode, rngs))
    return session.trajectories(rows)


def run_match(
    agent0: Agent,
    agent1: Agent,
    traces: Sequence[Trace],
    manifest: Manifest,
    cfg: SessionConfig = SessionConfig(),
    *,
    mode: str = "sample",
    rngs: tuple[Sequence[np.random.Generator] | None,
                Sequence[np.random.Generator] | None] = (None, None),
) -> list[tuple[Trajectory, Trajectory, MatchOutcome]]:
    """Stream both agents over ``manifest`` on each trace and judge each pair.

    Each agent plays all its sessions in one lockstep rollout; session ``m``
    of agent ``a`` samples with ``rngs[a][m]``.
    """
    played = [rollout(agent, traces, manifest, cfg, mode, agent_rngs)
              for agent, agent_rngs in zip((agent0, agent1), rngs)]
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
) -> tuple[EpochReport, list[tuple[Trajectory, Trajectory, MatchOutcome]]]:
    """Roll out every (trace, video) match, then apply GEM and policy/value
    updates. The matches must share one video (compared with ``==``).

    ``run_match`` plays every match at the epoch-start parameters (updates
    happen at the epoch barrier); session ``m`` of agent ``a`` samples from
    its own ``_rollout_rng(seed, epoch, m, a)``.
    """
    if not matches:
        raise ValueError("no matches sampled")
    traces, videos = zip(*matches)
    if any(video != videos[0] for video in videos):
        raise ValueError("the matches of one epoch must stream one video")
    results = run_match(agent0, agent1, traces, videos[0], cfg, rngs=tuple(
        [_rollout_rng(seed, epoch, m, agent_idx) for m in range(len(matches))]
        for agent_idx in (0, 1)))
    played = ([t0 for t0, _, _ in results], [t1 for _, t1, _ in results])

    outcomes = [outcome for _, _, outcome in results]
    w0, w1 = win_rate(outcomes)
    wins = (w0, w1)

    losses: list[dict[str, float]] = []
    for agent_idx, (agent, trajectories) in enumerate(zip((agent0, agent1), played)):
        rewards = [match_scores(outcome)[agent_idx] for outcome in outcomes]

        for traj, reward in zip(trajectories, rewards):
            agent.gem.collect(traj, won=reward == 1.0)
        # The batch's flat rows double as the generator's input pool.
        batch = agent.build_update_batch(trajectories, rewards, wins[agent_idx])
        gem_rng = np.random.default_rng(
            np.random.SeedSequence([seed, _TAG_GEM, epoch, agent_idx]))
        gem_report = agent.gem.update(batch.inputs, gem_rng)
        report = agent.update(batch)
        report["g_loss"] = gem_report.g_loss
        report["d_loss"] = gem_report.d_loss
        losses.append(report)

    report = EpochReport(
        epoch=epoch,
        w0=w0,
        w1=w1,
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

    The agent plays each trace once, greedily, for all opponents; one
    ``run_session`` call plays every baseline on every trace.
    Returns per-opponent win rates, one CDF-ready record per (trace,
    opponent), and (when anchor ratings are supplied) the updated Elo.
    """
    if not traces:
        raise ValueError("empty trace set")
    chunks = manifest.num_chunks
    steps_denom = max(1, chunks - 1)
    records: list[dict] = []
    win_rates: dict[str, float] = {}
    outcomes_by_opponent: dict[str, list[MatchOutcome]] = {}
    my_sessions = rollout(agent, traces, manifest, cfg)
    opponents = run_session(list(baselines.values()), traces, manifest, cfg)
    for name, their_sessions in zip(baselines, opponents):
        outcomes: list[MatchOutcome] = []
        for trace, mine, theirs in zip(traces, my_sessions, their_sessions):
            outcome = judge(mine.metrics, theirs.metrics)
            outcomes.append(outcome)
            records.append({
                "trace_id": trace.id,
                "opponent": name,
                "result": outcome.value,
                "agent_bitrate_kbps": mine.metrics.total_bitrate_kbps / chunks,
                "agent_rebuffer_s": mine.metrics.total_rebuffer_s,
                "agent_change_kbps": mine.metrics.total_change_kbps / steps_denom,
                "opponent_bitrate_kbps": theirs.metrics.total_bitrate_kbps / chunks,
                "opponent_rebuffer_s": theirs.metrics.total_rebuffer_s,
                "opponent_change_kbps": theirs.metrics.total_change_kbps / steps_denom,
            })
        win_rates[name] = win_rate(outcomes)[0]
        outcomes_by_opponent[name] = outcomes
    rating = None
    if baseline_ratings is not None and agent_rating is not None:
        rating = rate_agent(agent_rating, baseline_ratings, outcomes_by_opponent, K_FACTOR)
    return EvalResult(win_rates=win_rates, records=records, rating=rating)


@dataclass
class TrainResult:
    reports: list[EpochReport]
    baseline_ratings: dict[str, float]
    final_rating: float
    checkpoints: list[Path]


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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    baseline_policies = {
        name: make_policy(name, cfg.manifest, cfg.session) for name in cfg.baselines
    }
    baseline_ratings = anchor_baselines(
        baseline_policies, list(cfg.val_traces), cfg.manifest, cfg.session)

    agent0 = Agent(cfg.agent, seed=cfg.seed * 2 + 1)
    agent1 = Agent(cfg.agent, seed=cfg.seed * 2 + 2)

    def evaluate_a0() -> EvalResult:
        return evaluate(
            agent0, baseline_policies, list(cfg.val_traces), cfg.manifest, cfg.session,
            baseline_ratings=baseline_ratings, agent_rating=agent0.rating.value,
        )

    def checkpoint(tag: str) -> list[Path]:
        paths = []
        for idx, agent in enumerate((agent0, agent1)):
            path = out_dir / f"agent{idx}_{tag}.ckpt"
            agent.save(path)
            paths.append(path)
        return paths

    sampler = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_SAMPLER]))
    traces = list(cfg.train_traces)
    reports: list[EpochReport] = []
    checkpoints = checkpoint("ep00000")

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
                checkpoints = checkpoint(f"ep{epoch:05d}")

    final_eval = evaluate_a0()
    agent0.rating.value = final_eval.rating
    with open(out_dir / "eval.jsonl", "w") as fh:
        for record in final_eval.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    checkpoints = checkpoint("final")
    return TrainResult(
        reports=reports,
        baseline_ratings=baseline_ratings,
        final_rating=agent0.rating.value,
        checkpoints=checkpoints,
    )
