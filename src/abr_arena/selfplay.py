"""Self-play training loop: sample (trace, video) pairs, stream both agents
over identical inputs, judge, and feed the win/loss signal into GEM and
policy/value updates. Elo against anchored baselines tracks progress.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .agent import Agent, AgentConfig, SessionScales
from .baselines import make_policy
from .elo import K_FACTOR, anchor_baselines, rate_agent
from .rule import MatchOutcome, judge, match_scores, win_rate
from .simulator import Observation, SessionConfig, SessionMetrics, Trajectory, run_session
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
    train_traces: Sequence[Trace]
    val_traces: Sequence[Trace]
    manifests: Sequence[Manifest]
    epochs: int
    matches_per_epoch: int = 16
    workers: int = 1
    seed: int = 0
    eval_every: int = 10
    checkpoint_every: int = 50
    baselines: Sequence[str] = ("constrained", "throughput", "bola", "dynamic")
    session: SessionConfig = field(default_factory=SessionConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self):
        if self.matches_per_epoch < 1:
            raise ValueError("matches_per_epoch must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.train_traces:
            raise ValueError("empty training trace set")
        if not self.manifests:
            raise ValueError("empty manifest set")


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
    agent0: Agent,
    agent1: Agent,
    trace: Trace,
    manifest: Manifest,
    cfg: SessionConfig = SessionConfig(),
    *,
    mode: str = "sample",
    rngs: tuple[np.random.Generator | None, np.random.Generator | None] = (None, None),
) -> tuple[Trajectory, Trajectory, MatchOutcome]:
    """Stream both agents over the same (trace, video) and judge the result."""
    scales = SessionScales.from_session(manifest, cfg)
    trajectories = []
    for agent, rng in ((agent0, rngs[0]), (agent1, rngs[1])):
        trajectories.append(run_session(
            agent.policy_fn(scales, mode, rng), manifest, trace, cfg,
            hidden_provider=agent.hidden_provider(scales),
        ))
    outcome = judge(trajectories[0].metrics, trajectories[1].metrics)
    return trajectories[0], trajectories[1], outcome


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
    workers: int = 1,
) -> tuple[EpochReport, list[tuple[Trajectory, Trajectory, MatchOutcome]]]:
    """Roll out every match, then apply GEM and policy/value updates.

    All rollouts use the epoch-start parameters (updates happen at the epoch
    barrier), so worker count changes scheduling only, never results.
    """
    if not matches:
        raise ValueError("no matches sampled")

    def play(idx: int):
        trace, manifest = matches[idx]
        return run_match(
            agent0, agent1, trace, manifest, cfg, mode="sample",
            rngs=(_rollout_rng(seed, epoch, idx, 0), _rollout_rng(seed, epoch, idx, 1)),
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(play, range(len(matches))))
    else:
        results = [play(i) for i in range(len(matches))]

    outcomes = [outcome for _, _, outcome in results]
    w0, w1 = win_rate(outcomes)
    wins = (w0, w1)

    losses: list[dict[str, float]] = []
    for agent_idx, agent in enumerate((agent0, agent1)):
        trajectories = [result[agent_idx] for result in results]
        rewards = [match_scores(outcome)[agent_idx] for outcome in outcomes]
        scales = [SessionScales.from_session(man, cfg) for _, man in matches]

        for traj, reward in zip(trajectories, rewards):
            agent.gem.collect(traj, won=reward == 1.0)
        # The batch's observation rows double as the generator's input pool.
        batch = agent.build_update_batch(trajectories, rewards, wins[agent_idx], scales)
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
        mean_metrics0=_mean_metrics([r[0] for r in results]),
        mean_metrics1=_mean_metrics([r[1] for r in results]),
    )
    return report, results


@dataclass
class EvalResult:
    win_rates: dict[str, float]
    records: list[dict]
    rating: float | None


def _policy_and_provider(policy_or_agent, manifest: Manifest, cfg: SessionConfig):
    if isinstance(policy_or_agent, Agent):
        scales = SessionScales.from_session(manifest, cfg)
        return (policy_or_agent.policy_fn(scales, "greedy"),
                policy_or_agent.hidden_provider(scales))
    return policy_or_agent, None


def evaluate(
    policy_or_agent,
    baselines: Mapping[str, Callable[[Observation], int]],
    traces: Sequence[Trace],
    manifest: Manifest,
    cfg: SessionConfig = SessionConfig(),
    *,
    baseline_ratings: Mapping[str, float] | None = None,
    agent_rating: float | None = None,
) -> EvalResult:
    """Head-to-head matches against every baseline on every trace.

    The evaluated side plays each trace once (deterministically: agents play
    greedily) for all opponents. Returns per-opponent win rates, one CDF-ready
    record per (trace, opponent), and (when anchor ratings are supplied) the updated Elo.
    """
    if not traces:
        raise ValueError("empty trace set")
    chunks = manifest.num_chunks
    steps_denom = max(1, chunks - 1)
    records: list[dict] = []
    win_rates: dict[str, float] = {}
    outcomes_by_opponent: dict[str, list[MatchOutcome]] = {}
    policy, provider = _policy_and_provider(policy_or_agent, manifest, cfg)
    my_sessions = [run_session(policy, manifest, trace, cfg, hidden_provider=provider)
                   for trace in traces]
    for name, opponent in baselines.items():
        outcomes: list[MatchOutcome] = []
        for trace, mine in zip(traces, my_sessions):
            theirs = run_session(opponent, manifest, trace, cfg)
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
    anchor_manifest = cfg.manifests[0]
    baseline_policies = {
        name: make_policy(name, anchor_manifest, cfg.session) for name in cfg.baselines
    }
    baseline_ratings = anchor_baselines(
        baseline_policies, list(cfg.val_traces), anchor_manifest, cfg.session)

    agent0 = Agent(cfg.agent, seed=cfg.seed * 2 + 1)
    agent1 = Agent(cfg.agent, seed=cfg.seed * 2 + 2)

    def evaluate_a0() -> EvalResult:
        return evaluate(
            agent0, baseline_policies, list(cfg.val_traces), anchor_manifest, cfg.session,
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
    manifests = list(cfg.manifests)
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
            picks_t = sampler.integers(len(traces), size=cfg.matches_per_epoch)
            picks_m = sampler.integers(len(manifests), size=cfg.matches_per_epoch)
            matches = [(traces[i], manifests[j]) for i, j in zip(picks_t, picks_m)]
            report, _ = run_epoch(
                agent0, agent1, matches, cfg.session,
                seed=cfg.seed, epoch=epoch, workers=cfg.workers,
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
