"""The benchmark's workloads, built only from abr_arena's public API.

Each workload makes its inputs from the seed in ``setup``, runs one unit of
work per ``run_unit`` call (the call the timed phase measures) and checks
the unit's output in ``check``, which returns the number of matches that
failed. A unit is one ``run_epoch`` (selfplay), one ``evaluate`` call
(evaluate) or one ``anchor_baselines`` round robin (tournament).
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from abr_arena import elo, selfplay
from abr_arena.agent import Agent, AgentConfig
from abr_arena.baselines import POLICY_NAMES, make_policy
from abr_arena.simulator import SessionConfig
from abr_arena.workload import (
    SynthManifestConfig, SynthTraceConfig, synth_manifest, synth_trace,
)

GOLDEN_PATH = Path(__file__).with_name("tournament_golden.json")
VBR_JITTER = 0.1

# Seed-derivation tags keeping the workloads' random streams independent.
_TAG_TRACES = 1
_TAG_MANIFEST = 2
_TAG_SAMPLER = 3
_TAG_ROUNDS = 4


@dataclass(frozen=True)
class Size:
    chunks: int
    matches: int          # selfplay: matches per epoch
    train_traces: int     # selfplay: trace pool the matches are drawn from
    eval_traces: int      # evaluate: traces per evaluate call
    eval_sets: int        # evaluate: trace sets the calls rotate through
    round_traces: int     # tournament: pool traces per round robin
    rounds: int           # tournament: round robins the units rotate through


SIZES = {
    "full": Size(chunks=48, matches=16, train_traces=32, eval_traces=4, eval_sets=3,
                 round_traces=16, rounds=4),
    "toy": Size(chunks=6, matches=2, train_traces=4, eval_traces=1, eval_sets=2,
                round_traces=1, rounds=2),
}


def _traces(seed: int, tag: int, count: int, prefix: str):
    return [synth_trace(SynthTraceConfig(), [seed, tag, i], trace_id=f"{prefix}_{i:04d}")
            for i in range(count)]


def _manifest(seed, chunks: int):
    return synth_manifest(SynthManifestConfig(num_chunks=chunks, vbr_jitter=VBR_JITTER), seed)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class SelfPlay:
    """Repeated ``run_epoch`` calls over matches sampled the way ``train``
    samples them, with two seeded agents and a VBR-jittered manifest."""

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed, self.size = seed, size
        self.session = SessionConfig()

    def setup(self) -> None:
        self.traces = _traces(self.seed, _TAG_TRACES, self.size.train_traces, "trace")
        self.manifests = [_manifest([self.seed, _TAG_MANIFEST], self.size.chunks)]
        config = AgentConfig(history_len=self.session.history_len,
                             num_levels=self.manifests[0].num_levels)
        self.agents = (Agent(config, seed=2 * self.seed + 1),
                       Agent(config, seed=2 * self.seed + 2))
        self.sampler = np.random.default_rng([self.seed, _TAG_SAMPLER])
        self.epoch = 0

    def matches_per_unit(self) -> int:
        return self.size.matches

    def steps_per_unit(self) -> int:
        return 2 * self.size.matches * self.size.chunks

    def run_unit(self, index: int):
        picks_t = self.sampler.integers(len(self.traces), size=self.size.matches)
        picks_m = self.sampler.integers(len(self.manifests), size=self.size.matches)
        matches = [(self.traces[i], self.manifests[j]) for i, j in zip(picks_t, picks_m)]
        self.epoch += 1
        report, results = selfplay.run_epoch(
            *self.agents, matches, self.session, seed=self.seed, epoch=self.epoch)
        return matches, report, results

    def check(self, output) -> int:
        matches, report, results = output
        epoch_ok = abs(report.w0 + report.w1 - 1.0) <= 1e-12 and len(results) == len(matches)
        for agent, losses in zip(self.agents, (report.losses0, report.losses1)):
            epoch_ok &= _finite(losses["policy_loss"], losses["value_loss"], losses["entropy"])
            # The GEM skips its update, reporting NaN losses, while no
            # winning sample has been collected yet.
            if len(agent.gem.buffer) > 0:
                epoch_ok &= _finite(losses["g_loss"], losses["d_loss"])
        if not epoch_ok:
            return len(matches)
        failed = 0
        for (_, manifest), (traj0, traj1, _) in zip(matches, results):
            n = manifest.num_levels
            failed += not all(
                len(traj.steps) == manifest.num_chunks
                and all(0 <= step.action < n for step in traj.steps)
                for traj in (traj0, traj1))
        return failed


class Evaluate:
    """``evaluate`` of a greedy, checkpoint-reloaded agent against all four
    baselines, rotating through several validation trace sets."""

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed, self.size, self.work_dir = seed, size, work_dir
        self.session = SessionConfig()

    def setup(self) -> None:
        self.manifest = _manifest([self.seed, _TAG_MANIFEST], self.size.chunks)
        count = self.size.eval_traces
        pool = _traces(self.seed, _TAG_TRACES, count * self.size.eval_sets, "val")
        self.trace_sets = [pool[i:i + count] for i in range(0, len(pool), count)]
        config = AgentConfig(history_len=self.session.history_len,
                             num_levels=self.manifest.num_levels)
        ckpt_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            Agent(config, seed=2 * self.seed + 1).save(ckpt_dir / "agent.ckpt")
            self.agent = Agent.load(ckpt_dir / "agent.ckpt")
        finally:
            shutil.rmtree(ckpt_dir)
        self.baselines = {name: make_policy(name, self.manifest, self.session)
                          for name in POLICY_NAMES}
        self.ratings = elo.anchor_baselines(
            self.baselines, self.trace_sets[0], self.manifest, self.session)

    def matches_per_unit(self) -> int:
        return self.size.eval_traces * len(POLICY_NAMES)

    def steps_per_unit(self) -> int:
        return 2 * self.matches_per_unit() * self.size.chunks

    def run_unit(self, index: int):
        traces = self.trace_sets[index % len(self.trace_sets)]
        result = selfplay.evaluate(
            self.agent, self.baselines, traces, self.manifest, self.session,
            baseline_ratings=self.ratings, agent_rating=self.agent.rating.value)
        return traces, result

    def check(self, output) -> int:
        traces, result = output
        expected = {(t.id, name) for t in traces for name in self.baselines}
        unit_ok = (
            len(result.records) == len(expected)
            and {(r["trace_id"], r["opponent"]) for r in result.records} == expected
            and set(result.win_rates) == set(self.baselines)
            and all(0.0 <= w <= 1.0 for w in result.win_rates.values())
            and result.rating is not None and math.isfinite(result.rating)
        )
        if not unit_ok:
            return len(expected)
        # The greedy agent plays the same session against every opponent.
        agent_side: dict[str, tuple] = {}
        failed = 0
        for record in result.records:
            mine = tuple(v for k, v in sorted(record.items()) if k.startswith("agent_"))
            numbers = [v for k, v in record.items() if k.endswith(("_kbps", "_s"))]
            ok = (record["result"] in ("agent0", "agent1", "draw") and _finite(*numbers)
                  and agent_side.setdefault(record["trace_id"], mine) == mine)
            failed += not ok
        return failed


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text())


def golden_pool(golden: dict):
    """The tournament's fixed trace pool and manifest, as the golden file
    describes them."""
    pool = _traces(golden["pool_seed"], _TAG_TRACES, golden["pool_size"], "pool")
    manifest = _manifest([golden["pool_seed"], _TAG_MANIFEST], golden["chunks"])
    return pool, manifest


def reference_ratings(golden: dict, trace_indices) -> dict[str, float]:
    """Replay the recorded outcomes through the Elo step of the seed code
    (K = 10, logistic on a 400-point scale, ratings start at 1000)."""
    ratings = {name: 1000.0 for name in golden["policies"]}
    for pair, outcomes in golden["outcomes"].items():
        a, b = pair.split("/")
        for i in trace_indices:
            score_a = {"agent0": 1.0, "agent1": 0.0, "draw": 0.5}[outcomes[i]]
            ra, rb = ratings[a], ratings[b]
            ratings[a] = ra + 10.0 * (score_a - 1.0 / (1.0 + 10.0 ** ((rb - ra) / 400.0)))
            ratings[b] = rb + 10.0 * ((1.0 - score_a) - 1.0 / (1.0 + 10.0 ** ((ra - rb) / 400.0)))
    return ratings


class Tournament:
    """``anchor_baselines`` round robins of the four baselines over traces
    drawn from a fixed pool whose pairwise outcomes the seed code recorded
    in ``tournament_golden.json``."""

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed, self.size = seed, size
        self.session = SessionConfig()
        golden = load_golden()
        rng = np.random.default_rng([seed, _TAG_ROUNDS])
        self.rounds = [rng.choice(golden["pool_size"], size=size.round_traces, replace=False)
                       for _ in range(size.rounds)]
        self.references = [reference_ratings(golden, r) for r in self.rounds]
        self.golden = golden

    def setup(self) -> None:
        self.pool, self.manifest = golden_pool(self.golden)
        self.policies = {name: make_policy(name, self.manifest, self.session)
                         for name in self.golden["policies"]}

    def matches_per_unit(self) -> int:
        pairs = len(self.golden["policies"]) * (len(self.golden["policies"]) - 1) // 2
        return pairs * self.size.round_traces

    def steps_per_unit(self) -> int:
        return 2 * self.matches_per_unit() * self.golden["chunks"]

    def run_unit(self, index: int):
        k = index % len(self.rounds)
        traces = [self.pool[i] for i in self.rounds[k]]
        return k, elo.anchor_baselines(self.policies, traces, self.manifest, self.session)

    def check(self, output) -> int:
        k, ratings = output
        reference = self.references[k]
        ok = (
            set(ratings) == set(reference)
            and abs(sum(ratings.values()) - 1000.0 * len(reference)) <= 1e-9 * 1000.0 * len(reference)
            and all(abs(ratings[n] - reference[n]) <= 1e-9 * abs(reference[n]) for n in reference)
        )
        return 0 if ok else self.matches_per_unit()


WORKLOADS = {"selfplay": SelfPlay, "evaluate": Evaluate, "tournament": Tournament}
