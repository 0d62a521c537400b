import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from reference_session import ReferenceSession, as_batch

from abr_arena import agent as agent_module
from abr_arena import simulator
from abr_arena.agent import Agent, AgentConfig, AgentPolicy, SessionScales
from abr_arena.baselines import POLICY_NAMES, make_policy
from abr_arena.elo import rate_agent
from abr_arena.rule import RESULT_LABELS, judge
from abr_arena.selfplay import (
    EPOCH_CSV_COLUMNS, TrainConfig, _rollout_rng, evaluate, run_epoch, run_match, train,
)
from abr_arena.gem import HIDDEN_SIZE
from abr_arena.simulator import SessionConfig, run_session
from abr_arena.workload import (
    SynthManifestConfig, SynthTraceConfig, Trace, synth_manifest, synth_trace,
)

AGENT_CFG = AgentConfig(history_len=4, num_levels=6)
SESSION_CFG = SessionConfig(buffer_capacity_s=25.0, history_len=4)
MANIFEST = synth_manifest(SynthManifestConfig(num_chunks=4), seed=0)
LONG_MANIFEST = synth_manifest(SynthManifestConfig(num_chunks=7), seed=1)
GOLDEN_DIR = Path(__file__).with_name("data")
AMPLE = Trace(id="ample", samples=((1000.0, 10000.0),))


def pinned_agent(level, seed=0):
    """Agent whose policy softmax is a near-one-hot on ``level``."""
    agent = Agent(AGENT_CFG, seed=seed)
    out = agent.policy_head.layers[-1]
    out.weight[:] = 0.0
    out.bias[:] = 0.0
    out.bias[level] = 60.0
    return agent


def trajectory_signature(traj):
    return traj.levels, traj.metrics


def player(agent, traces, manifest=MANIFEST, mode="greedy", rngs=None):
    return AgentPolicy(agent, len(traces), manifest, SESSION_CFG, mode, rngs)


def test_run_match_identical_agents_draw():
    a = Agent(AGENT_CFG, seed=5)
    b = Agent(AGENT_CFG, seed=5)
    [(t0, t1, score)] = run_match(player(a, [AMPLE]), player(b, [AMPLE]), [AMPLE],
                                  MANIFEST, SESSION_CFG)
    assert score == 0.5
    assert trajectory_signature(t0) == trajectory_signature(t1)


def test_run_match_higher_bitrate_wins_on_ample_trace():
    low = pinned_agent(0, seed=1)
    high = pinned_agent(5, seed=2)
    [(_, _, score)] = run_match(player(low, [AMPLE]), player(high, [AMPLE]), [AMPLE],
                                MANIFEST, SESSION_CFG)
    assert score == 0.0


def test_run_match_deterministic_given_rngs():
    a = Agent(AGENT_CFG, seed=3)
    b = Agent(AGENT_CFG, seed=4)
    runs = []
    for _ in range(2):
        [(t0, t1, score)] = run_match(
            player(a, [AMPLE], mode="sample", rngs=[np.random.default_rng(7)]),
            player(b, [AMPLE], mode="sample", rngs=[np.random.default_rng(8)]),
            [AMPLE], MANIFEST, SESSION_CFG)
        runs.append((trajectory_signature(t0), trajectory_signature(t1), score))
    assert runs[0] == runs[1]


def test_run_match_of_baselines_judges_their_run_session_blocks():
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(4)]
    policies = [make_policy(name, LONG_MANIFEST, SESSION_CFG) for name in ("bola", "throughput")]
    results = run_match(*policies, traces, LONG_MANIFEST, SESSION_CFG)
    blocks = run_session(policies, traces, LONG_MANIFEST, SESSION_CFG)
    assert results == [(t0, t1, judge(t0.metrics, t1.metrics)) for t0, t1 in zip(*blocks)]
    assert run_match(*policies, [], LONG_MANIFEST, SESSION_CFG) == []


def count_sessions(monkeypatch):
    """Patch simulator.Session to count the engines built."""
    built = []

    class CountingSession(simulator.Session):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(len(self.traces))

    monkeypatch.setattr(simulator, "Session", CountingSession)
    return built


def test_matches_epochs_and_evaluations_build_one_session(monkeypatch):
    traces = [trace for trace, _ in several_trace_matches()]
    a0, a1 = Agent(AGENT_CFG, seed=40), Agent(AGENT_CFG, seed=41)
    built = count_sessions(monkeypatch)
    run_match(player(a0, traces, LONG_MANIFEST), player(a1, traces, LONG_MANIFEST), traces,
              LONG_MANIFEST, SESSION_CFG)
    assert built == [2 * len(traces)]
    built.clear()
    run_epoch(a0, a1, several_trace_matches(), SESSION_CFG, seed=5, epoch=1)
    assert built == [2 * len(traces)]
    built.clear()
    baselines = {name: make_policy(name, LONG_MANIFEST, SESSION_CFG)
                 for name in ("constrained", "throughput", "bola")}
    evaluate(a0, baselines, traces, LONG_MANIFEST, SESSION_CFG)
    assert built == [(1 + len(baselines)) * len(traces)]


def test_run_epoch_report_contract():
    a0 = Agent(AGENT_CFG, seed=10)
    a1 = Agent(AGENT_CFG, seed=11)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(3)]
    matches = [(t, MANIFEST) for t in traces]
    report, results = run_epoch(a0, a1, matches, SESSION_CFG, seed=0, epoch=1)
    assert report.w0 + report.w1 == 1.0
    assert len(results) == len(matches)
    for key in ("policy_loss", "value_loss", "entropy", "g_loss", "d_loss"):
        assert key in report.losses0 and key in report.losses1
    assert np.isfinite(report.losses0["policy_loss"])
    with pytest.raises(ValueError):
        run_epoch(a0, a1, [], SESSION_CFG)


def test_run_epoch_rejects_mixed_videos():
    a0 = Agent(AGENT_CFG, seed=16)
    a1 = Agent(AGENT_CFG, seed=17)
    with pytest.raises(ValueError, match="one video"):
        run_epoch(a0, a1, [(AMPLE, MANIFEST), (AMPLE, LONG_MANIFEST)], SESSION_CFG)
    # Equal manifests loaded or built separately are one video.
    twin = synth_manifest(SynthManifestConfig(num_chunks=4), seed=0)
    assert twin is not MANIFEST and twin == MANIFEST
    _, results = run_epoch(a0, a1, [(AMPLE, MANIFEST), (AMPLE, twin)], SESSION_CFG)
    assert [len(t0.levels) for t0, _, _ in results] == [MANIFEST.num_chunks] * 2


def test_run_epoch_winner_learning_rate_freezes_policy():
    # A0 pinned to the top level wins every match on an ample trace, so its
    # win rate is 1 and the scheduled learning rate is 0: parameters freeze.
    a0 = pinned_agent(5, seed=12)
    a1 = pinned_agent(0, seed=13)
    before0 = [p.copy() for p in a0.policy_opt.params]
    before1 = [p.copy() for p in a1.policy_opt.params]
    report, _ = run_epoch(a0, a1, [(AMPLE, MANIFEST)], SESSION_CFG, seed=1, epoch=1)
    assert report.w0 == 1.0
    assert report.losses0["policy_lr"] == 0.0
    assert all(np.array_equal(a, b) for a, b in zip(before0, a0.policy_opt.params))
    # The loser trains at the doubled base rate.
    assert report.losses1["policy_lr"] == pytest.approx(2.0 * AGENT_CFG.policy_lr)
    assert any(not np.array_equal(a, b) for a, b in zip(before1, a1.policy_opt.params))


def test_run_epoch_all_draws():
    a0 = pinned_agent(2, seed=14)
    a1 = pinned_agent(2, seed=15)
    report, results = run_epoch(a0, a1, [(AMPLE, MANIFEST)] * 3, SESSION_CFG, seed=2, epoch=1)
    assert report.w0 == 0.5 and report.w1 == 0.5
    assert all(score == 0.5 for _, _, score in results)
    assert report.losses0["policy_lr"] == pytest.approx(
        -0.5 * np.log(0.5) * AGENT_CFG.policy_lr)


def several_trace_matches():
    """Matches over one video on several traces, one of them played twice."""
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(3)]
    return [(trace, LONG_MANIFEST) for trace in traces + traces[:1]]


def test_run_epoch_rollouts_match_one_match_runs(monkeypatch):
    matches = several_trace_matches()
    seed, epoch = 3, 1
    a0 = Agent(AGENT_CFG, seed=20)
    a1 = Agent(AGENT_CFG, seed=21)
    # One-match runs first: run_epoch updates the parameters after its rollouts.
    separate = []
    for m, (trace, manifest) in enumerate(matches):
        players = [player(agent, [trace], manifest, "sample", [_rollout_rng(seed, epoch, m, a)])
                   for a, agent in enumerate((a0, a1))]
        [result] = run_match(*players, [trace], manifest, SESSION_CFG)
        separate.append((result, [p.rows[:, 0] for p in players]))
    # The rows run_epoch's rollouts wrote, as each agent's update batch gets them.
    batch_rows = []
    build = Agent.build_update_batch

    def recording_build(self, rows, *args):
        batch_rows.append(rows)
        return build(self, rows, *args)

    monkeypatch.setattr(Agent, "build_update_batch", recording_build)
    _, together = run_epoch(a0, a1, matches, SESSION_CFG, seed=seed, epoch=epoch)
    assert [len(t0.levels) for t0, _, _ in together] == [7, 7, 7, 7]
    for m, (((s0, s1, s_score), alone_rows), (t0, t1, t_score)) in enumerate(
            zip(separate, together)):
        assert s_score == t_score
        for alone, batched in ((s0, t0), (s1, t1)):
            assert trajectory_signature(alone) == trajectory_signature(batched)
        for a in (0, 1):
            # Batched float32 forwards may round the hidden features differently.
            np.testing.assert_allclose(batch_rows[a][m], alone_rows[a], rtol=1e-5, atol=1e-6)


def test_agent_policy_rows_are_normalized_observations_and_gem_features():
    agent = Agent(AGENT_CFG, seed=22)
    matches = several_trace_matches()
    traces, manifest = [trace for trace, _ in matches], LONG_MANIFEST
    rngs = [np.random.default_rng(m) for m in range(len(matches))]
    policy = player(agent, traces, manifest, "sample", rngs)
    [trajectories] = run_session([policy], traces, manifest, SESSION_CFG)
    assert policy.rows.shape == (manifest.num_chunks, len(traces), AGENT_CFG.flat_dim)
    for m, (traj, trace) in enumerate(zip(trajectories, traces)):
        rows = policy.rows[:, m]
        scales = SessionScales(manifest.ladder_kbps[-1], SESSION_CFG.buffer_capacity_s,
                               manifest.total_duration_s)
        # The state columns are the normalized observations of a scalar
        # replay of the played actions.
        reference = ReferenceSession(manifest, trace, SESSION_CFG)
        observations = []
        for level in traj.levels:
            observations.append(reference.observe())
            reference.step(level)
        flat = agent.flatten_trajectory(as_batch(observations), scales)
        assert np.array_equal(rows[:, :-HIDDEN_SIZE], flat[:, :-HIDDEN_SIZE])
        assert traj.metrics == reference.metrics()
        # Step t's hidden feature is the generator's output on step t-1's row.
        assert np.all(rows[0, -HIDDEN_SIZE:] == 0.0)
        np.testing.assert_allclose(rows[1:, -HIDDEN_SIZE:],
                                   agent.gem.hidden_for(rows[:-1]), rtol=1e-5, atol=1e-6)
    with pytest.raises(ValueError):
        run_session([player(agent, traces, manifest, "sample", None)], traces, manifest,
                    SESSION_CFG)
    with pytest.raises(ValueError):
        AgentPolicy(agent, len(traces), manifest, SessionConfig(history_len=5))
    with pytest.raises(ValueError):
        AgentPolicy(agent, len(traces), synth_manifest(
            SynthManifestConfig(num_chunks=7, ladder_kbps=(300.0, 750.0, 1200.0)), seed=1),
            SESSION_CFG)


def test_run_epoch_normalizes_each_observation_once(monkeypatch):
    matches = several_trace_matches()
    batches = []
    normalize = agent_module.normalize

    def counting_normalize(obs, config, scales, out):
        batches.append(len(out))
        return normalize(obs, config, scales, out)

    monkeypatch.setattr(agent_module, "normalize", counting_normalize)
    run_epoch(Agent(AGENT_CFG, seed=23), Agent(AGENT_CFG, seed=24), matches, SESSION_CFG,
              seed=4, epoch=1)
    # One call per agent and chunk index, over every session: every step's
    # row is normalized exactly once.
    assert batches == [len(matches)] * (2 * LONG_MANIFEST.num_chunks)


def test_run_epoch_runs_one_update_forward_per_agent(monkeypatch):
    matches = several_trace_matches()
    update_rows = sum(manifest.num_chunks for _, manifest in matches)
    sizes = []
    forward = agent_module.FeatureTrunk.forward

    def counting_forward(self, rows):
        sizes.append(len(rows))
        return forward(self, rows)

    monkeypatch.setattr(agent_module.FeatureTrunk, "forward", counting_forward)
    run_epoch(Agent(AGENT_CFG, seed=25), Agent(AGENT_CFG, seed=26), matches, SESSION_CFG,
              seed=4, epoch=1)
    # Rollout forwards see at most one row per match; the updates see every step.
    assert max(size for size in sizes if size != update_rows) <= len(matches)
    assert sizes.count(update_rows) == 2


def test_evaluate_record_count_and_rating():
    agent = Agent(AGENT_CFG, seed=30)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(4)]
    baselines = {name: make_policy(name, MANIFEST, SESSION_CFG)
                 for name in ("constrained", "throughput")}
    result = evaluate(agent, baselines, traces, MANIFEST, SESSION_CFG,
                      baseline_ratings={"constrained": 1000.0, "throughput": 1000.0},
                      agent_rating=1000.0)
    assert len(result.records) == len(traces) * len(baselines)
    assert result.rating is not None
    with pytest.raises(ValueError):
        evaluate(agent, baselines, [], MANIFEST, SESSION_CFG)


def test_evaluate_plays_agent_once_per_trace():
    agent = Agent(AGENT_CFG, seed=31)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(3)]
    baselines = {name: make_policy(name, MANIFEST, SESSION_CFG)
                 for name in ("constrained", "throughput", "bola")}
    decisions = []
    act = agent.act

    def counting_act(rows, *args, **kwargs):
        decisions.append(len(rows))
        return act(rows, *args, **kwargs)

    agent.act = counting_act
    result = evaluate(agent, baselines, traces, MANIFEST, SESSION_CFG)
    # One batched decision over every trace per chunk index.
    assert decisions == [len(traces)] * MANIFEST.num_chunks
    # Judging each opponent in its own call gives the same records.
    separate = [record for name, policy in baselines.items()
                for record in evaluate(agent, {name: policy}, traces, MANIFEST,
                                       SESSION_CFG).records]
    assert result.records == separate


def test_evaluate_labels_win_rates_and_rating_agree():
    agent = Agent(AGENT_CFG, seed=32)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(4)]
    baselines = {name: make_policy(name, MANIFEST, SESSION_CFG) for name in POLICY_NAMES}
    anchors = {name: 950.0 + 25.0 * i for i, name in enumerate(POLICY_NAMES)}
    result = evaluate(agent, baselines, traces, MANIFEST, SESSION_CFG,
                      baseline_ratings=anchors, agent_rating=1010.0)
    score_of = {label: score for score, label in RESULT_LABELS.items()}
    scores = {name: [score_of[r["result"]] for r in result.records if r["opponent"] == name]
              for name in POLICY_NAMES}
    assert len(set().union(*scores.values())) > 1
    for name, opponent_scores in scores.items():
        assert len(opponent_scores) == len(traces)
        assert result.win_rates[name] == sum(opponent_scores) / len(opponent_scores)
    assert result.rating == rate_agent(1010.0, anchors, scores)


def small_train_config(seed=0, epochs=2):
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=100 + s,
                          trace_id=f"tr{s:02d}") for s in range(6)]
    return TrainConfig(
        train_traces=traces[:4],
        val_traces=traces[4:],
        manifest=MANIFEST,
        epochs=epochs,
        matches_per_epoch=2,
        seed=seed,
        eval_every=1,
        checkpoint_every=1,
        baselines=("constrained", "throughput"),
        session=SESSION_CFG,
        agent=AGENT_CFG,
    )


@pytest.mark.parametrize("change,word", [
    ({"epochs": -2}, "epochs"),
    ({"eval_every": 0}, "eval_every"),
    ({"checkpoint_every": 0}, "checkpoint_every"),
    ({"matches_per_epoch": 0}, "matches_per_epoch"),
    ({"baselines": ("bola", "bola")}, "baselines"),
    ({"baselines": ("bola",)}, "baselines"),
    ({"baselines": ("bola", "pensieve")}, "baselines"),
])
def test_train_config_rejects_settings_that_fail_later(change, word):
    with pytest.raises(ValueError, match=word):
        dataclasses.replace(small_train_config(), **change)


def test_train_writes_log_checkpoints_and_eval(tmp_path):
    result = train(small_train_config(), tmp_path / "run")
    csv_path = tmp_path / "run" / "epochs.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(EPOCH_CSV_COLUMNS)
    assert len(lines) == 1 + 1 + 2  # header, anchor row, two epochs
    assert (tmp_path / "run" / "eval.jsonl").exists()
    for idx in (0, 1):
        assert (tmp_path / "run" / f"agent{idx}_final.ckpt").exists()
        assert (tmp_path / "run" / f"agent{idx}_ep00000.ckpt").exists()
    assert len(result.reports) == 2
    assert set(result.baseline_ratings) == {"constrained", "throughput"}


def test_train_zero_epochs_logs_anchor_row_only(tmp_path):
    train(small_train_config(epochs=0), tmp_path / "zero")
    lines = (tmp_path / "zero" / "epochs.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the anchoring/initial-eval row
    assert lines[1].startswith("0,0.5,0.5,")


def test_train_fixed_seed_reproduces_log(tmp_path):
    train(small_train_config(seed=7), tmp_path / "a")
    train(small_train_config(seed=7), tmp_path / "b")
    assert (tmp_path / "a" / "epochs.csv").read_bytes() == \
        (tmp_path / "b" / "epochs.csv").read_bytes()


def read_epochs(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_train_matches_golden_log(tmp_path):
    """A fixed-seed run reproduces the recorded log: outcomes, Elo, session
    metrics and the final evaluation exactly, losses up to float32 rounding
    (batched forwards may sum in a different order)."""
    train(small_train_config(seed=7, epochs=3), tmp_path / "run")
    got = read_epochs(tmp_path / "run" / "epochs.csv")
    want = read_epochs(GOLDEN_DIR / "golden_seed7_epochs.csv")
    assert len(got) == len(want) == 4
    losses = ("policy_loss", "value_loss", "g_loss", "d_loss")
    for got_row, want_row in zip(got, want):
        assert list(got_row) == list(EPOCH_CSV_COLUMNS)
        for column in EPOCH_CSV_COLUMNS:
            if column in losses:
                assert float(got_row[column]) == pytest.approx(
                    float(want_row[column]), rel=1e-5, nan_ok=True), column
            else:
                assert got_row[column] == want_row[column], column
    assert (tmp_path / "run" / "eval.jsonl").read_bytes() == \
        (GOLDEN_DIR / "golden_seed7_eval.jsonl").read_bytes()
