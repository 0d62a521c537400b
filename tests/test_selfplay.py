import numpy as np
import pytest

from abr_arena.agent import Agent, AgentConfig
from abr_arena.baselines import make_policy
from abr_arena.rule import MatchOutcome
from abr_arena.selfplay import (
    EPOCH_CSV_COLUMNS, TrainConfig, evaluate, run_epoch, run_match, train,
)
from abr_arena.simulator import SessionConfig
from abr_arena.workload import (
    SynthManifestConfig, SynthTraceConfig, Trace, synth_manifest, synth_trace,
)

AGENT_CFG = AgentConfig(history_len=4, num_levels=6)
SESSION_CFG = SessionConfig(buffer_capacity_s=25.0, history_len=4)
MANIFEST = synth_manifest(SynthManifestConfig(num_chunks=4), seed=0)
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
    return (
        tuple(s.action for s in traj.steps),
        tuple(round(s.download_time_s, 12) for s in traj.steps),
        traj.metrics,
    )


def test_run_match_identical_agents_draw():
    a = Agent(AGENT_CFG, seed=5)
    b = Agent(AGENT_CFG, seed=5)
    t0, t1, outcome = run_match(a, b, AMPLE, MANIFEST, SESSION_CFG, mode="greedy")
    assert outcome is MatchOutcome.DRAW
    assert trajectory_signature(t0) == trajectory_signature(t1)


def test_run_match_higher_bitrate_wins_on_ample_trace():
    low = pinned_agent(0, seed=1)
    high = pinned_agent(5, seed=2)
    _, _, outcome = run_match(low, high, AMPLE, MANIFEST, SESSION_CFG, mode="greedy")
    assert outcome is MatchOutcome.AGENT1


def test_run_match_deterministic_given_rngs():
    a = Agent(AGENT_CFG, seed=3)
    b = Agent(AGENT_CFG, seed=4)
    runs = []
    for _ in range(2):
        rngs = (np.random.default_rng(7), np.random.default_rng(8))
        t0, t1, outcome = run_match(a, b, AMPLE, MANIFEST, SESSION_CFG, rngs=rngs)
        runs.append((trajectory_signature(t0), trajectory_signature(t1), outcome))
    assert runs[0] == runs[1]


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
    assert all(outcome is MatchOutcome.DRAW for _, _, outcome in results)
    assert report.losses0["policy_lr"] == pytest.approx(
        -0.5 * np.log(0.5) * AGENT_CFG.policy_lr)


def test_parallel_rollouts_match_serial():
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(4)]
    matches = [(t, MANIFEST) for t in traces] * 2

    def collect(workers):
        a0 = Agent(AGENT_CFG, seed=20)
        a1 = Agent(AGENT_CFG, seed=21)
        _, results = run_epoch(a0, a1, matches, SESSION_CFG, seed=3, epoch=1,
                               workers=workers)
        return sorted(
            (trajectory_signature(t0), trajectory_signature(t1))
            for t0, t1, _ in results
        )

    assert collect(1) == collect(4)


def test_evaluate_baseline_against_itself_draws():
    policy = make_policy("throughput", MANIFEST, SESSION_CFG)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(3)]
    result = evaluate(policy, {"throughput": policy}, traces, MANIFEST, SESSION_CFG)
    assert result.win_rates == {"throughput": 0.5}
    assert all(r["result"] == "draw" for r in result.records)
    assert len(result.records) == 3


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

    def counting_act(*args, **kwargs):
        decisions.append(None)
        return act(*args, **kwargs)

    agent.act = counting_act
    result = evaluate(agent, baselines, traces, MANIFEST, SESSION_CFG)
    assert len(decisions) == len(traces) * MANIFEST.num_chunks
    # Judging each opponent in its own call gives the same records.
    separate = [record for name, policy in baselines.items()
                for record in evaluate(agent, {name: policy}, traces, MANIFEST,
                                       SESSION_CFG).records]
    assert result.records == separate


def small_train_config(seed=0, epochs=2, workers=1):
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=100 + s,
                          trace_id=f"tr{s:02d}") for s in range(6)]
    return TrainConfig(
        train_traces=traces[:4],
        val_traces=traces[4:],
        manifests=[MANIFEST],
        epochs=epochs,
        matches_per_epoch=2,
        workers=workers,
        seed=seed,
        eval_every=1,
        checkpoint_every=1,
        baselines=("constrained", "throughput"),
        session=SESSION_CFG,
        agent=AGENT_CFG,
    )


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
