import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from reference_session import ReferenceSession, as_batch
from reference_trunk import gathered_forward

from abr_arena import agent as agent_module
from abr_arena import baselines as baselines_module
from abr_arena import selfplay as selfplay_module
from abr_arena import simulator
from abr_arena.agent import Agent, AgentConfig, AgentPolicy
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


def player(agent, traces, manifest=MANIFEST, rngs=None):
    return AgentPolicy(agent, len(traces), manifest, SESSION_CFG, rngs)


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
            player(a, [AMPLE], rngs=[np.random.default_rng(7)]),
            player(b, [AMPLE], rngs=[np.random.default_rng(8)]),
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
            built.append(len(self.buffer_s))

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
        players = [player(agent, [trace], manifest, [_rollout_rng(seed, epoch, m, a)])
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
    policy = player(agent, traces, manifest, rngs)
    [trajectories] = run_session([policy], traces, manifest, SESSION_CFG)
    assert policy.rows.shape == (manifest.num_chunks, len(traces), AGENT_CFG.flat_dim)
    for m, (traj, trace) in enumerate(zip(trajectories, traces)):
        rows = policy.rows[:, m]
        # The state columns are the normalized observations of a scalar
        # replay of the played actions.
        reference = ReferenceSession(manifest, trace, SESSION_CFG)
        observations = []
        for level in traj.levels:
            observations.append(reference.observe())
            reference.step(level)
        flat = agent.flatten_trajectory(as_batch(observations), manifest, SESSION_CFG)
        assert np.array_equal(rows[:, :-HIDDEN_SIZE], flat[:, :-HIDDEN_SIZE])
        assert traj.metrics == reference.metrics()
        # Step t's hidden feature is the generator's output on step t-1's row.
        assert np.all(rows[0, -HIDDEN_SIZE:] == 0.0)
        np.testing.assert_allclose(rows[1:, -HIDDEN_SIZE:],
                                   agent.gem.hidden_for(rows[:-1], agent.gem.inference()),
                                   rtol=1e-5, atol=1e-6)
    with pytest.raises(ValueError):
        run_session([player(agent, traces, manifest, rngs[:1])], traces, manifest, SESSION_CFG)
    with pytest.raises(ValueError):
        AgentPolicy(agent, len(traces), manifest, SessionConfig(history_len=5))
    with pytest.raises(ValueError):
        AgentPolicy(agent, len(traces), synth_manifest(
            SynthManifestConfig(num_chunks=7, ladder_kbps=(300.0, 750.0, 1200.0)), seed=1),
            SESSION_CFG)


def test_agent_policy_built_after_a_gem_update_plays_the_updated_generator():
    """The fold an AgentPolicy plays is taken at its construction, so a policy
    built after ``gem.update`` sees the moved parameters and statistics."""
    agent = Agent(AGENT_CFG, seed=23)
    traces, manifest = [trace for trace, _ in several_trace_matches()], LONG_MANIFEST
    player(agent, traces, manifest)  # a policy built, so folded, before the update
    before = agent.gem.inference()
    inputs = np.random.default_rng(24).normal(size=(32, AGENT_CFG.flat_dim)).astype(np.float32)
    agent.gem.collect(inputs[None, :8])
    assert not agent.gem.update(inputs, np.random.default_rng(25)).skipped
    policy = player(agent, traces, manifest)
    run_session([policy], traces, manifest, SESSION_CFG)
    prev, hidden = policy.rows[:-1].reshape(-1, AGENT_CFG.flat_dim), policy.rows[1:, :, -HIDDEN_SIZE:]
    after = agent.gem.inference()
    assert np.array_equal(hidden.reshape(-1, HIDDEN_SIZE), agent.gem.hidden_for(prev, after))
    assert not np.allclose(agent.gem.hidden_for(prev, before), agent.gem.hidden_for(prev, after))


def test_agent_policy_built_after_an_update_plays_the_updated_trunk():
    """The bands an AgentPolicy plays are built at its construction, so a
    policy built after ``Agent.update`` plays the moved trunk."""
    agent = Agent(AGENT_CFG, seed=27)
    traces, manifest = [trace for trace, _ in several_trace_matches()], LONG_MANIFEST
    rngs = [np.random.default_rng(m) for m in range(len(traces))]
    before = player(agent, traces, manifest, rngs)
    [trajectories] = run_session([before], traces, manifest, SESSION_CFG)
    agent.update(agent.build_update_batch(before.rows.swapaxes(0, 1), trajectories,
                                          [1.0, 0.0, 1.0, 0.0], 0.25))
    policy = player(agent, traces, manifest)
    [trajectories] = run_session([policy], traces, manifest, SESSION_CFG)
    (bands, bias), (want_bands, want_bias) = policy._bands, agent.trunk.bands()
    assert all(np.array_equal(band, want) for band, want in zip(bands, want_bands, strict=True))
    assert np.array_equal(bias, want_bias)
    assert not np.array_equal(bands[0], before._bands[0][0])
    for t, rows in enumerate(policy.rows):
        features = gathered_forward(agent.trunk, rows)
        assert np.array_equal(agent.trunk.forward(rows, policy._bands)[0], features)
        levels = agent.policy_head.forward(features)[0].argmax(axis=1)
        assert levels.tolist() == [traj.levels[t] for traj in trajectories]


def test_run_epoch_normalizes_each_observation_once(monkeypatch):
    matches = several_trace_matches()
    batches = []
    normalize = agent_module.normalize

    def counting_normalize(obs, config, manifest, cfg, out):
        batches.append(len(out))
        return normalize(obs, config, manifest, cfg, out)

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

    def counting_forward(self, rows, bands=None):
        sizes.append(len(rows))
        return forward(self, rows, bands)

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


def test_evaluate_reuses_stored_baseline_sessions(monkeypatch):
    """Calls rotating over trace sets on one baselines dict give what fresh
    baselines give, and each baseline plays a trace set only once."""
    agent = Agent(AGENT_CFG, seed=33)
    pool = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s, trace_id=f"v{s}")
            for s in range(6)]
    trace_sets = [pool[0:2], pool[2:4], pool[4:6]]
    anchors = {name: 950.0 + 25.0 * i for i, name in enumerate(POLICY_NAMES)}

    def fresh_baselines():
        return {name: make_policy(name, MANIFEST, SESSION_CFG) for name in POLICY_NAMES}

    bola_rows = []
    bola = baselines_module.bola

    def spy_bola(obs, *args):
        bola_rows.append(len(obs.buffer_s))
        return bola(obs, *args)

    kept = fresh_baselines()
    for call in range(2 * len(trace_sets)):
        traces = trace_sets[call % len(trace_sets)]
        monkeypatch.setattr(baselines_module, "bola", spy_bola)
        bola_rows.clear()
        stored = evaluate(agent, kept, traces, MANIFEST, SESSION_CFG,
                          baseline_ratings=anchors, agent_rating=1010.0)
        # bola plays its own sessions and dynamic's at or above the switch buffer.
        assert (len(bola_rows) > 0) == (call < len(trace_sets)), call
        monkeypatch.setattr(baselines_module, "bola", bola)
        replayed = evaluate(agent, fresh_baselines(), traces, MANIFEST, SESSION_CFG,
                            baseline_ratings=anchors, agent_rating=1010.0)
        assert stored.records == replayed.records
        assert stored.win_rates == replayed.win_rates
        assert stored.rating == replayed.rating
    assert all(len(b.played) == len(pool) for b in kept.values())


def test_evaluate_keys_stored_sessions_by_trace_value():
    """Traces that share an id but not their samples get their own sessions."""
    agent = Agent(AGENT_CFG, seed=34)
    scarce = Trace(id="ample", samples=((1000.0, 400.0),))
    baselines = {"bola": make_policy("bola", MANIFEST, SESSION_CFG),
                 "throughput": make_policy("throughput", MANIFEST, SESSION_CFG)}
    evaluate(agent, baselines, [AMPLE], MANIFEST, SESSION_CFG)
    result = evaluate(agent, baselines, [scarce], MANIFEST, SESSION_CFG)
    fresh = {name: make_policy(name, MANIFEST, SESSION_CFG) for name in baselines}
    assert result.records == evaluate(agent, fresh, [scarce], MANIFEST, SESSION_CFG).records
    for baseline in baselines.values():
        assert set(baseline.played) == {AMPLE, scarce}
        assert baseline.played[AMPLE] != baseline.played[scarce]


@pytest.mark.parametrize("manifest,cfg", [
    (LONG_MANIFEST, SESSION_CFG),
    (MANIFEST, dataclasses.replace(SESSION_CFG, buffer_capacity_s=30.0)),
])
def test_evaluate_rejects_baselines_built_for_another_setup(manifest, cfg):
    agent = Agent(AGENT_CFG, seed=35)
    baselines = {"constrained": make_policy("constrained", MANIFEST, SESSION_CFG),
                 "bola": make_policy("bola", manifest, cfg)}
    with pytest.raises(ValueError, match="baseline 'bola'"):
        evaluate(agent, baselines, [AMPLE], MANIFEST, SESSION_CFG)
    assert all(not b.played for b in baselines.values())


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
    ({"baselines": ("bola", "bola", "throughput")}, "baseline 'bola' is named twice"),
    ({"val_traces": []}, "val_traces"),
    ({"agent": dataclasses.replace(AGENT_CFG, history_len=5)}, "agent.history_len"),
    ({"agent": dataclasses.replace(AGENT_CFG, num_levels=7)}, "agent.num_levels"),
])
def test_train_config_rejects_settings_that_fail_later(tmp_path, change, word):
    with pytest.raises(ValueError, match=word):
        train(dataclasses.replace(small_train_config(), **change), tmp_path / "run")
    assert not (tmp_path / "run").exists()


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
    assert set(result.win_rates) == {"constrained", "throughput"}


def test_train_zero_epochs_logs_anchor_row_only(tmp_path):
    train(small_train_config(epochs=0), tmp_path / "zero")
    lines = (tmp_path / "zero" / "epochs.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the anchoring/initial-eval row
    assert lines[1].startswith("0,0.5,0.5,")


def test_train_carries_elo_between_evaluations(tmp_path):
    """Row 0 is the starting Elo with placeholder outcomes; an epoch without
    an evaluation repeats the last evaluation's Elo."""
    cfg = dataclasses.replace(small_train_config(epochs=3), eval_every=2)
    train(cfg, tmp_path / "run")
    with open(tmp_path / "run" / "epochs.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 4
    assert rows[0] == ["0", "0.5", "0.5", rows[0][3]] + ["0.0"] * 10
    assert np.isfinite(float(rows[0][3]))
    assert rows[1][3] == rows[0][3]
    assert rows[2][3] != rows[1][3]  # epoch 2 evaluates
    assert rows[3][3] == rows[2][3]


@pytest.mark.parametrize("epochs,eval_every", [(0, 1), (3, 1), (4, 2), (3, 2)])
def test_train_evaluates_once_per_schedule_point(tmp_path, monkeypatch, epochs, eval_every):
    """Row 0 and every ``eval_every``-th epoch evaluate, and one more
    evaluation follows only a last epoch that did not; the returned rating
    is the final checkpoint's."""
    calls = []

    def counting_evaluate(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(selfplay_module, "evaluate", counting_evaluate)
    cfg = dataclasses.replace(small_train_config(epochs=epochs), eval_every=eval_every)
    result = train(cfg, tmp_path / "run")
    assert len(calls) == 1 + epochs // eval_every + (epochs % eval_every != 0)
    assert result.rating == Agent.load(tmp_path / "run" / "agent0_final.ckpt").rating.value
    if epochs % eval_every == 0:
        assert result.rating == float(read_epochs(tmp_path / "run" / "epochs.csv")[-1]["elo_a0"])


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
