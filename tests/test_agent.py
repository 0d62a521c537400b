import copy
import hashlib
import math

import numpy as np
import pytest
from gradcheck import gradient_errors

from abr_arena.agent import (
    CONV_FILTERS, CONV_KERNEL, Agent, AgentConfig, SessionScales, UpdateBatch, advantages,
    dynamic_lr, flatten_observation, normalize, td_targets,
)
from abr_arena.neural import Conv1D, Dense, Relu, Sequential
from abr_arena.simulator import HIDDEN_SIZE, Observation, SessionConfig
from abr_arena.workload import SynthManifestConfig, synth_manifest

CFG = AgentConfig(history_len=4, num_levels=3)
SCALES = SessionScales(top_bitrate_kbps=4300.0, buffer_capacity_s=25.0, total_duration_s=64.0)


def physical_obs(rng=None, k=4, n=3):
    if rng is None:
        return Observation(
            throughput_kbps=np.zeros(k), download_time_s=np.zeros(k),
            chosen_bitrate_kbps=np.zeros(k), remaining_play_s=0.0, buffer_s=0.0,
            next_sizes_bits=np.zeros(n), hidden=np.zeros(HIDDEN_SIZE, dtype=np.float32),
        )
    return Observation(
        throughput_kbps=rng.uniform(0, 8000, k), download_time_s=rng.uniform(0, 12, k),
        chosen_bitrate_kbps=rng.uniform(0, 4300, k),
        remaining_play_s=float(rng.uniform(0, 64)), buffer_s=float(rng.uniform(0, 25)),
        next_sizes_bits=rng.uniform(1e5, 2e7, n),
        hidden=rng.normal(size=HIDDEN_SIZE).astype(np.float32),
    )


def norm_obs(rng=None):
    return normalize(physical_obs(rng), CFG, SCALES)


# ---- dynamic learning rate -------------------------------------------------

def test_dynamic_lr_table():
    expected = {
        0.0: 2.0,
        0.25: 0.25 * math.log(0.25) + 2.0,
        0.5: -0.5 * math.log(0.5),
        0.75: -0.75 * math.log(0.75),
        1.0: 0.0,
    }
    for w, factor in expected.items():
        assert dynamic_lr(w, 1.0) == pytest.approx(factor, abs=1e-9)
        assert dynamic_lr(w, 1e-4) == pytest.approx(factor * 1e-4, abs=1e-12)
    assert dynamic_lr(0.5, 1.0) == pytest.approx(0.346574, abs=1e-6)


def test_dynamic_lr_nonnegative_and_bounds():
    for w in np.linspace(0, 1, 101):
        assert dynamic_lr(float(w), 1.0) >= 0.0
    with pytest.raises(ValueError):
        dynamic_lr(-0.1, 1.0)
    with pytest.raises(ValueError):
        dynamic_lr(1.1, 1.0)


# ---- advantages ------------------------------------------------------------

def test_advantage_hand_example():
    # Q = r + gamma * V(s') = 1 + 0.6*0.5 = 1.3; A = 1.3 - 0.8 = 0.5.
    adv = advantages(np.array([1.0, 1.0]), np.array([0.8, 0.5]), discount=0.6)
    assert adv[0] == pytest.approx(0.5)
    # Terminal step bootstraps V = 0.
    assert adv[1] == pytest.approx(1.0 - 0.5)


def test_advantage_terminal_and_fixed_point():
    adv = advantages(np.array([0.0]), np.array([0.2]), discount=0.6)
    assert adv[0] == pytest.approx(-0.2)
    zero = advantages(np.zeros(5), np.zeros(5), discount=0.6)
    assert np.allclose(zero, 0.0)


def test_td_targets_n_step():
    rewards = np.array([1.0, 1.0, 1.0])
    values = np.array([0.3, 0.2, 0.1])
    q2 = td_targets(rewards, values, discount=0.5, td_steps=2)
    assert q2[0] == pytest.approx(1.0 + 0.5 * 1.0 + 0.25 * 0.1)
    assert q2[1] == pytest.approx(1.0 + 0.5 * 1.0)  # horizon truncates
    assert q2[2] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        td_targets(np.array([]), np.array([]), 0.6)


# ---- normalization ---------------------------------------------------------

def test_normalize_values():
    obs = Observation(
        throughput_kbps=np.array([5000.0, 0.0, 0.0, 0.0]),
        download_time_s=np.array([5.0, 0.0, 0.0, 0.0]),
        chosen_bitrate_kbps=np.array([4300.0, 0.0, 0.0, 0.0]),
        remaining_play_s=32.0,
        buffer_s=25.0,
        next_sizes_bits=np.array([4e6, 8e6, 1.6e7]),
        hidden=np.full(HIDDEN_SIZE, 2.0, dtype=np.float32),
    )
    norm = normalize(obs, CFG, SCALES)
    assert norm.throughput_kbps[0] == pytest.approx(0.5)
    assert norm.download_time_s[0] == pytest.approx(0.5)
    assert norm.chosen_bitrate_kbps[0] == pytest.approx(1.0)
    assert norm.remaining_play_s == pytest.approx(0.5)
    assert norm.buffer_s == pytest.approx(1.0)
    assert norm.next_sizes_bits[0] == pytest.approx(0.5)
    assert np.all(norm.hidden == 2.0)  # hidden passes through unscaled


def test_normalize_zero_is_zero():
    norm = normalize(physical_obs(), CFG, SCALES)
    assert np.all(flatten_observation(norm) == 0.0)


def test_flatten_layout():
    flat = flatten_observation(norm_obs(np.random.default_rng(0)))
    assert flat.shape == (CFG.flat_dim,)
    assert flat.dtype == np.float32


def test_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(history_len=2)
    with pytest.raises(ValueError):
        AgentConfig(num_levels=2)
    with pytest.raises(ValueError):
        AgentConfig(discount=0.0)
    with pytest.raises(ValueError):
        AgentConfig(reward_mode="sometimes")


# ---- acting ----------------------------------------------------------------

def test_act_greedy_tie_breaks_low():
    agent = Agent(CFG, seed=0)
    # Zero the policy output layer: all logits equal, argmax returns index 0.
    out = agent.policy_head.layers[-1]
    out.weight[:] = 0.0
    out.bias[:] = 0.0
    assert agent.act(norm_obs(np.random.default_rng(1)), "greedy") == 0


def test_act_dominant_logit_wins_in_both_modes():
    agent = Agent(CFG, seed=0)
    out = agent.policy_head.layers[-1]
    out.weight[:] = 0.0
    out.bias[:] = np.array([0.0, 50.0, 0.0], dtype=np.float32)
    obs = norm_obs(np.random.default_rng(2))
    assert agent.act(obs, "greedy") == 1
    assert agent.act(obs, "sample", np.random.default_rng(3)) == 1


def test_act_sample_deterministic_given_seed():
    agent = Agent(CFG, seed=1)
    obs = norm_obs(np.random.default_rng(4))
    first = agent.act(obs, "sample", np.random.default_rng(99))
    second = agent.act(obs, "sample", np.random.default_rng(99))
    assert first == second
    with pytest.raises(ValueError):
        agent.act(obs, "sample")
    with pytest.raises(ValueError):
        agent.act(obs, "argmax")


def test_act_shape_mismatch_rejected():
    agent = Agent(CFG, seed=0)
    bad = normalize(physical_obs(np.random.default_rng(0), k=6, n=3),
                    AgentConfig(history_len=6, num_levels=3), SCALES)
    with pytest.raises(ValueError):
        agent.act(bad, "greedy")


def test_policy_probs_sum_to_one():
    agent = Agent(CFG, seed=3)
    rng = np.random.default_rng(5)
    inputs = agent.observation_rows([norm_obs(rng) for _ in range(16)])
    probs = agent.policy_probs(inputs)
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


# ---- feature trunk ---------------------------------------------------------

def reference_branches(agent):
    """The per-branch layer composition the trunk replaces, built on copies
    of the trunk's parameter arrays: (row columns, network) per branch, in
    feature order."""
    k, n = agent.config.history_len, agent.config.num_levels
    columns = {
        "throughput": slice(0, k), "download": slice(k, 2 * k), "bitrate": slice(2 * k, 3 * k),
        "sizes": slice(3 * k + 2, 3 * k + 2 + n), "hidden": slice(3 * k + 2 + n, None),
    }
    branches = []
    for name, trunk_conv in agent.trunk.convs.items():
        conv = Conv1D(1, CONV_FILTERS, CONV_KERNEL)
        conv.weight[...] = trunk_conv.weight
        conv.bias[...] = trunk_conv.bias
        branches.append((columns[name], Sequential([conv, Relu()])))
    dense = Dense(2, CONV_FILTERS)
    dense.weight[...] = agent.trunk.scalars.weight
    dense.bias[...] = agent.trunk.scalars.bias
    branches.append((slice(3 * k, 3 * k + 2), Sequential([dense, Relu()])))
    return branches


def assert_close(actual, expected, rtol=1e-5):
    """Equal within ``rtol`` of the expected tensor's largest magnitude."""
    assert actual.shape == expected.shape
    scale = max(float(np.abs(expected).max()), 1e-12)
    assert float(np.abs(actual - expected).max()) <= rtol * scale


@pytest.mark.parametrize("batch", [1, 9])
def test_trunk_matches_per_branch_layers(batch):
    agent = Agent(CFG, seed=16)
    rng = np.random.default_rng(17)
    rows = agent.observation_rows([norm_obs(rng) for _ in range(batch)])
    features, cache = agent.trunk.forward(rows)
    d_features = rng.normal(size=features.shape).astype(np.float32)
    grads = agent.trunk.backward(cache, d_features)

    ref_features, ref_grads, offset = [], [], 0
    for columns, net in reference_branches(agent):
        x = rows[:, columns]
        y, caches = net.forward(x if isinstance(net.layers[0], Dense) else x[:, None, :])
        width = y[0].size
        _, branch_grads = net.backward(
            caches, d_features[:, offset:offset + width].reshape(y.shape))
        ref_features.append(y.reshape(batch, width))
        ref_grads += branch_grads
        offset += width
    assert_close(features, np.concatenate(ref_features, axis=1))
    assert len(grads) == len(ref_grads) == len(agent.trunk.params())
    for grad, ref, param in zip(grads, ref_grads, agent.trunk.params()):
        assert grad.shape == param.shape
        assert_close(grad, ref)


def float64_twin(agent):
    """A deep copy of ``agent`` with every network array widened to float64."""
    twin = copy.deepcopy(agent)
    for net in twin._nets().values():
        for layer in net.layers:
            for name, value in vars(layer).items():
                if isinstance(value, np.ndarray):
                    setattr(layer, name, value.astype(np.float64))
    return twin


def test_agent_gradients_match_float64_differences():
    agent = Agent(CFG, seed=14)
    rng = np.random.default_rng(15)
    batch = make_batch(agent, rng, size=6)
    report, policy_grads, value_grads = agent.gradients(batch)

    twin = float64_twin(agent)
    rows = batch.inputs.astype(np.float64)
    q = np.asarray(batch.q_targets, dtype=np.float64)
    # The policy objective treats the advantage as a constant coefficient.
    values = agent.state_values(batch.inputs).astype(np.float64)
    adv = (q - values).astype(np.float32).astype(np.float64)
    picked = (np.arange(len(rows)), batch.actions)

    def policy_loss():
        probs = twin.policy_probs(rows)
        log_probs = np.log(np.maximum(probs, 1e-12))
        entropy = -(probs * log_probs).sum(axis=1)
        return float(-np.mean(adv * log_probs[picked] + CFG.entropy_weight * entropy))

    def value_loss():
        return float(np.mean((q - twin.state_values(rows)) ** 2))

    assert policy_loss() == pytest.approx(report["policy_loss"], rel=1e-4)
    assert value_loss() == pytest.approx(report["value_loss"], rel=1e-4)
    trunk = twin.trunk.params()
    errors = []
    for loss, params, grads in (
        (policy_loss, trunk + twin.policy_head.params(), policy_grads),
        (value_loss, trunk + twin.value_head.params(), value_grads),
    ):
        assert len(params) == len(grads)
        for param, grad in zip(params, grads):
            assert grad.shape == param.shape
            errors += gradient_errors(loss, param, grad, rng=rng, max_coords=24)
    assert max(errors) < 1e-2
    assert float(np.median(errors)) < 1e-3


# ---- updates ---------------------------------------------------------------

def make_batch(agent, rng, size=12, win=0.25, adv_zero=False):
    obs = [norm_obs(rng) for _ in range(size)]
    inputs = agent.observation_rows(obs)
    values = agent.state_values(inputs)
    if adv_zero:
        q = values.copy()
    else:
        q = values + rng.normal(0, 0.5, size).astype(np.float32)
    return UpdateBatch(
        inputs=inputs,
        actions=rng.integers(0, agent.config.num_levels, size),
        rewards=np.full(size, 0.5),
        q_targets=q,
        win_rate=win,
    )


def snapshot(agent):
    return [p.copy() for p in agent.policy_opt.params]


def test_zero_advantage_zero_entropy_weight_is_noop():
    agent = Agent(AgentConfig(history_len=4, num_levels=3, entropy_weight=0.0), seed=7)
    batch = make_batch(agent, np.random.default_rng(6), adv_zero=True)
    before = snapshot(agent)
    report = agent.update(batch)
    assert report["value_loss"] == 0.0
    for old, new in zip(before, agent.policy_opt.params):
        assert np.array_equal(old, new)


def test_entropy_bonus_increases_entropy():
    agent = Agent(AgentConfig(history_len=4, num_levels=3, entropy_weight=0.05,
                              policy_lr=1e-3), seed=8)
    batch = make_batch(agent, np.random.default_rng(7), adv_zero=True, win=0.25)
    first = agent.update(batch)["entropy"]
    for _ in range(99):
        last = agent.update(batch)["entropy"]
    assert last > first


def test_uniform_policy_entropy_value():
    agent = Agent(AgentConfig(history_len=4, num_levels=6), seed=9)
    out = agent.policy_head.layers[-1]
    out.weight[:] = 0.0
    out.bias[:] = 0.0
    rng = np.random.default_rng(8)
    obs = [normalize(physical_obs(rng, n=6), agent.config, SCALES) for _ in range(4)]
    inputs = agent.observation_rows(obs)
    values = agent.state_values(inputs)
    batch = UpdateBatch(inputs=inputs, actions=np.zeros(4, dtype=np.int64),
                        rewards=np.ones(4), q_targets=values, win_rate=0.5)
    report, _, _ = agent.gradients(batch)
    assert report["entropy"] == pytest.approx(math.log(6), abs=1e-5)


def test_policy_gradient_direction():
    agent = Agent(CFG, seed=10)
    rng = np.random.default_rng(9)
    obs = norm_obs(rng)
    inputs = agent.observation_rows([obs])
    action = 1
    batch = UpdateBatch(
        inputs=inputs, actions=np.array([action]), rewards=np.ones(1),
        q_targets=agent.state_values(inputs) + 1.0,  # A = +1
        win_rate=0.5,
    )
    log_before = float(np.log(agent.policy_probs(inputs)[0, action]))
    _, policy_grads, _ = agent.gradients(batch)
    agent.policy_opt.lr = 1e-6
    agent.policy_opt.step(policy_grads)
    log_after = float(np.log(agent.policy_probs(inputs)[0, action]))
    assert log_after > log_before


def test_update_skips_on_nonfinite_loss():
    agent = Agent(CFG, seed=11)
    batch = make_batch(agent, np.random.default_rng(10))
    batch.q_targets = batch.q_targets + np.float32("nan")
    before = snapshot(agent)
    report = agent.update(batch)
    assert math.isnan(report["value_loss"])
    for old, new in zip(before, agent.policy_opt.params):
        assert np.array_equal(old, new)


def test_dominant_win_rate_freezes_learning():
    agent = Agent(CFG, seed=12)
    batch = make_batch(agent, np.random.default_rng(11), win=1.0)
    before = snapshot(agent)
    report = agent.update(batch)
    assert report["policy_lr"] == 0.0
    for old, new in zip(before, agent.policy_opt.params):
        assert np.array_equal(old, new)


def test_reward_modes():
    agent_b = Agent(CFG, seed=0)
    assert np.all(agent_b.trajectory_rewards(1.0, 4) == 1.0)
    agent_t = Agent(AgentConfig(history_len=4, num_levels=3, reward_mode="terminal"), seed=0)
    rewards = agent_t.trajectory_rewards(1.0, 4)
    assert rewards.tolist() == [0.0, 0.0, 0.0, 1.0]


# ---- persistence -----------------------------------------------------------

def test_checkpoint_reproduces_decisions(tmp_path):
    agent = Agent(CFG, seed=13)
    batch = make_batch(agent, np.random.default_rng(12))
    agent.update(batch)  # move off the raw initialization
    path = tmp_path / "agent.ckpt"
    agent.rating.value = 1042.5
    agent.save(path)
    loaded = Agent.load(path)
    assert loaded.rating.value == 1042.5
    assert loaded.config == agent.config
    rng = np.random.default_rng(13)
    for _ in range(50):
        obs = norm_obs(rng)
        assert agent.act(obs, "greedy") == loaded.act(obs, "greedy")


# SHA-256 of the default agent's seed-0 checkpoint. It pins the parameter
# init order, the network names, the layer specs and the array order of
# checkpoint format version 1.
DEFAULT_AGENT_SHA256 = "a46a83408a6d54e41e9dcd6e6da845715a1dfc4e202a82a2cd644c1b3d1a5889"


def test_checkpoint_bytes_pinned(tmp_path):
    path = tmp_path / "agent.ckpt"
    Agent(AgentConfig(), seed=0).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_AGENT_SHA256


def test_checkpoint_rejects_wrong_kind(tmp_path):
    from abr_arena.neural import Sequential, Dense, save_bundle
    path = tmp_path / "other.ckpt"
    save_bundle(path, {"net": Sequential([Dense(2, 2)])}, extra={"kind": "something"})
    with pytest.raises(ValueError, match="not an agent checkpoint"):
        Agent.load(path)
