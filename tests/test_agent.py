import copy
import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from gradcheck import gradient_errors
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_session import as_batch
from reference_trunk import gathered_forward
from reference_update import reference_gradients

from abr_arena import neural
from abr_arena.agent import (
    CONV_FILTERS, CONV_KERNEL, Agent, AgentConfig, FeatureTrunk, UpdateBatch,
    _beside, dynamic_lr, normalize, sample_levels, td_targets,
)
from abr_arena.gem import HIDDEN_SIZE
from abr_arena.neural import Conv1D, Dense, Relu, Sequential
from abr_arena.selfplay import run_epoch
from abr_arena.simulator import (
    Observation, SessionConfig, SessionMetrics, Trajectory,
)
from abr_arena.workload import (
    SynthManifestConfig, SynthTraceConfig, synth_manifest, synth_trace,
)

CFG = AgentConfig(history_len=4, num_levels=3)
# Divisors: a 4300 kbps top rung, 64 s of video and a 25 s buffer.
VIDEO = synth_manifest(SynthManifestConfig(ladder_kbps=(750.0, 1850.0, 4300.0), num_chunks=16),
                       seed=0)
SESSION = SessionConfig(history_len=4)


def physical_obs(rng=None, k=4, n=3):
    if rng is None:
        return Observation(
            throughput_kbps=np.zeros(k), download_time_s=np.zeros(k),
            chosen_bitrate_kbps=np.zeros(k), remaining_play_s=0.0, buffer_s=0.0,
            next_sizes_bits=np.zeros(n),
        )
    return Observation(
        throughput_kbps=rng.uniform(0, 8000, k), download_time_s=rng.uniform(0, 12, k),
        chosen_bitrate_kbps=rng.uniform(0, 4300, k),
        remaining_play_s=float(rng.uniform(0, 64)), buffer_s=float(rng.uniform(0, 25)),
        next_sizes_bits=rng.uniform(1e5, 2e7, n),
    )


def state_values(agent, rows):
    """The value head's estimates for flat rows."""
    features, _ = agent.trunk.forward(rows)
    values, _ = agent.value_head.forward(features)
    return values[:, 0]


def norm_rows(rng, count=3, config=CFG):
    """Flat rows of random normalized observations with random GEM features."""
    rows = np.zeros((count, config.flat_dim), dtype=np.float32)
    for row in rows:
        obs = physical_obs(rng, config.history_len, config.num_levels)
        normalize(obs, config, VIDEO, SESSION, row)
        row[-HIDDEN_SIZE:] = rng.normal(size=HIDDEN_SIZE)
    return rows


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


# ---- TD targets ------------------------------------------------------------

def test_advantage_hand_example():
    # Q = r + gamma * V(s') = 1 + 0.6*0.5 = 1.3; A = 1.3 - 0.8 = 0.5.
    values = np.array([0.8, 0.5])
    q = td_targets(np.array([1.0, 1.0]), values, discount=0.6)
    assert q[0] == pytest.approx(1.3)
    assert q[0] - values[0] == pytest.approx(0.5)
    # Terminal step bootstraps V = 0.
    assert q[1] == pytest.approx(1.0)
    assert q[1] - values[1] == pytest.approx(1.0 - 0.5)


def test_advantage_terminal_and_fixed_point():
    # A lone terminal step bootstraps nothing: Q = r = 0, so A = -V(s).
    values = np.array([0.2])
    q = td_targets(np.array([0.0]), values, discount=0.6)
    assert q[0] - values[0] == pytest.approx(-0.2)
    zero = td_targets(np.zeros(5), np.zeros(5), discount=0.6)
    assert np.allclose(zero, 0.0)


def loop_td_targets(rewards, values, discount, td_steps):
    """Reference: one trajectory's n-step targets, one step at a time."""
    targets = np.zeros(len(rewards))
    for t in range(len(rewards)):
        q = 0.0
        for j in range(td_steps):
            if t + j >= len(rewards):
                break
            q += (discount ** j) * rewards[t + j]
        if t + td_steps < len(rewards):
            q += (discount ** td_steps) * values[t + td_steps]
        targets[t] = q
    return targets


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 12)),
    td_steps=st.integers(1, 15),
    discount=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_td_targets_rows_equal_per_session_loop(shape, td_steps, discount, seed):
    rng = np.random.default_rng(seed)
    rewards, values = rng.normal(size=shape), rng.normal(size=shape)
    expected = np.stack([loop_td_targets(r, v, discount, td_steps)
                         for r, v in zip(rewards, values)])
    assert np.array_equal(td_targets(rewards, values, discount, td_steps), expected)


def test_td_targets_n_step():
    rewards = np.array([1.0, 1.0, 1.0])
    values = np.array([0.3, 0.2, 0.1])
    q2 = td_targets(rewards, values, discount=0.5, td_steps=2)
    assert q2[0] == pytest.approx(1.0 + 0.5 * 1.0 + 0.25 * 0.1)
    assert q2[1] == pytest.approx(1.0 + 0.5 * 1.0)  # horizon truncates
    assert q2[2] == pytest.approx(1.0)


# ---- normalization ---------------------------------------------------------

def test_normalize_values():
    obs = Observation(
        throughput_kbps=np.array([5000.0, 0.0, 0.0, 0.0]),
        download_time_s=np.array([5.0, 0.0, 0.0, 0.0]),
        chosen_bitrate_kbps=np.array([4300.0, 0.0, 0.0, 0.0]),
        remaining_play_s=32.0,
        buffer_s=25.0,
        next_sizes_bits=np.array([4e6, 8e6, 1.6e7]),
    )
    row = np.full(CFG.flat_dim, 2.0, dtype=np.float32)
    assert normalize(obs, CFG, VIDEO, SESSION, row) is row
    assert row[0] == pytest.approx(0.5)  # throughput
    assert row[4] == pytest.approx(0.5)  # download time
    assert row[8] == pytest.approx(1.0)  # bitrate
    assert row[12] == pytest.approx(0.5)  # remaining play time
    assert row[13] == pytest.approx(1.0)  # buffer
    assert row[14] == pytest.approx(0.5)  # next sizes
    assert np.all(row[-HIDDEN_SIZE:] == 2.0)  # the GEM columns are left as they are


def test_normalize_zero_is_zero():
    row = np.ones(CFG.flat_dim, dtype=np.float32)
    normalize(physical_obs(), CFG, VIDEO, SESSION, row)
    assert np.all(row[:-HIDDEN_SIZE] == 0.0)


def test_flatten_layout():
    rng = np.random.default_rng(0)
    observations = [physical_obs(rng) for _ in range(3)]
    flat = Agent(CFG, seed=0).flatten_trajectory(as_batch(observations), VIDEO, SESSION)
    assert flat.shape == (3, CFG.flat_dim)
    assert flat.dtype == np.float32
    # Columns: the three histories, the two scalars, the next sizes, the GEM feature.
    k, n = CFG.history_len, CFG.num_levels
    obs = observations[1]
    expected = np.concatenate([
        obs.throughput_kbps / CFG.throughput_scale_kbps, obs.download_time_s / CFG.time_scale_s,
        obs.chosen_bitrate_kbps / 4300.0, [obs.remaining_play_s / 64.0, obs.buffer_s / 25.0],
        obs.next_sizes_bits / CFG.size_scale_bits, np.zeros(HIDDEN_SIZE),
    ]).astype(np.float32)
    assert expected.shape == (3 * k + 2 + n + HIDDEN_SIZE,)
    assert np.array_equal(flat[1], expected)


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
    assert agent.act(norm_rows(np.random.default_rng(1))).tolist() == [0, 0, 0]


def test_act_dominant_logit_wins_in_both_modes():
    agent = Agent(CFG, seed=0)
    out = agent.policy_head.layers[-1]
    out.weight[:] = 0.0
    out.bias[:] = np.array([0.0, 50.0, 0.0], dtype=np.float32)
    rows = norm_rows(np.random.default_rng(2))
    assert agent.act(rows).tolist() == [1, 1, 1]
    rngs = [np.random.default_rng(3 + i) for i in range(len(rows))]
    assert agent.act(rows, rngs).tolist() == [1, 1, 1]


def test_act_sample_deterministic_given_seed():
    agent = Agent(CFG, seed=1)
    rows = norm_rows(np.random.default_rng(4))
    first = agent.act(rows, [np.random.default_rng(99 + i) for i in range(3)])
    second = agent.act(rows, [np.random.default_rng(99 + i) for i in range(3)])
    assert np.array_equal(first, second)
    # Row i draws with rngs[i] exactly as a one-row call with that generator does.
    for i in range(3):
        alone = agent.act(rows[i:i + 1], [np.random.default_rng(99 + i)])
        assert alone[0] == first[i]
    with pytest.raises(ValueError):
        agent.act(rows, [np.random.default_rng(0)])  # one generator per row


@pytest.mark.parametrize("config", [CFG, AgentConfig()], ids=["toy", "default"])
def test_greedy_act_is_the_argmax_of_the_probabilities(config):
    for seed in range(4):
        agent = Agent(config, seed=seed)
        rows = norm_rows(np.random.default_rng(40 + seed), 64, config)
        probs = agent.policy_probs(rows)
        top_two = np.sort(probs, axis=1)[:, -2:]
        distinct = top_two[:, 0] < top_two[:, 1]
        assert distinct.sum() > 60
        assert np.array_equal(agent.act(rows)[distinct], probs.argmax(axis=1)[distinct])


@pytest.mark.parametrize("column", [0, -1])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_greedy_act_raises_on_non_finite_rows(column, value):
    agent = Agent(CFG, seed=2)
    rows = norm_rows(np.random.default_rng(44))
    rows[1, column] = value
    with pytest.raises(FloatingPointError):
        agent.act(rows)


def random_probability_rows(rng, count, levels):
    """Rows of mixed shape: dense, one-hot, spiky, float32-rounded, and with
    entries near 1e-12, each summing to 1 within rounding."""
    rows = rng.dirichlet(np.full(levels, rng.choice([0.05, 1.0, 20.0])), size=count)
    kind = rng.integers(4, size=count)
    rows[kind == 1] = np.eye(levels)[rng.integers(levels, size=np.sum(kind == 1))]
    tiny = rng.random((count, levels)) < 0.5
    rows[kind == 2] = np.where(tiny, 1e-12 * rng.random((count, levels)), rows)[kind == 2]
    rows[kind == 3] = rows[kind == 3].astype(np.float32)
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("levels", [1, 2, 3, 6, 9])
def test_sample_levels_equals_generator_choice(levels):
    rng = np.random.default_rng(levels)
    count = 800
    seeds = rng.integers(2**32, size=count)
    twins = [np.random.default_rng(s) for s in seeds]
    mine = [np.random.default_rng(s) for s in seeds]
    for _ in range(3):  # several draws per generator
        rows = random_probability_rows(rng, count, levels)
        want = [twin.choice(levels, p=row) for twin, row in zip(twins, rows)]
        got = sample_levels(rows, mine)
        assert got.tolist() == want
    assert all(a.bit_generator.state == b.bit_generator.state for a, b in zip(mine, twins))


def test_sample_levels_keeps_choice_input_checks():
    good = np.array([[0.25, 0.25, 0.5]])
    for bad in ([np.nan, 0.5, 0.5], [-0.1, 0.6, 0.5], [0.2, 0.2, 0.5], [np.inf, 0.0, 0.0]):
        bad = np.array([bad])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, p=bad[0])
        with pytest.raises(ValueError):
            sample_levels(np.concatenate([good, bad]), [np.random.default_rng(1), rng])
        assert rng.bit_generator.state == state  # no draw before the checks pass


def test_act_shape_mismatch_rejected():
    agent = Agent(CFG, seed=0)
    bad = norm_rows(np.random.default_rng(0), 1, AgentConfig(history_len=6, num_levels=3))
    with pytest.raises(ValueError):
        agent.act(bad)


def test_policy_probs_sum_to_one():
    agent = Agent(CFG, seed=3)
    inputs = norm_rows(np.random.default_rng(5), 16)
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
    rows = norm_rows(rng, batch)
    features, cache = agent.trunk.forward(rows)
    # One (d_h, W) pair per head: a first-layer output gradient and weight.
    heads = [(rng.normal(size=(batch, units)).astype(np.float32),
              rng.normal(size=(features.shape[1], units)).astype(np.float32))
             for units in (5, 2)]
    # The reference layers write filter-major features: position-major
    # column c is their column trunk.order[c].
    order = agent.trunk.order
    for d_h, weight in heads:
        grads = agent.trunk.backward(cache, d_h, weight)
        d_features = np.empty_like(features)
        d_features[:, order] = d_h @ weight.T
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
        assert_close(features, np.concatenate(ref_features, axis=1)[:, order])
        assert len(grads) == len(ref_grads) == len(agent.trunk.params())
        for grad, ref, param in zip(grads, ref_grads, agent.trunk.params()):
            assert grad.shape == param.shape
            assert_close(grad, ref)


def bits(features):
    return features.view(np.int32)


@given(batch=st.sampled_from([1, 4, 16, 768]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_banded_trunk_equals_gathered_windows_bit_for_bit(batch, seed):
    """The band matrices' zero entries add exact zeros in tap order, so the
    banded features are the gathered-window features bit for bit, on rows
    mixing signed zeros, subnormal, ordinary and large-magnitude entries."""
    rng = np.random.default_rng(seed)
    agent = Agent(AgentConfig(), seed=int(rng.integers(1000)))
    trunk = agent.trunk
    for bias in trunk.params()[1::2]:  # drawn, not the initial zeros
        bias[...] = rng.normal(scale=0.1, size=bias.shape)
    shape = (batch, trunk.flat_dim)
    magnitude = rng.choice([0.0, 1e-41, 1e-3, 1.0, 1e34], size=shape)
    rows = (rng.normal(size=shape) * magnitude).astype(np.float32)
    features, _ = trunk.forward(rows)
    assert np.array_equal(bits(features), bits(gathered_forward(trunk, rows)))
    assert np.array_equal(bits(trunk.forward(rows, trunk.bands())[0]), bits(features))


@pytest.mark.parametrize("batch", [1, 768])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_trunk_rejects_non_finite_in_any_segment(batch, value):
    config = AgentConfig()
    k, n = config.history_len, config.num_levels
    agent = Agent(config, seed=24)
    rows = norm_rows(np.random.default_rng(25), batch, config)
    agent.trunk.forward(rows)
    # One column inside each segment: throughput, download, bitrate, the two
    # scalars, next sizes, hidden.
    for column in (k // 2, k + k // 2, 2 * k + k // 2, 3 * k, 3 * k + 1, 3 * k + 2 + n // 2,
                   config.flat_dim - 1):
        bad = rows.copy()
        bad[batch // 2, column] = value
        with pytest.raises(FloatingPointError):
            agent.trunk.forward(bad)


def test_trunk_rows_do_not_depend_on_the_batch():
    agent = Agent(AgentConfig(), seed=26)
    rows = norm_rows(np.random.default_rng(27), 768, agent.config)
    features, _ = agent.trunk.forward(rows)
    for i in range(len(rows)):
        assert np.array_equal(bits(features[i:i + 1]), bits(agent.trunk.forward(rows[i:i + 1])[0]))


def float64_twin(agent):
    """A deep copy of ``agent`` with every trunk and head array widened to
    float64."""
    twin = copy.deepcopy(agent)
    for layer in (*twin.trunk.convs.values(), twin.trunk.scalars,
                  *twin.policy_head.layers, *twin.value_head.layers):
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
    q = batch.rewards[:, 0]  # one-step sessions: the TD target is the reward
    # The policy objective treats the advantage as a constant coefficient.
    values = state_values(agent, batch.inputs).astype(np.float64)
    adv = (q - values).astype(np.float32).astype(np.float64)
    picked = (np.arange(len(rows)), batch.actions)

    def policy_loss():
        probs = twin.policy_probs(rows)
        log_probs = np.log(np.maximum(probs, 1e-12))
        entropy = -(probs * log_probs).sum(axis=1)
        return float(-np.mean(adv * log_probs[picked] + CFG.entropy_weight * entropy))

    def value_loss():
        return float(np.mean((q - state_values(twin, rows)) ** 2))

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


def update_batch(agent, rng, sessions, chunks, win=0.25):
    """An epoch batch of ``sessions`` random sessions of ``chunks`` steps."""
    config = agent.config
    rows = norm_rows(rng, sessions * chunks, config).reshape(sessions, chunks, -1)
    trajectories = [played(rng.integers(0, config.num_levels, chunks)) for _ in range(sessions)]
    return agent.build_update_batch(rows, trajectories, rng.choice([0.0, 1.0], sessions), win)


@pytest.mark.parametrize("td_steps", [1, 3])
@pytest.mark.parametrize("reward_mode", ["broadcast", "terminal"])
# (7, 29) is 203 rows: several trunk backward row blocks, the last one partial.
@pytest.mark.parametrize("sessions,chunks", [(1, 1), (3, 3), (7, 29), (16, 48)])
def test_gradients_match_head_by_head_reference(sessions, chunks, reward_mode, td_steps):
    agent = Agent(AgentConfig(reward_mode=reward_mode, td_steps=td_steps), seed=21)
    batch = update_batch(agent, np.random.default_rng(sessions), sessions, chunks)
    report, policy_grads, value_grads = agent.gradients(batch)
    ref_report, ref_policy, ref_value = reference_gradients(agent, batch)
    assert report == ref_report
    for grads, ref, params in ((policy_grads, ref_policy, agent.policy_opt.params),
                               (value_grads, ref_value, agent.value_opt.params)):
        assert len(grads) == len(ref) == len(params)
        for grad, want, param in zip(grads, ref, params):
            assert grad.shape == param.shape and grad.dtype == param.dtype
            assert_close(grad, want)


def test_update_peak_memory_below_feature_multiple():
    """No (batch, trunk.dim) feature gradient is built and the trunk
    backward's temporaries are row blocks: one update on a 768-row batch peaks
    under 1.9 feature arrays of traced allocation."""
    agent = Agent(AgentConfig(), seed=22)
    batch = update_batch(agent, np.random.default_rng(23), 16, 48)
    feature_bytes = 768 * agent.trunk.dim * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        agent.update(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert agent.policy_opt.t == 1
    assert peak <= 1.9 * feature_bytes


def test_trunk_forward_peak_memory_below_feature_multiple():
    """The forward writes each branch into its slab and checks finiteness
    without a full-size temporary: a 768-row forward peaks under 1.4 feature
    arrays of traced allocation."""
    agent = Agent(AgentConfig(), seed=22)
    rows = norm_rows(np.random.default_rng(23), 768, agent.config)
    feature_bytes = 768 * agent.trunk.dim * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        features, _ = agent.trunk.forward(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert features.shape == (768, agent.trunk.dim)
    assert peak <= 1.4 * feature_bytes


# ---- updates ---------------------------------------------------------------

def make_batch(agent, rng, size=12, win=0.25, adv_zero=False):
    """A batch of one-step sessions, so each TD target is the step's reward."""
    inputs = norm_rows(rng, size)
    values = state_values(agent, inputs)
    if adv_zero:
        q = values.copy()
    else:
        q = values + rng.normal(0, 0.5, size).astype(np.float32)
    return UpdateBatch(
        inputs=inputs,
        actions=rng.integers(0, agent.config.num_levels, size),
        rewards=q.astype(np.float64)[:, None],
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
    inputs = norm_rows(np.random.default_rng(8), 4, agent.config)
    values = state_values(agent, inputs)
    batch = UpdateBatch(inputs=inputs, actions=np.zeros(4, dtype=np.int64),
                        rewards=values.astype(np.float64)[:, None], win_rate=0.5)
    report, _, _ = agent.gradients(batch)
    assert report["entropy"] == pytest.approx(math.log(6), abs=1e-5)


def test_policy_gradient_direction():
    agent = Agent(CFG, seed=10)
    inputs = norm_rows(np.random.default_rng(9), 1)
    action = 1
    batch = UpdateBatch(
        inputs=inputs, actions=np.array([action]),
        rewards=(state_values(agent, inputs) + 1.0).astype(np.float64)[:, None],  # A = +1
        win_rate=0.5,
    )
    log_before = float(np.log(agent.policy_probs(inputs)[0, action]))
    _, policy_grads, _ = agent.gradients(batch)
    agent.policy_opt.lr = 1e-6
    agent.policy_opt.step(policy_grads)
    log_after = float(np.log(agent.policy_probs(inputs)[0, action]))
    assert log_after > log_before


@pytest.mark.parametrize("seed", range(3))
def test_updates_learn_a_contextual_bandit(seed):
    """The one-step case of learning from outcomes: each of 64 fixed rows is
    a one-step session that pays 1 for the level the untrained greedy agent
    plays on the fewest rows and 0 for the others. Sampled play and updates
    make that level the greedy choice on every row, seen or fresh."""
    agent = Agent(AgentConfig(policy_lr=1e-2, value_lr=1e-2), seed=seed)
    rng = np.random.default_rng([31, seed])
    rows, fresh = (norm_rows(rng, 64, agent.config) for _ in range(2))
    rows[:, -HIDDEN_SIZE:] = fresh[:, -HIDDEN_SIZE:] = 0.0
    target = np.bincount(agent.act(rows), minlength=agent.config.num_levels).argmin()
    rngs = [np.random.default_rng([seed, i]) for i in range(len(rows))]
    for _ in range(50):
        actions = agent.act(rows, rngs)
        rewards = (actions == target).astype(np.float64)[:, None]
        agent.update(UpdateBatch(rows, actions, rewards, win_rate=0.0))
    assert np.all(agent.act(rows) == target)
    assert np.all(agent.act(fresh) == target)


def test_update_skips_on_nonfinite_loss():
    agent = Agent(CFG, seed=11)
    batch = make_batch(agent, np.random.default_rng(10))
    batch.rewards = batch.rewards + np.nan
    report, policy_grads, value_grads = agent.gradients(batch)
    assert math.isnan(report["value_loss"])
    assert policy_grads is None and value_grads is None
    params = agent.policy_opt.params + agent.value_opt.params
    before = [p.copy() for p in params]
    report = agent.update(batch)
    assert math.isnan(report["value_loss"])
    assert agent.policy_opt.t == agent.value_opt.t == 0
    for old, new in zip(before, params):
        assert np.array_equal(old, new)


class TrunkFault(Exception):
    pass


@pytest.mark.parametrize("head", ["policy_head", "value_head"])
def test_update_raises_trunk_backward_fault_and_writes_nothing(monkeypatch, head):
    """A trunk backward that raises for the value head, on the worker thread,
    or for the policy head, on the calling one, reaches the caller of update
    with no parameter, moment or step count written; the next update then
    equals an untouched twin's."""
    agent = Agent(AgentConfig(), seed=27)
    # (7, 29) is 203 rows: several trunk backward row blocks.
    batch = update_batch(agent, np.random.default_rng(28), 7, 29)
    twin = copy.deepcopy(agent)
    failing, backward = getattr(agent, head).layers[0].weight, FeatureTrunk.backward

    def faulty(self, cache, d_h, weight, work=None):
        if weight is failing:
            raise TrunkFault(head)
        return backward(self, cache, d_h, weight, work)

    opts = (agent.policy_opt, agent.value_opt)
    state = [a.copy() for opt in opts for a in opt.params + opt.m + opt.v]
    with monkeypatch.context() as patch:
        patch.setattr(FeatureTrunk, "backward", faulty)
        with pytest.raises(TrunkFault, match=head):
            agent.update(batch)
    assert agent.policy_opt.t == agent.value_opt.t == 0
    for old, new in zip(state, (a for opt in opts for a in opt.params + opt.m + opt.v)):
        assert np.array_equal(old, new)
    assert agent.update(batch) == twin.update(batch)
    twin_arrays = twin.arrays()
    for name, array in agent.arrays().items():
        assert np.array_equal(array, twin_arrays[name]), name


def test_repeated_gradients_are_bitwise_equal():
    """The worker thread and the caller share no buffer they write: 20
    gradient calls on a multi-block batch, with thread switches forced often,
    give the same losses and gradients bit for bit."""
    agent = Agent(AgentConfig(), seed=29)
    batch = update_batch(agent, np.random.default_rng(30), 7, 29)
    report, *want = agent.gradients(batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [agent.gradients(batch) for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    for got_report, *got in runs:
        assert got_report == report
        for got_grads, want_grads in zip(got, want):
            assert len(got_grads) == len(want_grads)
            for g, w in zip(got_grads, want_grads):
                assert np.array_equal(g, w)


class WorkerFault(Exception):
    pass


def test_beside_returns_both_results_and_reraises_the_workers_exception():
    assert _beside(lambda: "here", lambda: "there") == ("here", "there")

    def there():
        raise WorkerFault("there")

    with pytest.raises(WorkerFault, match="there"):
        _beside(lambda: "here", there)


def test_beside_raises_the_callers_exception_after_the_worker_finishes():
    """With both sides raising, the caller's exception propagates, and only
    once the worker's callable has returned."""
    released, finished = threading.Event(), threading.Event()

    def there():
        assert released.wait(10)
        time.sleep(0.05)  # still running when ``here`` has raised
        finished.set()
        raise WorkerFault("there")

    def here():
        released.set()
        raise TrunkFault("here")

    with pytest.raises(TrunkFault, match="here"):
        _beside(here, there)
    assert finished.is_set()


@pytest.mark.parametrize("head", ["policy_head", "value_head"])
@pytest.mark.parametrize("layer", [0, -1])
def test_gradients_raise_on_nonfinite_head_output(head, layer):
    agent = Agent(CFG, seed=11)
    batch = make_batch(agent, np.random.default_rng(10))
    getattr(agent, head).layers[layer].bias[0] = np.nan
    with pytest.raises(FloatingPointError):
        agent.gradients(batch)


def test_dominant_win_rate_freezes_learning():
    agent = Agent(CFG, seed=12)
    batch = make_batch(agent, np.random.default_rng(11), win=1.0)
    before = snapshot(agent)
    report = agent.update(batch)
    assert report["policy_lr"] == 0.0
    for old, new in zip(before, agent.policy_opt.params):
        assert np.array_equal(old, new)


def played(actions):
    """A trajectory of the given actions."""
    return Trajectory(levels=tuple(map(int, actions)), metrics=SessionMetrics(0.0, 0.0, 0.0))


def session_block(rng, sessions, chunks):
    """A (sessions, chunks, flat_dim) block of flat rows."""
    return norm_rows(rng, sessions * chunks).reshape(sessions, chunks, CFG.flat_dim)


def test_reward_modes():
    rng = np.random.default_rng(17)
    rows = session_block(rng, 2, 3)
    trajectories = [played([0, 1, 2]), played([2, 2, 1])]
    batch_b = Agent(CFG, seed=0).build_update_batch(rows, trajectories, [1.0, -1.0], 0.5)
    assert batch_b.rewards.tolist() == [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]
    agent_t = Agent(AgentConfig(history_len=4, num_levels=3, reward_mode="terminal"), seed=0)
    batch_t = agent_t.build_update_batch(rows, trajectories, [1.0, -1.0], 0.5)
    assert batch_t.rewards.tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    assert batch_t.actions.tolist() == [0, 1, 2, 2, 2, 1]
    assert np.array_equal(batch_t.inputs, np.concatenate(list(rows)))


def test_build_update_batch_runs_no_forward(monkeypatch):
    agent = Agent(CFG, seed=0)
    rows = session_block(np.random.default_rng(18), 1, 3)

    def forward(self, rows):
        raise AssertionError("build_update_batch ran a network forward")

    monkeypatch.setattr(FeatureTrunk, "forward", forward)
    batch = agent.build_update_batch(rows, [played([0, 1, 2])], [1.0], 1.0)
    assert batch.inputs.shape == (3, CFG.flat_dim)


@pytest.mark.parametrize("td_steps", [1, 3])
def test_gradients_bootstrap_from_their_own_values(td_steps):
    config = AgentConfig(history_len=4, num_levels=3, td_steps=td_steps, discount=0.9)
    agent = Agent(config, seed=19)
    rng = np.random.default_rng(20)
    rows = session_block(rng, 3, 5)
    trajectories = [played(rng.integers(0, 3, 5)) for _ in range(3)]
    batch = agent.build_update_batch(rows, trajectories, [1.0, -1.0, 0.0], 0.25)
    values = state_values(agent, batch.inputs).astype(np.float64)
    q = td_targets(batch.rewards, values.reshape(3, 5), 0.9, td_steps).ravel()
    adv = (q - values).astype(np.float32).astype(np.float64)
    report, _, _ = agent.gradients(batch)
    assert report["value_loss"] == float(np.mean(adv ** 2))
    # Parameters written after the batch was built are the ones bootstrapped from.
    agent.value_head.layers[-1].bias[:] += 0.5
    shifted = state_values(agent, batch.inputs).astype(np.float64)
    q = td_targets(batch.rewards, shifted.reshape(3, 5), 0.9, td_steps).ravel()
    adv = (q - shifted).astype(np.float32).astype(np.float64)
    assert agent.gradients(batch)[0]["value_loss"] == float(np.mean(adv ** 2))


# ---- persistence -----------------------------------------------------------

TOY_CFG = AgentConfig(history_len=4, num_levels=6)


def test_checkpoint_reproduces_decisions(tmp_path):
    agents = (Agent(TOY_CFG, seed=13), Agent(TOY_CFG, seed=14))
    manifest = synth_manifest(SynthManifestConfig(num_chunks=4), seed=0)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(4)]
    run_epoch(*agents, [(trace, manifest) for trace in traces],
              SessionConfig(buffer_capacity_s=25.0, history_len=4), seed=3)
    fresh = Agent(TOY_CFG, seed=13).arrays()
    # One self-play epoch: Adam has moved the weights, and a GEM update has
    # moved its generator's batch-norm running statistics off their initial values.
    assert not np.array_equal(agents[0].arrays()["policy_head.2.weight"],
                              fresh["policy_head.2.weight"])
    assert any(np.any(agent.arrays()["gem_generator.1.running_mean"] != 0) for agent in agents)
    rows = norm_rows(np.random.default_rng(13), 50, TOY_CFG)
    for i, agent in enumerate(agents):
        agent.rating.value = 1042.5 + i
        path = tmp_path / f"agent{i}.ckpt"
        agent.save(path)
        loaded = Agent.load(path)
        assert loaded.rating.value == 1042.5 + i
        assert loaded.config == agent.config
        saved, restored = agent.arrays(), loaded.arrays()
        assert list(restored) == list(saved)
        for name, array in saved.items():
            assert restored[name].dtype == array.dtype
            assert restored[name].tobytes() == array.tobytes(), name
        assert np.array_equal(agent.act(rows), loaded.act(rows))
        assert np.array_equal(agent.gem.hidden_for(rows, agent.gem.inference()),
                              loaded.gem.hidden_for(rows, loaded.gem.inference()))


def trained_agent():
    """A toy agent after one self-play epoch, so no array is at its initial
    value pattern (zero biases, zero batch-norm means)."""
    agents = (Agent(TOY_CFG, seed=13), Agent(TOY_CFG, seed=14))
    manifest = synth_manifest(SynthManifestConfig(num_chunks=4), seed=0)
    traces = [synth_trace(SynthTraceConfig(duration_s=60.0), seed=s) for s in range(4)]
    run_epoch(*agents, [(trace, manifest) for trace in traces],
              SessionConfig(buffer_capacity_s=25.0, history_len=4), seed=3)
    return agents[0]


def test_save_load_save_is_byte_identical(tmp_path):
    agent = trained_agent()
    agent.save(tmp_path / "first.ckpt")
    Agent.load(tmp_path / "first.ckpt").save(tmp_path / "second.ckpt")
    assert (tmp_path / "first.ckpt").read_bytes() == (tmp_path / "second.ckpt").read_bytes()


def test_load_draws_no_random_init(tmp_path, monkeypatch):
    agent = trained_agent()
    path = tmp_path / "agent.ckpt"
    agent.save(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load drew a random initialisation")

    monkeypatch.setattr(neural, "_uniform_init", no_draws)
    loaded = Agent.load(path)
    rows = norm_rows(np.random.default_rng(28), 50, TOY_CFG)
    assert np.array_equal(agent.act(rows), loaded.act(rows))
    assert np.array_equal(agent.policy_probs(rows), loaded.policy_probs(rows))
    assert np.array_equal(agent.gem.hidden_for(rows, agent.gem.inference()),
                          loaded.gem.hidden_for(rows, loaded.gem.inference()))
    with pytest.raises(AssertionError, match="random initialisation"):
        Agent(TOY_CFG)


@pytest.mark.parametrize("name,value,words", [
    ("policy_head.0.weight", np.nan, "non-finite"),
    ("trunk.throughput.bias", np.inf, "non-finite"),
    ("gem_generator.1.running_var", -1.0, "negative"),
    ("gem_discriminator.4.running_mean", -np.inf, "non-finite"),
])
def test_load_rejects_non_finite_arrays_and_negative_variances(tmp_path, name, value, words):
    agent = Agent(CFG, seed=12)
    agent.arrays()[name].flat[3] = value
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    with pytest.raises(ValueError) as raised:
        Agent.load(path)
    assert all(word in str(raised.value) for word in (str(path), name, words))


def test_failed_save_keeps_existing_checkpoint(tmp_path):
    agent = Agent(CFG, seed=12)
    path = tmp_path / "agent.ckpt"
    agent.save(path)
    before = path.read_bytes()
    # The last array cannot be stored without pickling, so the write fails
    # after the meta entry and the earlier arrays.
    agent.gem.disc.layers[-1].bias = np.array(["not a number"], dtype=object)
    rows = norm_rows(np.random.default_rng(29), 8)
    probs = agent.policy_probs(rows)
    with pytest.raises(ValueError):
        agent.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["agent.ckpt"]
    # The heads' rows, permuted for the write, are back in the trunk's order.
    assert np.array_equal(agent.policy_probs(rows), probs)


# SHA-256 of the default agent's seed-0 checkpoint, written with numpy 2.4.6.
# It pins the parameter init order, the array names and the .npz layout
# (member order, headers and meta entry).
DEFAULT_AGENT_SHA256 = "9c408c187f8b48a00f12d7044b2c1fe098f2fef904243ba5861a6fcfb179056c"


def test_checkpoint_bytes_pinned(tmp_path):
    path = tmp_path / "agent.ckpt"
    Agent(AgentConfig(), seed=0).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_AGENT_SHA256


def test_checkpoint_rejects_wrong_kind(tmp_path):
    path = tmp_path / "other.ckpt"
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps({"kind": "something"})), **Agent(CFG).arrays())
    with pytest.raises(ValueError, match="not an agent checkpoint"):
        Agent.load(path)
