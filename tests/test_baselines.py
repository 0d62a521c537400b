import numpy as np
import pytest
import reference_baselines as reference

from abr_arena.baselines import (
    SWITCH_BUFFER_S, BolaParams, bola, constrained, dynamic_dash, make_policy, throughput_rule,
)
from abr_arena.simulator import Observation, SessionConfig
from abr_arena.workload import SynthManifestConfig, synth_manifest

LADDER = (300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0)


def obs_with(tput=None, buffer_s=0.0, sizes=None, k=10):
    """A one-row observation batch."""
    return Observation(
        throughput_kbps=np.asarray([tput if tput is not None else np.zeros(k)], dtype=np.float64),
        download_time_s=np.zeros((1, k)),
        chosen_bitrate_kbps=np.zeros((1, k)),
        remaining_play_s=np.array([64.0]),
        buffer_s=np.array([buffer_s], dtype=np.float64),
        next_sizes_bits=np.asarray(
            [sizes if sizes is not None else np.asarray(LADDER) * 4000.0], dtype=np.float64),
    )


def decide(policy, obs, *args) -> int:
    """The one level a policy picks for a one-row batch."""
    [level] = policy(obs, *args).tolist()
    return level


def test_constrained_midpoints():
    assert decide(constrained, obs_with(), LADDER) == 2          # n=6 -> lower middle
    assert decide(constrained, obs_with(), LADDER[:5]) == 2      # n=5 -> exact middle
    assert decide(constrained, obs_with(), LADDER[:1]) == 0      # only option


def test_throughput_rule_harmonic_mean():
    history = [0.0] * 5 + [1000.0, 2000.0, 1000.0, 2000.0, 1000.0]
    # Harmonic mean of the last five samples is 1250 -> level 2 (1200 kbps).
    assert decide(throughput_rule, obs_with(tput=history), LADDER) == 2


def test_throughput_rule_cold_start_and_clamp():
    assert decide(throughput_rule, obs_with(), LADDER) == 0
    sky_high = [1e9] * 10
    assert decide(throughput_rule, obs_with(tput=sky_high), LADDER) == len(LADDER) - 1
    below_ladder = [100.0] * 10
    assert decide(throughput_rule, obs_with(tput=below_ladder), LADDER) == 0


def test_throughput_rule_uses_nonzero_recent_five():
    history = [4000.0, 4000.0, 4000.0, 4000.0, 4000.0, 300.0, 0.0, 0.0, 0.0, 0.0]
    # Zeros are skipped; the window is [300, 4000 x 4], harmonic mean ~1119.
    assert decide(throughput_rule, obs_with(tput=history), LADDER) == 1


def test_throughput_rule_monotone():
    rng = np.random.default_rng(0)
    for _ in range(300):
        base = rng.uniform(100.0, 5000.0, size=10)
        raised = base * rng.uniform(1.0, 3.0)
        low = decide(throughput_rule, obs_with(tput=base), LADDER)
        high = decide(throughput_rule, obs_with(tput=raised), LADDER)
        assert high >= low


def bola_params(capacity=25.0, chunk=4.0):
    return BolaParams.derive(LADDER, capacity, chunk)


def test_bola_empty_buffer_picks_lowest():
    assert decide(bola, obs_with(buffer_s=0.0), LADDER, bola_params()) == 0


def test_bola_full_buffer_picks_top_region():
    level = decide(bola, obs_with(buffer_s=25.0), LADDER, bola_params())
    assert level == len(LADDER) - 1


def test_bola_monotone_in_buffer():
    params = bola_params()
    levels = [decide(bola, obs_with(buffer_s=b), LADDER, params) for b in np.linspace(0, 25, 26)]
    assert all(b <= a for a, b in zip(levels[1:], levels))
    assert decide(bola, obs_with(buffer_s=0.0, sizes=[1.2e6]), (300.0,), params) == 0


def test_dynamic_dash_switches():
    params = bola_params()
    history = [2000.0] * 10
    low_buffer = obs_with(tput=history, buffer_s=2.0)
    assert (decide(dynamic_dash, low_buffer, LADDER, params)
            == decide(throughput_rule, low_buffer, LADDER))
    high_buffer = obs_with(tput=history, buffer_s=20.0)
    assert (decide(dynamic_dash, high_buffer, LADDER, params)
            == decide(bola, high_buffer, LADDER, params))
    boundary = obs_with(tput=history, buffer_s=SWITCH_BUFFER_S)
    assert (decide(dynamic_dash, boundary, LADDER, params)
            == decide(bola, boundary, LADDER, params))


def test_policies_total_and_in_range():
    rng = np.random.default_rng(7)
    params = bola_params()
    for _ in range(500):
        obs = obs_with(
            tput=rng.uniform(0, 6000, size=10),
            buffer_s=float(rng.uniform(0, 25)),
            sizes=rng.uniform(1e5, 2e7, size=len(LADDER)),
        )
        for level in (
            decide(constrained, obs, LADDER),
            decide(throughput_rule, obs, LADDER),
            decide(bola, obs, LADDER, params),
            decide(dynamic_dash, obs, LADDER, params),
        ):
            assert 0 <= level < len(LADDER)


def test_make_policy_names():
    manifest = synth_manifest(SynthManifestConfig(), seed=0)
    cfg = SessionConfig()
    for name in ("constrained", "throughput", "bola", "dynamic"):
        policy = make_policy(name, manifest, cfg)
        assert 0 <= decide(policy, obs_with()) < manifest.num_levels
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("mpc", manifest, cfg)


def random_policy_batch(rng, rows, history_len, ladder):
    """A batch over the corners the policies branch on: zero-padded history
    prefixes (early chunk indices), zeros inside the window, fewer than 5
    nonzero samples, samples equal to a ladder rung, buffers exactly at the
    switch level, and random chunk sizes."""
    tput = rng.uniform(50.0, 6000.0, size=(rows, history_len))
    equal_rung = rng.random(rows) < 0.2
    tput[equal_rung] = rng.choice(ladder, size=(int(equal_rung.sum()), 1))
    tput[np.arange(history_len) < rng.integers(0, history_len + 1, size=(rows, 1))] = 0.0
    tput[rng.random((rows, history_len)) < rng.uniform(0.0, 0.6)] = 0.0
    buffer_s = rng.uniform(0.0, 25.0, size=rows)
    buffer_s[rng.random(rows) < 0.2] = SWITCH_BUFFER_S
    buffer_s[rng.random(rows) < 0.1] = 0.0
    return Observation(
        throughput_kbps=tput,
        download_time_s=rng.uniform(0.0, 12.0, size=(rows, history_len)),
        chosen_bitrate_kbps=rng.choice(ladder, size=(rows, history_len)),
        remaining_play_s=rng.uniform(0.0, 200.0, size=rows),
        buffer_s=buffer_s,
        next_sizes_bits=rng.uniform(1e5, 2e7, size=(rows, len(ladder))),
    )


@pytest.mark.parametrize("seed", range(4))
def test_batched_policies_equal_scalar_reference(seed):
    """Each batched policy picks, row for row, exactly the level the scalar
    reference picks for that row's observation alone."""
    rng = np.random.default_rng(500 + seed)
    for _ in range(750):
        ladder = tuple(np.sort(rng.uniform(100.0, 5000.0, size=int(rng.integers(1, 8)))))
        obs = random_policy_batch(rng, int(rng.integers(1, 65)), int(rng.integers(1, 12)), ladder)
        capacity_s, chunk_s = float(rng.uniform(8.0, 40.0)), float(rng.uniform(1.0, 6.0))
        cases = [(constrained, reference.constrained, (ladder,)),
                 (throughput_rule, reference.throughput_rule, (ladder,))]
        # BOLA's parameters need 2 rungs, the least a manifest has.
        if len(ladder) > 1:
            params = BolaParams.derive(ladder, capacity_s, chunk_s)
            cases += [(bola, reference.bola, (ladder, params)),
                      (dynamic_dash, reference.dynamic_dash, (ladder, params))]
        for batched, scalar, args in cases:
            levels = batched(obs, *args)
            assert levels.shape == obs.buffer_s.shape
            assert levels.tolist() == [scalar(obs.rows(j), *args) for j in range(len(levels))]
