import numpy as np
import pytest

from abr_arena.baselines import (
    BolaParams, DynamicDashParams, bola, constrained, dynamic_dash, make_policy,
    throughput_rule,
)
from abr_arena.simulator import Observation, SessionConfig
from abr_arena.workload import SynthManifestConfig, synth_manifest

LADDER = (300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0)


def obs_with(tput=None, buffer_s=0.0, sizes=None, k=10):
    n = len(sizes) if sizes is not None else len(LADDER)
    return Observation(
        throughput_kbps=np.asarray(tput if tput is not None else np.zeros(k), dtype=np.float64),
        download_time_s=np.zeros(k),
        chosen_bitrate_kbps=np.zeros(k),
        remaining_play_s=64.0,
        buffer_s=buffer_s,
        next_sizes_bits=np.asarray(
            sizes if sizes is not None else np.asarray(LADDER) * 4000.0, dtype=np.float64),
    )


def test_constrained_midpoints():
    assert constrained(obs_with(), LADDER) == 2          # n=6 -> lower middle
    assert constrained(obs_with(), LADDER[:5]) == 2      # n=5 -> exact middle
    assert constrained(obs_with(), LADDER[:1]) == 0      # only option


def test_throughput_rule_harmonic_mean():
    history = [0.0] * 5 + [1000.0, 2000.0, 1000.0, 2000.0, 1000.0]
    # Harmonic mean of the last five samples is 1250 -> level 2 (1200 kbps).
    assert throughput_rule(obs_with(tput=history), LADDER) == 2


def test_throughput_rule_cold_start_and_clamp():
    assert throughput_rule(obs_with(), LADDER) == 0
    sky_high = [1e9] * 10
    assert throughput_rule(obs_with(tput=sky_high), LADDER) == len(LADDER) - 1
    below_ladder = [100.0] * 10
    assert throughput_rule(obs_with(tput=below_ladder), LADDER) == 0


def test_throughput_rule_uses_nonzero_recent_five():
    history = [4000.0, 4000.0, 4000.0, 4000.0, 4000.0, 300.0, 0.0, 0.0, 0.0, 0.0]
    # Zeros are skipped; the window is [300, 4000 x 4], harmonic mean ~1119.
    assert throughput_rule(obs_with(tput=history), LADDER) == 1


def test_throughput_rule_monotone():
    rng = np.random.default_rng(0)
    for _ in range(300):
        base = rng.uniform(100.0, 5000.0, size=10)
        raised = base * rng.uniform(1.0, 3.0)
        low = throughput_rule(obs_with(tput=base), LADDER)
        high = throughput_rule(obs_with(tput=raised), LADDER)
        assert high >= low


def bola_params(capacity=25.0, chunk=4.0):
    return BolaParams.derive(LADDER, capacity, chunk)


def test_bola_empty_buffer_picks_lowest():
    assert bola(obs_with(buffer_s=0.0), LADDER, bola_params()) == 0


def test_bola_full_buffer_picks_top_region():
    level = bola(obs_with(buffer_s=25.0), LADDER, bola_params())
    assert level == len(LADDER) - 1


def test_bola_monotone_in_buffer():
    params = bola_params()
    levels = [bola(obs_with(buffer_s=b), LADDER, params) for b in np.linspace(0, 25, 26)]
    assert all(b <= a for a, b in zip(levels[1:], levels))
    assert bola(obs_with(buffer_s=0.0, sizes=[1.2e6]), (300.0,), params) == 0


def test_dynamic_dash_switches():
    params = DynamicDashParams(bola=bola_params())
    history = [2000.0] * 10
    low_buffer = obs_with(tput=history, buffer_s=2.0)
    assert dynamic_dash(low_buffer, LADDER, params) == throughput_rule(low_buffer, LADDER)
    high_buffer = obs_with(tput=history, buffer_s=20.0)
    assert dynamic_dash(high_buffer, LADDER, params) == bola(high_buffer, LADDER, params.bola)
    boundary = obs_with(tput=history, buffer_s=10.0)
    assert dynamic_dash(boundary, LADDER, params) == bola(boundary, LADDER, params.bola)


def test_policies_total_and_in_range():
    rng = np.random.default_rng(7)
    params = bola_params()
    dyn = DynamicDashParams(bola=params)
    for _ in range(500):
        obs = obs_with(
            tput=rng.uniform(0, 6000, size=10),
            buffer_s=float(rng.uniform(0, 25)),
            sizes=rng.uniform(1e5, 2e7, size=len(LADDER)),
        )
        for level in (
            constrained(obs, LADDER),
            throughput_rule(obs, LADDER),
            bola(obs, LADDER, params),
            dynamic_dash(obs, LADDER, dyn),
        ):
            assert 0 <= level < len(LADDER)


def test_make_policy_names():
    manifest = synth_manifest(SynthManifestConfig(), seed=0)
    cfg = SessionConfig()
    for name in ("constrained", "throughput", "bola", "dynamic"):
        policy = make_policy(name, manifest, cfg)
        assert 0 <= policy(obs_with()) < manifest.num_levels
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("mpc", manifest, cfg)
