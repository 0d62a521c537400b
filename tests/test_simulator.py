import numpy as np
import pytest

from abr_arena.simulator import Session, SessionConfig, run_session
from abr_arena.workload import Manifest, SynthManifestConfig, SynthTraceConfig, Trace, synth_manifest, synth_trace


def one_level_manifest(num_chunks=2, size_bits=4e6, bitrate=1000.0):
    # Two ladder entries are required; sessions under test only use level 0.
    return Manifest(
        id="fixture",
        chunk_duration_s=4.0,
        ladder_kbps=(bitrate, bitrate * 2),
        chunk_sizes_bits=tuple((size_bits, size_bits * 2) for _ in range(num_chunks)),
    )


def constant_trace(bw_kbps, duration=1000.0):
    return Trace(id=f"const{bw_kbps}", samples=((duration, bw_kbps),))


def test_initial_state():
    manifest = one_level_manifest()
    session = Session(manifest, constant_trace(2000.0))
    obs = session.observe()
    assert np.all(obs.throughput_kbps == 0)
    assert np.all(obs.download_time_s == 0)
    assert np.all(obs.chosen_bitrate_kbps == 0)
    assert obs.buffer_s == 0.0
    assert obs.remaining_play_s == 2 * 4.0
    assert np.array_equal(obs.next_sizes_bits, np.array([4e6, 8e6]))
    assert not hasattr(obs, "hidden")  # GEM features live in the agent's rows


def test_no_stall_session():
    manifest = one_level_manifest()
    session = Session(manifest, constant_trace(2000.0))
    obs, done = session.step(0)
    assert not done
    assert session.buffer_s == 4.0
    assert session.clock_s == 2.0
    obs, done = session.step(0)
    assert done
    assert session.buffer_s == 6.0  # 4 - 2 + 4
    metrics = session.metrics()
    assert metrics.total_bitrate_kbps == 2000.0
    assert metrics.total_rebuffer_s == 0.0
    assert metrics.total_change_kbps == 0.0


def test_stall_session():
    manifest = one_level_manifest()
    session = Session(manifest, constant_trace(500.0))
    session.step(0)  # 8 s startup, excluded from rebuffer
    assert session.total_rebuffer_s == 0.0
    assert session.buffer_s == 4.0
    session.step(0)  # 8 s download drains 4 s of buffer then stalls 4 s
    metrics = session.metrics()
    assert metrics.total_rebuffer_s == 4.0
    assert metrics.total_bitrate_kbps == 2000.0
    assert metrics.total_change_kbps == 0.0


def test_bitrate_change_accounting():
    manifest = Manifest(
        id="two-level",
        chunk_duration_s=4.0,
        ladder_kbps=(1000.0, 2000.0),
        chunk_sizes_bits=((4e6, 4e6), (4e6, 4e6)),
    )
    session = Session(manifest, constant_trace(4000.0))
    session.step(0)
    session.step(1)
    assert session.metrics().total_change_kbps == 1000.0


def test_throughput_history_times_download_equals_size():
    manifest = one_level_manifest(num_chunks=3)
    trace = Trace(id="vary", samples=((1.5, 800.0), (2.0, 3000.0), (1.0, 1200.0)))
    session = Session(manifest, trace)
    for _ in range(3):
        obs, _ = session.step(0)
        tput, dtime = obs.throughput_kbps[-1], obs.download_time_s[-1]
        assert tput * 1000.0 * dtime == pytest.approx(4e6, rel=1e-9)


def test_download_time_integrates_across_segments():
    # 1 Mbit at 1000 kbps for 0.5 s (5e5 bits), remainder at 500 kbps (1 s).
    manifest = one_level_manifest(num_chunks=1, size_bits=1e6)
    trace = Trace(id="seg", samples=((0.5, 1000.0), (10.0, 500.0)))
    session = Session(manifest, trace)
    session.step(0)
    assert session.clock_s == pytest.approx(1.5, rel=1e-12)


def test_latency_is_part_of_wall_time():
    manifest = one_level_manifest(num_chunks=2)
    cfg = SessionConfig(per_chunk_latency_s=0.25)
    session = Session(manifest, constant_trace(2000.0), cfg)
    obs, _ = session.step(0)
    assert session.clock_s == pytest.approx(2.25)
    assert obs.download_time_s[-1] == pytest.approx(2.25)
    assert obs.throughput_kbps[-1] == pytest.approx(4e6 / 2.25 / 1000.0)


def test_buffer_cap_forces_idle():
    manifest = one_level_manifest(num_chunks=10)
    cfg = SessionConfig(buffer_capacity_s=10.0)
    session = Session(manifest, constant_trace(4000.0), cfg)  # 1 s per chunk
    for _ in range(10):
        session.step(0)
        assert 0.0 <= session.buffer_s <= cfg.buffer_capacity_s
    assert session.total_idle_s > 0.0
    assert session.total_rebuffer_s == 0.0


def test_step_errors():
    manifest = one_level_manifest(num_chunks=1)
    session = Session(manifest, constant_trace(2000.0))
    with pytest.raises(ValueError):
        session.step(5)
    session.step(0)
    with pytest.raises(RuntimeError):
        session.step(0)


def test_capacity_must_exceed_chunk():
    manifest = one_level_manifest()
    with pytest.raises(ValueError):
        Session(manifest, constant_trace(1000.0), SessionConfig(buffer_capacity_s=4.0))


def test_run_session_constant_policy():
    manifest = one_level_manifest()
    trace = constant_trace(2000.0)
    traj = run_session(lambda obs: 0, manifest, trace)
    assert len(traj.steps) == 2
    assert traj.metrics.total_bitrate_kbps == 2000.0
    assert traj.metrics.total_rebuffer_s == 0.0
    again = run_session(lambda obs: 0, manifest, trace)
    assert [s.action for s in again.steps] == [s.action for s in traj.steps]
    assert again.metrics == traj.metrics


def test_run_session_single_chunk():
    manifest = one_level_manifest(num_chunks=1)
    traj = run_session(lambda obs: 0, manifest, constant_trace(2000.0))
    assert len(traj.steps) == 1
    assert traj.metrics.total_change_kbps == 0.0


def random_session_inputs(rng):
    num_chunks = int(rng.integers(1, 25))
    ladder = tuple(sorted(rng.uniform(200, 5000, size=int(rng.integers(2, 7)))))
    man_cfg = SynthManifestConfig(
        ladder_kbps=ladder,
        num_chunks=num_chunks,
        chunk_duration_s=float(rng.uniform(1.0, 6.0)),
        vbr_jitter=float(rng.uniform(0.0, 0.4)),
    )
    manifest = synth_manifest(man_cfg, seed=int(rng.integers(2**31)))
    trace_cfg = SynthTraceConfig(
        num_states=int(rng.integers(1, 6)),
        bandwidth_range_kbps=(float(rng.uniform(100, 900)), float(rng.uniform(1000, 8000))),
        mean_dwell_s=float(rng.uniform(1.0, 20.0)),
        duration_s=float(rng.uniform(20.0, 120.0)),
    )
    trace = synth_trace(trace_cfg, seed=int(rng.integers(2**31)))
    cfg = SessionConfig(
        buffer_capacity_s=man_cfg.chunk_duration_s + float(rng.uniform(5.0, 40.0)),
        per_chunk_latency_s=float(rng.choice([0.0, 0.05, 0.2])),
        history_len=int(rng.integers(1, 12)),
    )
    return manifest, trace, cfg


@pytest.mark.parametrize("seed", range(5))
def test_randomized_session_invariants(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        manifest, trace, cfg = random_session_inputs(rng)
        session = Session(manifest, trace, cfg)
        last_rebuffer = 0.0
        while not session.done:
            action = int(rng.integers(manifest.num_levels))
            obs, _ = session.step(action)
            assert 0.0 <= session.buffer_s <= cfg.buffer_capacity_s + 1e-9
            assert session.total_rebuffer_s >= last_rebuffer
            last_rebuffer = session.total_rebuffer_s
            size = obs.throughput_kbps[-1] * 1000.0 * obs.download_time_s[-1]
            assert size == pytest.approx(
                manifest.sizes[session.next_chunk - 1, action], rel=1e-9)
        # Wall clock closes: downloads plus idle waits.
        assert session.clock_s == pytest.approx(
            session.total_download_s + session.total_idle_s, rel=1e-12)
        assert session.metrics().total_bitrate_kbps > 0
