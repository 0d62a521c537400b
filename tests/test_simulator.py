import numpy as np
import pytest
from reference_session import ReferenceSession

from abr_arena import simulator
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


def single(manifest, trace, cfg=SessionConfig()):
    """A lockstep engine holding one session."""
    return Session([trace], manifest, cfg)


def test_initial_state():
    manifest = one_level_manifest()
    session = single(manifest, constant_trace(2000.0))
    obs = session.observe().rows(0)
    assert np.all(obs.throughput_kbps == 0)
    assert np.all(obs.download_time_s == 0)
    assert np.all(obs.chosen_bitrate_kbps == 0)
    assert obs.buffer_s == 0.0
    assert obs.remaining_play_s == 2 * 4.0
    assert np.array_equal(obs.next_sizes_bits, np.array([4e6, 8e6]))
    assert not hasattr(obs, "hidden")  # GEM features live in the agent's rows


def test_no_stall_session():
    manifest = one_level_manifest()
    session = single(manifest, constant_trace(2000.0))
    session.step([0])
    assert not session.done
    assert session.buffer_s[0] == 4.0
    assert session.clock_s[0] == 2.0
    session.step([0])
    assert session.done
    assert session.buffer_s[0] == 6.0  # 4 - 2 + 4
    [metrics] = session.metrics()
    assert metrics.total_bitrate_kbps == 2000.0
    assert metrics.total_rebuffer_s == 0.0
    assert metrics.total_change_kbps == 0.0


def test_stall_session():
    manifest = one_level_manifest()
    session = single(manifest, constant_trace(500.0))
    session.step([0])  # 8 s startup, excluded from rebuffer
    assert session.metrics()[0].total_rebuffer_s == 0.0
    assert session.buffer_s[0] == 4.0
    session.step([0])  # 8 s download drains 4 s of buffer then stalls 4 s
    assert session.rebuffer_s.tolist() == [[0.0, 4.0]]
    [metrics] = session.metrics()
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
    session = single(manifest, constant_trace(4000.0))
    session.step([0])
    session.step([1])
    assert session.metrics()[0].total_change_kbps == 1000.0


def test_throughput_history_times_download_equals_size():
    manifest = one_level_manifest(num_chunks=3)
    trace = Trace(id="vary", samples=((1.5, 800.0), (2.0, 3000.0), (1.0, 1200.0)))
    session = single(manifest, trace)
    k = session.cfg.history_len
    for t in range(3):
        session.step([0])
        tput, dtime = session.throughput_kbps[0, t + k], session.download_time_s[0, t + k]
        assert tput * 1000.0 * dtime == pytest.approx(4e6, rel=1e-9)


def test_download_time_integrates_across_segments():
    # 1 Mbit at 1000 kbps for 0.5 s (5e5 bits), remainder at 500 kbps (1 s).
    manifest = one_level_manifest(num_chunks=1, size_bits=1e6)
    trace = Trace(id="seg", samples=((0.5, 1000.0), (10.0, 500.0)))
    session = single(manifest, trace)
    session.step([0])
    assert session.clock_s[0] == pytest.approx(1.5, rel=1e-12)


def test_latency_is_part_of_wall_time():
    manifest = one_level_manifest(num_chunks=2)
    cfg = SessionConfig(per_chunk_latency_s=0.25)
    session = single(manifest, constant_trace(2000.0), cfg)
    session.step([0])
    obs = session.observe().rows(0)
    assert session.clock_s[0] == pytest.approx(2.25)
    assert obs.download_time_s[-1] == pytest.approx(2.25)
    assert obs.throughput_kbps[-1] == pytest.approx(4e6 / 2.25 / 1000.0)


def test_buffer_cap_forces_idle():
    manifest = one_level_manifest(num_chunks=10)
    cfg = SessionConfig(buffer_capacity_s=10.0)
    session = single(manifest, constant_trace(4000.0), cfg)  # 1 s per chunk
    for _ in range(10):
        session.step([0])
        assert 0.0 <= session.buffer_s[0] <= cfg.buffer_capacity_s
    # The clock runs ahead of the downloads only by idle waits.
    assert session.clock_s[0] > session.download_time_s[0, cfg.history_len:].sum()
    assert session.metrics()[0].total_rebuffer_s == 0.0


def test_step_errors():
    manifest = one_level_manifest(num_chunks=1)
    session = single(manifest, constant_trace(2000.0))
    for bad in ([5], [-1], [0, 0]):
        with pytest.raises(ValueError):
            session.step(bad)
    session.step([0])
    with pytest.raises(RuntimeError):
        session.step([0])
    with pytest.raises(ValueError):
        Session([], manifest)


def test_step_errors_are_one_line():
    manifest = one_level_manifest(num_chunks=1)
    for sessions in (1, 64):
        session = Session([constant_trace(2000.0)] * sessions, manifest)
        with pytest.raises(ValueError, match=rf"expected {sessions} actions, one per "
                                             rf"session, got shape \({sessions + 1},\)") as wrong:
            session.step(np.zeros(sessions + 1, dtype=np.int64))
        with pytest.raises(ValueError, match=r"got shape \(\)"):
            session.step(0)
        actions = np.zeros(sessions, dtype=np.int64)
        actions[sessions // 2:] = 2
        with pytest.raises(ValueError, match=rf"action 2 of session {sessions // 2} "
                                             rf"out of range \[0, 2\)") as bad:
            session.step(actions)
        low = np.zeros(sessions, dtype=np.int64)
        low[-1] = -1
        with pytest.raises(ValueError, match=rf"action -1 of session {sessions - 1} "):
            session.step(low)
        assert "\n" not in str(wrong.value) and "\n" not in str(bad.value)
        assert session.t == 0  # a refused step changes nothing
    with pytest.raises(ValueError, match=r"action nan of session 0 "):
        Session([constant_trace(2000.0)], manifest).step(np.array([np.nan]))


@pytest.mark.parametrize("sessions", [1, 5])
def test_observation_arrays_shared_by_sessions_are_read_only(sessions):
    manifest = one_level_manifest(num_chunks=3)
    session = Session([constant_trace(2000.0 + i) for i in range(sessions)], manifest)
    for _ in range(manifest.num_chunks):
        obs = session.observe()
        for shared in (obs.remaining_play_s, obs.next_sizes_bits,
                       obs.rows(slice(0, 1)).remaining_play_s, obs.rows(0).next_sizes_bits):
            with pytest.raises(ValueError, match="read-only"):
                shared[...] = 0.0
        buffer = session.buffer_s.copy()
        obs.buffer_s[:] = 1e9
        assert np.array_equal(session.buffer_s, buffer)
        assert np.array_equal(session.observe().buffer_s, buffer)
        session.step(np.zeros(sessions, dtype=np.int64))
    assert np.array_equal(manifest.sizes, np.array(manifest.chunk_sizes_bits))


def test_run_session_names_the_policy_with_the_wrong_level_count():
    manifest = one_level_manifest()
    extra = lambda obs: np.zeros(len(obs.buffer_s) + 1, dtype=np.int64)  # noqa: E731
    with pytest.raises(ValueError, match=r"policy 1 returned levels of shape \(4,\) "
                                         r"for 3 sessions"):
        run_session([lowest, extra, lowest], [constant_trace(2000.0)] * 3, manifest)
    with pytest.raises(ValueError, match=r"policy 0 returned levels of shape \(\) "):
        run_session([lambda obs: 0], [constant_trace(2000.0)], manifest)


def test_capacity_must_exceed_chunk():
    manifest = one_level_manifest()
    for capacity in (4.0, 3.0):
        with pytest.raises(ValueError, match="buffer capacity"):
            single(manifest, constant_trace(1000.0), SessionConfig(buffer_capacity_s=capacity))


def lowest(obs):
    """A policy that always picks level 0."""
    return np.zeros(len(obs.buffer_s), dtype=np.int64)


def test_run_session_constant_policy():
    manifest = one_level_manifest()
    trace = constant_trace(2000.0)
    [[traj]] = run_session([lowest], [trace], manifest)
    assert traj.levels == (0, 0)
    assert [s.action for s in traj.steps] == list(traj.levels)
    assert traj.metrics.total_bitrate_kbps == 2000.0
    assert traj.metrics.total_rebuffer_s == 0.0
    [[again]] = run_session([lowest], [trace], manifest)
    assert again.levels == traj.levels
    assert again.metrics == traj.metrics
    with pytest.raises(ValueError):  # a policy must pick one level per row
        run_session([lambda obs: np.zeros(len(obs.buffer_s) + 1, dtype=np.int64)],
                    [trace] * 2, manifest)


def test_run_session_single_chunk():
    manifest = one_level_manifest(num_chunks=1)
    [[traj]] = run_session([lowest], [constant_trace(2000.0)], manifest)
    assert len(traj.levels) == 1
    assert traj.metrics.total_change_kbps == 0.0


def random_video(rng, chunk_duration_s, levels):
    ladder = tuple(sorted(rng.uniform(200, 5000, size=levels)))
    man_cfg = SynthManifestConfig(
        ladder_kbps=ladder,
        num_chunks=int(rng.integers(1, 25)),
        chunk_duration_s=chunk_duration_s,
        vbr_jitter=float(rng.uniform(0.0, 0.4)),
    )
    return synth_manifest(man_cfg, seed=int(rng.integers(2**31)))


def random_trace(rng):
    trace_cfg = SynthTraceConfig(
        num_states=int(rng.integers(1, 6)),
        bandwidth_min_kbps=float(rng.uniform(100, 900)),
        bandwidth_max_kbps=float(rng.uniform(1000, 8000)),
        mean_dwell_s=float(rng.uniform(1.0, 20.0)),
        duration_s=float(rng.uniform(20.0, 120.0)),
    )
    return synth_trace(trace_cfg, seed=int(rng.integers(2**31)))


def random_lockstep_inputs(rng, sessions):
    """Traces, one video of random length, ladder and chunk duration, and a
    session config whose buffer capacity exceeds the chunk duration."""
    duration = float(rng.uniform(1.0, 6.0))
    traces = [random_trace(rng) for _ in range(sessions)]
    manifest = random_video(rng, duration, int(rng.integers(2, 7)))
    cfg = SessionConfig(
        buffer_capacity_s=duration + float(rng.uniform(5.0, 40.0)),
        per_chunk_latency_s=float(rng.choice([0.0, 0.05, 0.2])),
        history_len=int(rng.integers(1, 12)),
    )
    return traces, manifest, cfg


@pytest.mark.parametrize("seed", range(5))
def test_randomized_session_invariants(seed):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        traces, manifest, cfg = random_lockstep_inputs(rng, int(rng.integers(1, 9)))
        session = Session(traces, manifest, cfg)
        k = cfg.history_len
        while not session.done:
            t = session.t
            actions = rng.integers(manifest.num_levels, size=len(traces))
            session.step(actions)
            assert np.all(session.buffer_s >= 0.0)
            assert np.all(session.buffer_s <= cfg.buffer_capacity_s + 1e-9)
            assert np.all(session.rebuffer_s[:, t] >= 0.0)
            for i, action in enumerate(actions):
                size = session.throughput_kbps[i, t + k] * 1000.0 * session.download_time_s[i, t + k]
                assert size == pytest.approx(manifest.sizes[t, action], rel=1e-9)
        assert all(m.total_bitrate_kbps > 0 for m in session.metrics())


def assert_same_observation(got, want):
    for field in ("throughput_kbps", "download_time_s", "chosen_bitrate_kbps", "next_sizes_bits"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.remaining_play_s == want.remaining_play_s
    assert got.buffer_s == want.buffer_s


def assert_lockstep_equals_reference(rng, traces, manifest, cfg):
    """Every session of a lockstep run reproduces the scalar reference
    simulator bit for bit: observation windows, download times, buffer,
    clock and the metrics so far before the first step and after every step."""
    session = Session(traces, manifest, cfg)
    references = [ReferenceSession(manifest, trace, cfg) for trace in traces]
    download_times = [[] for _ in traces]
    k = cfg.history_len
    assert session.metrics() == [ref.metrics() for ref in references]
    while not session.done:
        t = session.t
        assert not any(ref.done for ref in references)
        batch = session.observe()
        for i, ref in enumerate(references):
            want = ref.observe()
            assert_same_observation(batch.rows(i), want)
            for field in ("throughput_kbps", "download_time_s", "chosen_bitrate_kbps",
                          "remaining_play_s", "buffer_s", "next_sizes_bits"):
                assert np.array_equal(getattr(batch, field)[i], getattr(want, field)), field
        actions = rng.integers(manifest.num_levels, size=len(traces))
        session.step(actions)
        for i, (ref, action) in enumerate(zip(references, actions.tolist())):
            ref.step(action)
            assert session.download_time_s[i, t + k] == ref.last_download_s
            download_times[i].append(ref.last_download_s)
            assert session.buffer_s[i] == ref.buffer_s
            assert session.clock_s[i] == ref.clock_s
        assert session.metrics() == [ref.metrics() for ref in references]
    assert all(ref.done for ref in references)
    for i, (traj, ref, times) in enumerate(zip(session.trajectories(), references,
                                               download_times)):
        assert traj.metrics == ref.metrics()
        assert session.download_time_s[i, k:].tolist() == times


@pytest.mark.parametrize("seed", range(4))
def test_lockstep_engine_equals_scalar_reference(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(15):
        traces, manifest, cfg = random_lockstep_inputs(rng, int(rng.integers(1, 10)))
        assert_lockstep_equals_reference(rng, traces, manifest, cfg)


@pytest.mark.parametrize("num_chunks, history_len", [(1, 1), (1, 10), (5, 1)])
def test_lockstep_engine_equals_scalar_reference_at_the_edges(num_chunks, history_len):
    """A one-chunk video, whose change total stays zero, and a one-sample history."""
    rng = np.random.default_rng(300 + num_chunks + history_len)
    manifest = synth_manifest(SynthManifestConfig(num_chunks=num_chunks, vbr_jitter=0.2), seed=5)
    traces = [synth_trace(SynthTraceConfig(mean_dwell_s=1.0, duration_s=30.0), seed=i)
              for i in range(4)]
    for _ in range(3):
        assert_lockstep_equals_reference(rng, traces, manifest,
                                         SessionConfig(history_len=history_len))


@pytest.mark.parametrize("latency", [0.0, 0.3])
def test_lockstep_engine_equals_scalar_reference_across_many_segments(latency):
    """Downloads that cross many segments and wrap the trace: 1 s-dwell
    traces like real throughput logs, and a 1.5 s trace shorter than one
    chunk's download."""
    rng = np.random.default_rng(200)
    manifest = synth_manifest(SynthManifestConfig(num_chunks=12, vbr_jitter=0.2), seed=3)
    traces = [synth_trace(SynthTraceConfig(mean_dwell_s=1.0, duration_s=float(duration)), seed=i)
              for i, duration in enumerate(rng.uniform(20.0, 90.0, size=6))]
    traces.append(Trace(id="short", samples=((0.25, 900.0), (1.0, 3000.0), (0.25, 400.0))))
    cfg = SessionConfig(per_chunk_latency_s=latency)
    for _ in range(3):
        assert_lockstep_equals_reference(rng, traces, manifest, cfg)


def test_run_session_equals_reference_runs(monkeypatch):
    """Every policy plays every trace in one lockstep run: each call gets
    its policy's block of rows, and each (policy, trace) session sees the
    reference simulator's observations and reaches its metrics."""
    rng = np.random.default_rng(7)
    traces, manifest, cfg = random_lockstep_inputs(rng, 6)
    policies = 3
    seen = [[] for _ in range(policies)]
    sessions = []

    class RecordingSession(Session):
        def __init__(self, *args):
            super().__init__(*args)
            sessions.append(self)

    monkeypatch.setattr(simulator, "Session", RecordingSession)

    def policy_for(p):
        # A deterministic, state-dependent policy: any drift in the observations
        # or any mix-up of the policies' blocks shows.
        def policy(obs):
            seen[p].append(obs)
            levels = obs.buffer_s * 7 + obs.throughput_kbps.sum(axis=1) + p
            return levels.astype(np.int64) % obs.next_sizes_bits.shape[1]
        return policy

    played = run_session([policy_for(p) for p in range(policies)], traces, manifest, cfg)
    assert len(played) == policies
    [session] = sessions
    for p, trajectories in enumerate(played):
        # One call per chunk index, on one row per trace.
        assert len(seen[p]) == manifest.num_chunks
        for obs in seen[p]:
            assert len(obs.buffer_s) == len(traces)
        for m, (trace, traj) in enumerate(zip(traces, trajectories)):
            ref = ReferenceSession(manifest, trace, cfg)
            assert len(traj.levels) == manifest.num_chunks
            for t, level in enumerate(traj.levels):
                # The batches handed to the policy are still valid snapshots.
                assert_same_observation(seen[p][t].rows(m), ref.observe())
                ref.step(level)
                row = p * len(traces) + m
                assert session.download_time_s[row, cfg.history_len + t] == ref.last_download_s
            assert ref.done and traj.metrics == ref.metrics()
    assert run_session([], traces, manifest) == []
    assert run_session([lowest], [], manifest) == [[]]
