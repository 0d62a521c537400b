import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_session import transfer_time

from abr_arena.workload import (
    Manifest, SynthManifestConfig, SynthTraceConfig, Trace, TraceTable,
    load_manifest, load_trace, save_manifest, save_trace, split_dataset,
    synth_manifest, synth_trace,
)


def test_trace_invariants_rejected():
    with pytest.raises(ValueError):
        Trace(id="t", samples=())
    with pytest.raises(ValueError):
        Trace(id="t", samples=((0.0, 1000.0),))
    with pytest.raises(ValueError):
        Trace(id="t", samples=((1.0, -5.0),))


def test_two_column_conversion(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("0 1.0\n2 2.0\n4 1.0\n")
    trace = load_trace(path, "two-column-text")
    # Final sample gets the mean of the prior durations (2 s here).
    assert trace.samples == ((2.0, 1000.0), (2.0, 2000.0), (2.0, 1000.0))


def test_two_column_single_row(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("5 2.0\n")
    trace = load_trace(path, "two-column-text")
    assert trace.samples == ((1.0, 2000.0),)


def test_two_column_bad_rows(tmp_path):
    bad_bw = tmp_path / "bad.txt"
    bad_bw.write_text("0 1.0\n2 -1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_trace(bad_bw, "two-column-text")
    bad_time = tmp_path / "time.txt"
    bad_time.write_text("0 1.0\n0 2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_trace(bad_time, "two-column-text")
    for text in ("0 1.0\ninf 2.0\n", "0 1.0\nnan 2.0\n3 1.0\n"):
        non_finite = tmp_path / "non_finite.txt"
        non_finite.write_text(text)
        with pytest.raises(ValueError, match="line 2"):
            load_trace(non_finite, "two-column-text")
    bad_field = tmp_path / "field.txt"
    bad_field.write_text("0 1.0 extra\n")
    with pytest.raises(ValueError, match="line 1"):
        load_trace(bad_field, "two-column-text")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_trace(empty, "two-column-text")


def test_canonical_json_round_trip(tmp_path):
    trace = Trace(id="rt", samples=((4.0, 500.0),))
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    assert load_trace(path, "canonical-json") == trace


def walk(trace, start_s, size_bits):
    """The table walk on a batch of one download."""
    return TraceTable([trace]).transfer_times(np.array([start_s]), np.array([size_bits]))[0]


def test_transfer_time_integrates_across_segments_and_wraps():
    trace = Trace(id="t", samples=((2.0, 1000.0), (2.0, 2000.0)))
    assert walk(trace, 0.5, 1e6) == 1.0
    # 1e6 bits in the last second of segment 0, then 4e6 bits over segment 1.
    assert walk(trace, 1.0, 5e6) == 3.0
    # 2e6 bits in the last second of segment 1, then all of segment 0 after the wrap.
    assert walk(trace, 3.0, 4e6) == 3.0
    assert walk(trace, 7.0, 4e6) == 3.0
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            walk(trace, t, 1e6)
        with pytest.raises(ValueError):
            transfer_time(trace, t, 1e6)


@given(
    durations=st.lists(st.floats(0.25, 30.0), min_size=1, max_size=8),
    frac=st.floats(0.001, 0.999),
    laps=st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_bandwidth_wrap_property(durations, frac, laps):
    samples = tuple((round(d, 3), 100.0 * (i + 1)) for i, d in enumerate(durations))
    trace = Trace(id="p", samples=samples)
    total = trace.total_duration_s
    t = frac * total
    # Stay away from segment boundaries, where adding laps*total can round
    # the position across the edge.
    ends = np.cumsum([d for d, _ in samples])
    if np.min(np.abs(ends - t)) < 1e-6 or min(t, total - t) < 1e-6:
        return
    # A download far shorter than the gap to the next boundary takes
    # size / bandwidth of the segment holding t, on every lap.
    size = 1e-3
    bps = samples[int(np.searchsorted(ends, t, side="right"))][1] * 1000.0
    assert walk(trace, t, size) == walk(trace, t + laps * total, size) == size / bps


@st.composite
def downloads(draw):
    """One download: a trace of 1-40 segments down to 1e-3 s long, a start
    anywhere in its first 50 loops or on a segment end, and a size of up to
    four loops' worth of bits."""
    samples = draw(st.lists(st.tuples(st.floats(1e-3, 30.0), st.floats(50.0, 1e4)),
                            min_size=1, max_size=40))
    trace = Trace(id="h", samples=tuple(samples))
    ends = np.cumsum([d for d, _ in samples])
    start = draw(st.one_of(
        st.floats(0.0, 50.0).map(lambda laps: laps * trace.total_duration_s),
        st.sampled_from(ends.tolist())))
    loop_bits = sum(d * b * 1000.0 for d, b in samples)
    size = draw(st.floats(1e-6, 4.0).map(lambda loops: loops * loop_bits))
    return trace, start, size


@given(st.lists(downloads(), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_trace_table_equals_scalar_walk(batch):
    traces, starts, sizes = zip(*batch)
    got = TraceTable(traces).transfer_times(np.array(starts), np.array(sizes))
    assert got.tolist() == [transfer_time(*download) for download in batch]


def test_synth_trace_degenerate_and_determinism():
    cfg = SynthTraceConfig(num_states=1, bandwidth_min_kbps=1000.0, bandwidth_max_kbps=1000.0,
                           mean_dwell_s=2.0, duration_s=10.0)
    trace = synth_trace(cfg, seed=3)
    assert trace.total_duration_s == pytest.approx(10.0)
    assert set(trace.bandwidths_kbps.tolist()) == {1000.0}
    assert synth_trace(cfg, seed=3) == trace
    cfg4 = SynthTraceConfig(num_states=4, bandwidth_min_kbps=500.0, bandwidth_max_kbps=5000.0,
                            mean_dwell_s=5.0, duration_s=60.0)
    assert synth_trace(cfg4, seed=1) != synth_trace(cfg4, seed=2)


@given(seed=st.integers(0, 2**31), states=st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_synth_trace_range_property(seed, states):
    cfg = SynthTraceConfig(num_states=states, bandwidth_min_kbps=700.0, bandwidth_max_kbps=2100.0,
                           mean_dwell_s=4.0, duration_s=30.0)
    trace = synth_trace(cfg, seed)
    assert np.all(trace.bandwidths_kbps >= 700.0)
    assert np.all(trace.bandwidths_kbps <= 2100.0)


def test_synth_trace_bad_config():
    with pytest.raises(ValueError):
        SynthTraceConfig(num_states=0)
    with pytest.raises(ValueError):
        SynthTraceConfig(bandwidth_min_kbps=0.0, bandwidth_max_kbps=100.0)
    with pytest.raises(ValueError):
        SynthTraceConfig(bandwidth_min_kbps=900.0, bandwidth_max_kbps=800.0)
    with pytest.raises(ValueError):
        SynthTraceConfig(bandwidth_max_kbps=float("inf"))
    with pytest.raises(ValueError):
        SynthTraceConfig(mean_dwell_s=-1.0)


def test_split_sizes_and_determinism():
    ids = [f"t{i}" for i in range(10)]
    split = split_dataset(ids, (0.8, 0.2), seed=7)
    assert (len(split.train), len(split.validation), len(split.test)) == (8, 2, 0)
    assert split_dataset(ids, (0.8, 0.2), seed=7) == split
    single = split_dataset(["only"], (0.8, 0.2), seed=0)
    assert (len(single.train), len(single.validation), len(single.test)) == (1, 0, 0)
    with pytest.raises(ValueError):
        split_dataset([], (0.8, 0.2), seed=0)
    with pytest.raises(ValueError):
        split_dataset(ids, (0.9, 0.3), seed=0)


@given(
    n=st.integers(1, 60),
    r_train=st.floats(0.05, 0.9),
    r_val=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=200, deadline=None)
def test_split_partition_property(n, r_train, r_val, seed):
    if r_train + r_val > 1:
        return
    ids = {f"id{i}" for i in range(n)}
    split = split_dataset(ids, (r_train, r_val), seed)
    assert split.train | split.validation | split.test == ids
    assert not split.train & split.validation
    assert not split.train & split.test
    assert not split.validation & split.test


def test_synth_manifest_sizes_exact():
    cfg = SynthManifestConfig(ladder_kbps=(300.0, 750.0), num_chunks=2,
                              chunk_duration_s=4.0, vbr_jitter=0.0)
    man = synth_manifest(cfg, seed=0)
    assert man.chunk_sizes_bits == ((1.2e6, 3.0e6), (1.2e6, 3.0e6))


def test_manifest_round_trip(tmp_path):
    cfg = SynthManifestConfig(num_chunks=3, vbr_jitter=0.1)
    man = synth_manifest(cfg, seed=5)
    path = tmp_path / "man.json"
    save_manifest(man, path)
    assert load_manifest(path) == man


def test_manifest_invariants():
    with pytest.raises(ValueError):
        Manifest(id="m", chunk_duration_s=4.0, ladder_kbps=(750.0, 300.0),
                 chunk_sizes_bits=((1.0, 1.0),))
    with pytest.raises(ValueError):
        Manifest(id="m", chunk_duration_s=4.0, ladder_kbps=(300.0, 750.0),
                 chunk_sizes_bits=())
    with pytest.raises(ValueError):
        Manifest(id="m", chunk_duration_s=4.0, ladder_kbps=(300.0, 750.0),
                 chunk_sizes_bits=((1.0,),))
    with pytest.raises(ValueError):
        SynthManifestConfig(vbr_jitter=1.0)


def test_load_trace_error_paths(tmp_path):
    with pytest.raises(ValueError, match="unknown trace format"):
        load_trace(tmp_path / "x.json", "mpd")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_trace(bad, "canonical-json")
    missing_key = tmp_path / "missing.json"
    missing_key.write_text(json.dumps({"id": "x"}))
    with pytest.raises(ValueError, match="malformed"):
        load_trace(missing_key, "canonical-json")
