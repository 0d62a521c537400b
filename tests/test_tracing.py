"""Every abr_arena name the benchmark's tracer targets must still exist, and
runs on the thread that called into the package.

``perfbench/tracing.py`` patches functions and methods by name; it is loaded
here by path, so renaming or deleting a traced name fails this test instead
of only the benchmark's smoke script.
"""

import importlib.util
import threading
from pathlib import Path

import numpy as np

from abr_arena import selfplay
from abr_arena.agent import Agent, AgentConfig, AgentPolicy, UpdateBatch
from abr_arena.simulator import SessionConfig
from abr_arena.workload import SynthManifestConfig, SynthTraceConfig, synth_manifest, synth_trace

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_and_are_restored():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.register_layers(tracer)  # raises AttributeError for a missing name
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in tracer._targets]
    assert originals
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)


def record_traced_calls(monkeypatch):
    """Replace every traced name with a wrapper that appends (metric name,
    thread) to the returned list on each call."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.register_layers(tracer)
    calls = []

    def recorder(name, original):
        def record(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return original(*args, **kwargs)
        return record

    for owner, attr, name, *_ in tracer._targets:
        monkeypatch.setattr(owner, attr, recorder(name, vars(owner)[attr]))
    return calls


def off_thread(calls):
    return [(name, thread) for name, thread in calls if thread is not threading.current_thread()]


def test_update_runs_every_traced_call_on_the_calling_thread(monkeypatch):
    """The tracer keeps one span stack, so nothing it wraps may run on the
    update's worker thread: every traced call of one update on a (7, 29)
    batch, several trunk row blocks, runs on the thread that called update."""
    calls = record_traced_calls(monkeypatch)
    agent = Agent(AgentConfig(), seed=3)
    rng = np.random.default_rng(4)
    sessions, chunks = 7, 29
    batch = UpdateBatch(
        inputs=rng.uniform(0, 1, (sessions * chunks, agent.config.flat_dim)).astype(np.float32),
        actions=rng.integers(0, agent.config.num_levels, sessions * chunks),
        rewards=rng.choice([0.0, 1.0], (sessions, 1)).repeat(chunks, axis=1), win_rate=0.25)
    agent.update(batch)
    assert agent.policy_opt.t == agent.value_opt.t == 1
    assert {"agent.update", "neural.dense.forward", "neural.dense.backward",
            "neural.adam.step"} <= {name for name, _ in calls}
    assert off_thread(calls) == []


def test_rollout_runs_every_traced_call_on_the_calling_thread(monkeypatch):
    """A traced call on a second thread makes the tracer's ``_exit`` raise
    "span ... closed out of order", so a rollout thread needs the tracer
    changed first: every traced call of one match between two sampling
    agents over 3 traces of a 6-chunk video runs on the calling thread."""
    calls = record_traced_calls(monkeypatch)
    traces = [synth_trace(SynthTraceConfig(), seed=i) for i in range(3)]
    manifest = synth_manifest(SynthManifestConfig(num_chunks=6), seed=0)
    players = [AgentPolicy(Agent(AgentConfig(), seed=seed), len(traces), manifest, SessionConfig(),
                           [np.random.default_rng([seed, i]) for i in range(len(traces))])
               for seed in (1, 2)]
    assert len(selfplay.run_match(*players, traces, manifest)) == len(traces)
    assert {"selfplay.run_match", "agent.act", "agent.normalize", "gem.hidden_for",
            "simulator.step"} <= {name for name, _ in calls}
    assert off_thread(calls) == []
