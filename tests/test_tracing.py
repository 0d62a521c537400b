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

from abr_arena.agent import Agent, AgentConfig, UpdateBatch

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


def test_update_runs_every_traced_call_on_the_calling_thread(monkeypatch):
    """The tracer keeps one span stack, so nothing it wraps may run on the
    update's worker thread: every traced call of one update on a (7, 29)
    batch, several trunk row blocks, runs on the thread that called update."""
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
    assert [(name, thread) for name, thread in calls
            if thread is not threading.current_thread()] == []
