"""The benchmark's own output checks, run in tier-1.

``perfbench/workloads.py`` is loaded by path, as the benchmark loads it: the
full-size tournament's every round must reproduce the ratings recorded in
``tournament_golden.json`` (to 1e-9), and one toy self-play unit and one toy
evaluate unit must pass their checks with no failed match. With the tracer
of ``perfbench/tracing.py`` installed, a toy unit of each workload must reach
(and not reach) the layers ``perfbench/smoke.py`` names for it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_by_path(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def workloads():
    return load_by_path("workloads")


def test_tournament_rounds_match_golden_ratings(workloads, tmp_path):
    tournament = workloads.Tournament(7, workloads.SIZES["full"], tmp_path)
    tournament.setup()
    assert len(tournament.rounds) == workloads.SIZES["full"].rounds
    for k in range(len(tournament.rounds)):
        assert tournament.check(tournament.run_unit(k)) == 0, f"round {k}"


@pytest.mark.parametrize("name", ["selfplay", "evaluate"])
def test_toy_unit_passes_its_check(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](7, workloads.SIZES["toy"], tmp_path)
    workload.setup()
    output = workload.run_unit(0)
    assert workload.check(output) == 0


def traced_toy_unit(workloads, tmp_path, name):
    """The tracer of one toy ``name`` unit, run with ``perfbench/tracing.py``
    installed, once its layers are checked against the smoke script's
    REACHED and UNREACHED lists."""
    tracing, smoke = load_by_path("tracing"), load_by_path("smoke")
    workload = workloads.WORKLOADS[name](7, workloads.SIZES["toy"], tmp_path)
    workload.setup()
    tracer = tracing.Tracer()
    tracing.register_layers(tracer)
    tracer.install()
    try:
        assert workload.check(workload.run_unit(0)) == 0
    finally:
        tracer.restore()
    called = {layer for layer, calls in tracer.calls.items() if calls > 0}
    for layer in smoke.REACHED[name]:
        assert any(c.startswith(layer) for c in called), f"{layer} never called"
    for prefix in smoke.UNREACHED[name]:
        assert not any(c.startswith(prefix) for c in called), f"{prefix} called"
    return tracer


@pytest.mark.parametrize("name", ["evaluate", "tournament"])
def test_toy_unit_reaches_its_traced_layers(workloads, tmp_path, name):
    """The layer contract of the smoke script (a tournament, for example,
    runs no network code), and ``dynamic_dash`` reaching ``throughput_rule``
    and ``bola`` through the module names the tracer patches."""
    tracer = traced_toy_unit(workloads, tmp_path, name)
    names = {span[0]: span[1] for span in tracer.spans}
    nested = {(names.get(span[4]), span[1]) for span in tracer.spans}
    assert {("baselines.dynamic_dash", "baselines.throughput_rule"),
            ("baselines.dynamic_dash", "baselines.bola")} <= nested


def test_toy_selfplay_unit_reaches_its_traced_layers(workloads, tmp_path):
    """A traced self-play unit, both agent updates included, reaches the
    smoke script's layers. The tracer keeps one span stack and raises on a
    span closed out of order, as overlapping spans from an update that ran
    traced layers on worker threads would be."""
    tracer = traced_toy_unit(workloads, tmp_path, "selfplay")
    assert tracer.calls["agent.update"] == 2
