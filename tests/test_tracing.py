"""Every abr_arena name the benchmark's tracer targets must still exist.

``perfbench/tracing.py`` patches functions and methods by name; it is loaded
here by path, so renaming or deleting a traced name fails this test instead
of only the benchmark's smoke script.
"""

import importlib.util
from pathlib import Path

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
