"""The benchmark's own output checks, run in tier-1.

``perfbench/workloads.py`` is loaded by path, as the benchmark loads it: the
full-size tournament's every round must reproduce the ratings recorded in
``tournament_golden.json`` (to 1e-9), and one toy self-play unit and one toy
evaluate unit must pass their checks with no failed match.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
