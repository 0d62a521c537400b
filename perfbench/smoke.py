"""Toy-size smoke test of the benchmark; not part of the tier-1 test suite.

    python3 perfbench/smoke.py

Runs every workload at toy size with tracing off and on, checks the result
line against BENCHMARK.json and the layers each workload must (or must
not) reach, and checks that the benchmark refuses to run in a directory
without the package sources. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers that must be called (> 0) and must not be called (== 0) per workload.
REACHED = {
    "selfplay": ("agent.act", "agent.update", "gem.hidden_for", "gem.update",
                 "neural.adam.step", "neural.rmsprop.step", "selfplay.run_match",
                 "simulator.step", "rule.judge"),
    "evaluate": ("agent.act", "gem.hidden_for", "selfplay.evaluate", "elo.rate_agent",
                 "baselines.bola", "baselines.dynamic_dash", "simulator.run_session"),
    "tournament": ("elo.anchor_baselines", "elo.update", "rule.judge", "simulator.step",
                   "baselines.constrained", "baselines.throughput_rule"),
}
UNREACHED = {
    "selfplay": ("elo.anchor_baselines", "baselines.bola"),
    "evaluate": ("agent.update", "gem.update", "neural.adam.step", "selfplay.run_epoch"),
    "tournament": ("agent.", "gem.", "neural.", "selfplay."),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> list[str]:
    proc = run(workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if {name: m["unit"] for name, m in metrics.items()} != wanted:
        errors.append(f"{where}: metric names or units differ from BENCHMARK.json")
    if not trace:
        errors += [f"{where}: {name} is {m['value']}" for name, m in metrics.items()
                   if not m["value"] > 0]
        return errors
    calls = {name[:-len(".calls")]: m["value"] for name, m in metrics.items()
             if name.endswith(".calls")}
    for layer in REACHED[workload]:
        if not any(v > 0 for name, v in calls.items() if name.startswith(layer)):
            errors.append(f"{where}: {layer} never called")
    for prefix in UNREACHED[workload]:
        errors += [f"{where}: {name} called" for name, v in calls.items()
                   if name.startswith(prefix) and v != 0]
    return errors


def check_refuses_without_sources() -> list[str]:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("tournament", 0, cwd=Path(tmp))
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    errors = check_refuses_without_sources()
    for workload in REACHED:
        for trace in (0, 1):
            errors += check_result(workload, trace)
    for error in errors:
        print("FAIL", error)
    print("smoke:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
