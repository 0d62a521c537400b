"""Record the tournament workload's reference outcomes.

Plays every pair of baselines on every trace of the fixed pool and writes
who won each match to ``tournament_golden.json``. The tournament workload
replays these outcomes through the Elo step to get the ratings that
``anchor_baselines`` must reproduce. The committed file was produced by the
abr_arena code the benchmark was defined against; rerun this only to
deliberately re-baseline the tournament check:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from abr_arena.baselines import POLICY_NAMES, make_policy  # noqa: E402
from abr_arena.rule import judge  # noqa: E402
from abr_arena.simulator import SessionConfig, run_session  # noqa: E402

from workloads import GOLDEN_PATH, golden_pool  # noqa: E402

POOL = {"pool_seed": 20181115, "pool_size": 64, "chunks": 48}


def main() -> int:
    golden = dict(POOL, policies=list(POLICY_NAMES))
    pool, manifest = golden_pool(golden)
    session = SessionConfig()
    policies = {name: make_policy(name, manifest, session) for name in POLICY_NAMES}
    outcomes = {}
    for i, a in enumerate(POLICY_NAMES):
        for b in POLICY_NAMES[i + 1:]:
            outcomes[f"{a}/{b}"] = [
                judge(run_session(policies[a], manifest, trace, session).metrics,
                      run_session(policies[b], manifest, trace, session).metrics).value
                for trace in pool
            ]
    golden["outcomes"] = outcomes
    GOLDEN_PATH.write_text(json.dumps(golden) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
