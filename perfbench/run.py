"""abr-arena benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload selfplay --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``, never from an installed copy. The run sets up the
workload at least five times and for at least six seconds (the median is
``setup_s``), then repeats units of work for ``--seconds`` seconds, checking
every unit's output. After each set-up and each unit it times a fixed
reference block, and it reports times as on a host of the nominal reference
speed (see ``hostinfo.HostSpeed``). The last line of standard output is one
JSON object with ``correct``, ``attempted`` and ``failed`` (matches) and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``. A traced run alternates untraced
and traced units, so the layer numbers and the tracing overhead come from
the same stretch of time. Each run also writes a record (host, versions,
reference speeds, raw figures, every unit time) and, when traced, its spans
under ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS, pinned before numpy loads; the value is recorded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 5, 30, 6.0
MIN_UNITS = 3
SPAN_UNITS = 4  # traced units whose spans are kept, bounding memory and disk
REF_SHARE = 0.2  # reference-block time per second of measured work


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("selfplay", "evaluate", "tournament"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every workload at a tiny size (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import abr_arena from this checkout's src/; exit with status 1 if it
    is absent or another copy of the package would be imported."""
    src = ROOT / "src"
    if not (src / "abr_arena" / "__init__.py").is_file():
        sys.exit(f"error: no abr_arena package under {src}")
    sys.path.insert(0, str(src))
    import abr_arena
    if Path(abr_arena.__file__).resolve().parent != (src / "abr_arena").resolve():
        sys.exit(f"error: abr_arena imported from {abr_arena.__file__}, not {src}")


def run(args) -> dict:
    import hostinfo
    import tracing
    from workloads import SIZES, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    host = hostinfo.host_record(ROOT)

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], OUT_DIR)
    matches = workload.matches_per_unit()

    # Set-up covers input generation, construction, checkpointing and one
    # warm-up unit. It is repeated, for at least SETUP_MIN_S seconds, so
    # that its median is steady.
    setup_speed, timed_speed = hostinfo.HostSpeed(REF_SHARE), hostinfo.HostSpeed(REF_SHARE)
    setup_times, setup_failed = [], 0
    while len(setup_times) < SETUP_MIN_REPS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
        start = perf_counter()
        workload.setup()
        output = workload.run_unit(0)
        setup_times.append(perf_counter() - start)
        setup_speed.measure(setup_times[-1])
        setup_failed += workload.check(output)

    tracer = tracing.Tracer()
    if args.trace:
        tracing.register_layers(tracer)
    plain_times, traced_times = [], []
    attempted = failed = 0
    phase_start = perf_counter()
    index = 1
    while True:
        traced = bool(args.trace) and index % 2 == 0
        if traced:
            tracer.unit = index
            tracer.record_spans = len(traced_times) < SPAN_UNITS
            tracer.install()
        # Traced runs alternate untraced and traced units; each kind walks
        # through the inputs from the start, so both cover the same inputs.
        inputs = index // 2 if args.trace else index
        start = perf_counter()
        try:
            output = workload.run_unit(inputs)
        except Exception:  # a failing unit is counted, and the run goes on
            traceback.print_exc()
            output = None
        finally:
            elapsed = perf_counter() - start
            tracer.restore()
        (traced_times if traced else plain_times).append(elapsed)
        timed_speed.measure(elapsed)
        attempted += matches
        failed += matches if output is None else workload.check(output)
        index += 1
        enough = min(len(plain_times), len(traced_times) if args.trace else MIN_UNITS)
        if perf_counter() - phase_start >= args.seconds and enough >= MIN_UNITS:
            break

    steps = workload.steps_per_unit()
    raw = {
        "steps_per_s": steps * len(plain_times) / sum(plain_times),
        "setup_s": statistics.median(setup_times),
    }
    # Times are reported as on a host of the nominal reference speed; the
    # raw figures and the measured speeds are in the run record.
    values = {
        "steps_per_s": raw["steps_per_s"] / timed_speed.scale(),
        "setup_s": raw["setup_s"] * setup_speed.scale(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values.update(tracing.layer_metrics(tracer, len(traced_times), names))
        values["trace.units"] = len(traced_times)
        values["trace.steps_per_s_ratio"] = (
            sum(plain_times) * len(traced_times) / (sum(traced_times) * len(plain_times)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    host["ref_block_s"] = {"setup": setup_speed.block_s(), "timed": timed_speed.block_s()}
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args), "host": host, "steps_per_unit": steps,
        "matches_per_unit": matches, "raw": raw, "setup_s": setup_times,
        "unit_s": plain_times, "traced_unit_s": traced_times,
        "metrics": metrics, "setup_failed_matches": setup_failed,
    }
    if args.trace:
        record["layers"] = {name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name],
                                   "total_s": tracer.total_s[name]} for name in tracer.calls}
        record["counters"] = dict(tracer.counters)
        tracer.write_spans(OUT_DIR / f"spans-{tag}.csv.gz")
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# host " + json.dumps(host, sort_keys=True))
    print("# raw " + json.dumps(raw))
    return {
        "correct": failed == 0 and setup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
