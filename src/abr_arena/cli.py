"""Command-line surface: trace synthesis and conversion, self-play training,
checkpoint evaluation, and baseline round-robin tournaments.

Exit codes: 0 success, 1 validation error (bad arguments, bad config, bad
input files), 2 runtime error. Errors go to standard error as single
``error: ...`` lines.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema

from . import selfplay, workload
from .agent import Agent, AgentConfig
from .baselines import POLICY_NAMES, make_policy
from .elo import anchor_baselines
from .simulator import SessionConfig

CONFIG_SCHEMA_VERSION = 1

# Keys shared by the config file and the synth-traces / session flags; a key
# left out keeps its dataclass default.
SYNTH_TRACES_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "count": {"type": "integer", "minimum": 2},
        "seed": {"type": "integer", "minimum": 0},
        "num_states": {"type": "integer", "minimum": 1},
        "bandwidth_min_kbps": {"type": "number", "exclusiveMinimum": 0},
        "bandwidth_max_kbps": {"type": "number", "exclusiveMinimum": 0},
        "mean_dwell_s": {"type": "number", "exclusiveMinimum": 0},
        "duration_s": {"type": "number", "exclusiveMinimum": 0},
    },
}

SESSION_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "buffer_capacity_s": {"type": "number", "exclusiveMinimum": 0},
        "per_chunk_latency_s": {"type": "number", "minimum": 0},
        "history_len": {"type": "integer", "minimum": 1},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "epochs", "traces", "manifest"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": CONFIG_SCHEMA_VERSION},
        "seed": {"type": "integer", "minimum": 0},
        "epochs": {"type": "integer", "minimum": 0},
        "matches_per_epoch": {"type": "integer", "minimum": 1},
        "eval_every": {"type": "integer", "minimum": 1},
        "checkpoint_every": {"type": "integer", "minimum": 1},
        "baselines": {
            "type": "array", "minItems": 1,
            "items": {"enum": list(POLICY_NAMES)},
        },
        "split": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "train": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "validation": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "traces": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dir": {"type": "string"},
                "synthetic": SYNTH_TRACES_SCHEMA,
            },
            "oneOf": [{"required": ["dir"]}, {"required": ["synthetic"]}],
        },
        "manifest": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "synthetic": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "ladder_kbps": {
                            "type": "array", "minItems": 2, "items": {"type": "number"},
                        },
                        "num_chunks": {"type": "integer", "minimum": 1},
                        "chunk_duration_s": {"type": "number", "exclusiveMinimum": 0},
                        "vbr_jitter": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
                        "seed": {"type": "integer", "minimum": 0},
                    },
                },
            },
            "oneOf": [{"required": ["path"]}, {"required": ["synthetic"]}],
        },
        "session": SESSION_SCHEMA,
        "agent": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "discount": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "entropy_weight": {"type": "number", "minimum": 0},
                "policy_lr": {"type": "number", "exclusiveMinimum": 0},
                "value_lr": {"type": "number", "exclusiveMinimum": 0},
                "td_steps": {"type": "integer", "minimum": 1},
                "reward_mode": {"enum": ["broadcast", "terminal"]},
                "throughput_scale_kbps": {"type": "number", "exclusiveMinimum": 0},
                "time_scale_s": {"type": "number", "exclusiveMinimum": 0},
                "size_scale_bits": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}


class ValidationFailure(Exception):
    """Bad arguments, config, or input files (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationFailure(message)


def _load_traces_dir(directory: str | Path) -> list[workload.Trace]:
    directory = Path(directory)
    if not directory.is_dir():
        raise ValidationFailure(f"trace directory {directory} does not exist")
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ValidationFailure(f"no *.json traces in {directory}")
    traces = [workload.load_trace(p, "canonical-json") for p in paths]
    first_path = {}
    for path, trace in zip(paths, traces):
        if first_path.setdefault(trace.id, path) != path:
            raise ValidationFailure(
                f"duplicate trace id {trace.id!r} in {first_path[trace.id]} and {path}")
    return traces


def _flags(args, schema: dict) -> dict:
    """The flags given on the command line that the schema names."""
    return {key: value for key, value in vars(args).items() if key in schema["properties"]}


def _synth_traces(doc: dict, seed: int) -> list[workload.Trace]:
    """``count`` traces (20 if absent) named ``trace_0000``... from a
    synthetic-traces document; trace i uses seed ``doc["seed"] + i``, or
    ``seed + i`` if the document gives none."""
    doc = dict(doc)
    count, seed = doc.pop("count", 20), doc.pop("seed", seed)
    cfg = workload.SynthTraceConfig()
    lo, hi = cfg.bandwidth_range_kbps
    cfg = replace(cfg, bandwidth_range_kbps=(doc.pop("bandwidth_min_kbps", lo),
                                             doc.pop("bandwidth_max_kbps", hi)), **doc)
    return [workload.synth_trace(cfg, seed + i, trace_id=f"trace_{i:04d}")
            for i in range(count)]


def cmd_synth_traces(args) -> int:
    if args.count < 1:
        raise ValidationFailure(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ValidationFailure(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for trace in _synth_traces(_flags(args, SYNTH_TRACES_SCHEMA), args.seed):
        workload.save_trace(trace, out / f"{trace.id}.json")
    print(f"wrote {args.count} traces to {out}")
    return 0


def cmd_convert_trace(args) -> int:
    trace = workload.load_trace(args.infile, args.format)
    workload.save_trace(trace, args.out)
    print(f"wrote {args.out}")
    return 0


def _build_train_config(doc: dict) -> selfplay.TrainConfig:
    """The training config of a validated document; every key it leaves out
    keeps its dataclass default."""
    seed = doc.get("seed", selfplay.TrainConfig.seed)
    traces_doc = doc["traces"]
    if "dir" in traces_doc:
        traces = _load_traces_dir(traces_doc["dir"])
    else:
        traces = _synth_traces(traces_doc["synthetic"], seed)
    split_doc = doc.get("split", {})
    ratios = (split_doc.get("train", 0.8), split_doc.get("validation", 0.2))
    by_id = {t.id: t for t in traces}
    split = workload.split_dataset(by_id, ratios, seed)
    train_traces = [by_id[i] for i in sorted(split.train)]
    val_traces = [by_id[i] for i in sorted(split.validation)]
    if not val_traces:
        val_traces = train_traces

    manifest_doc = doc["manifest"]
    if "path" in manifest_doc:
        manifest = workload.load_manifest(manifest_doc["path"])
    else:
        syn = dict(manifest_doc["synthetic"])
        manifest_seed = syn.pop("seed", seed)
        if "ladder_kbps" in syn:
            syn["ladder_kbps"] = tuple(syn["ladder_kbps"])
        manifest = workload.synth_manifest(workload.SynthManifestConfig(**syn), manifest_seed)

    session = SessionConfig(**doc.get("session", {}))
    agent_cfg = AgentConfig(history_len=session.history_len, num_levels=manifest.num_levels,
                            **doc.get("agent", {}))
    options = {key: doc[key] for key in (
        "epochs", "seed", "matches_per_epoch", "eval_every", "checkpoint_every") if key in doc}
    if "baselines" in doc:
        options["baselines"] = tuple(doc["baselines"])
    return selfplay.TrainConfig(train_traces=train_traces, val_traces=val_traces,
                                manifest=manifest, session=session, agent=agent_cfg,
                                **options)


def cmd_train(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationFailure(f"cannot read config {args.config}: {exc}") from exc
    if isinstance(doc, dict):
        # --seed/--epochs override the file before validation, so they meet the schema too.
        doc.update(_flags(args, CONFIG_SCHEMA))
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValidationFailure(f"config schema violation: {exc.message}") from exc
    cfg = _build_train_config(doc)
    result = selfplay.train(cfg, args.out)
    print(f"trained {cfg.epochs} epochs; final Elo {result.final_rating:.2f}")
    print(f"log: {Path(args.out) / 'epochs.csv'}")
    return 0


def _parse_baselines(spec: str) -> list[str]:
    names = [n.strip() for n in spec.split(",") if n.strip()]
    if not names:
        raise ValidationFailure("no baseline names given")
    for i, name in enumerate(names):
        if name not in POLICY_NAMES:
            raise ValidationFailure(
                f"unknown baseline {name!r}; valid names: {', '.join(POLICY_NAMES)}")
        if name in names[:i]:
            raise ValidationFailure(f"baseline {name!r} is named twice")
    return names


def cmd_evaluate(args) -> int:
    names = _parse_baselines(args.baselines)
    agent = Agent.load(args.checkpoint)
    traces = _load_traces_dir(args.traces)
    manifest = workload.load_manifest(args.manifest)
    session = SessionConfig(**_flags(args, SESSION_SCHEMA),
                            history_len=agent.config.history_len)
    baselines = {name: make_policy(name, manifest, session) for name in names}
    result = selfplay.evaluate(agent, baselines, traces, manifest, session)
    with open(args.out, "w") as fh:
        for record in result.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    writer = csv.writer(sys.stdout)
    writer.writerow(["opponent", "win_rate"])
    for name, rate in result.win_rates.items():
        writer.writerow([name, repr(rate)])
    return 0


def cmd_tournament(args) -> int:
    names = _parse_baselines(args.policies)
    if len(names) < 2:
        raise ValidationFailure("tournament needs at least 2 policies")
    traces = _load_traces_dir(args.traces)
    manifest = workload.load_manifest(args.manifest)
    session = SessionConfig(**_flags(args, SESSION_SCHEMA))
    policies = {name: make_policy(name, manifest, session) for name in names}
    ratings = anchor_baselines(policies, traces, manifest, session)
    Path(args.out).write_text(json.dumps({"ratings": ratings}, sort_keys=True, indent=2) + "\n")
    writer = csv.writer(sys.stdout)
    writer.writerow(["policy", "elo"])
    for name, rating in sorted(ratings.items(), key=lambda kv: -kv[1]):
        writer.writerow([name, repr(rating)])
    return 0


def _add_session_flags(parser) -> None:
    parser.add_argument("--buffer-capacity-s", dest="buffer_capacity_s", type=float)
    parser.add_argument("--latency-s", dest="per_chunk_latency_s", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="abr-arena", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # An optional flag left out is absent from the parsed namespace, so the
    # config dataclasses' own defaults apply.
    optional = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("synth-traces", help="generate canonical-JSON traces", **optional)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--num-states", type=int)
    p.add_argument("--bw-min-kbps", dest="bandwidth_min_kbps", type=float)
    p.add_argument("--bw-max-kbps", dest="bandwidth_max_kbps", type=float)
    p.add_argument("--mean-dwell-s", type=float)
    p.add_argument("--duration-s", type=float)
    p.set_defaults(func=cmd_synth_traces)

    p = sub.add_parser("convert-trace", help="convert a trace to canonical JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=list(workload.TRACE_FORMATS), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert_trace)

    p = sub.add_parser("train", help="run self-play training from a JSON config", **optional)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint against baselines", **optional)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--baselines", default=",".join(POLICY_NAMES))
    p.add_argument("--out", required=True)
    _add_session_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tournament", help="round-robin Elo over baseline policies",
                       **optional)
    p.add_argument("--policies", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_session_flags(p)
    p.set_defaults(func=cmd_tournament)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationFailure, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
