"""Command-line surface: trace synthesis and conversion, self-play training,
checkpoint evaluation, and baseline round-robin tournaments.

Exit codes: 0 success, 1 validation error (bad arguments, bad config, bad
input files), 2 runtime error. Errors go to standard error as single
``error: ...`` lines.

Each ``train`` config section maps key for key onto a dataclass, and a key
left out keeps its default: the top level onto ``TrainConfig``, ``session``
onto ``SessionConfig``, ``agent`` onto ``AgentConfig`` less ``history_len`` and
``num_levels`` (the session's and the video's), ``traces.synthetic`` onto
``SynthTraceConfig``, ``manifest.synthetic`` onto ``SynthManifestConfig``.
Extra keys: ``schema_version`` (1), ``split.train``/``split.validation``
(default 0.8/0.2), ``traces.dir`` or ``traces.synthetic``, ``manifest.path`` or
``manifest.synthetic``, ``count`` (>= 2, default 20) in ``traces.synthetic``,
and ``seed`` (>= 0, default the top-level one) in both synthetic sections.
"""

from __future__ import annotations

import argparse
import collections.abc
import csv
import json
import sys
import typing
from pathlib import Path

from . import selfplay, workload
from .agent import CONV_KERNEL, Agent, AgentConfig
from .baselines import POLICY_NAMES, make_policy
from .elo import anchor_baselines
from .simulator import SessionConfig

CONFIG_SCHEMA_VERSION = 1

# Annotation -> JSON type name and the exact Python types of its values (never bool).
_JSON_TYPES = {int: ("integer", (int,)), float: ("number", (int, float)), str: ("string", (str,))}
# Integer config keys that no config dataclass checks, and their least values.
_MINIMUMS = {"seed": 0, "count": 2}


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


def _fields(cls, *omit: str) -> dict:
    """Field name -> type annotation of config dataclass ``cls``, less ``omit``."""
    return {name: hint for name, hint in typing.get_type_hints(cls).items() if name not in omit}


# Key -> JSON type annotation, or the keys of a section, of a train config.
CONFIG_FIELDS = _fields(selfplay.TrainConfig, "train_traces", "val_traces") | {
    "schema_version": int,
    "split": {"train": float, "validation": float},
    "traces": {"dir": str,
               "synthetic": _fields(workload.SynthTraceConfig) | {"count": int, "seed": int}},
    "manifest": {"path": str, "synthetic": _fields(workload.SynthManifestConfig) | {"seed": int}},
    "session": _fields(SessionConfig),
    "agent": _fields(AgentConfig, "history_len", "num_levels"),
}


def _flags(args, cls) -> dict:
    """The flags given on the command line that name fields of ``cls``."""
    return {key: getattr(args, key) for key in _fields(cls) if hasattr(args, key)}


def _synth_traces(cfg: workload.SynthTraceConfig, count: int, seed: int) -> list[workload.Trace]:
    """``count`` traces named ``trace_0000``...; trace i uses seed ``seed + i``."""
    return [workload.synth_trace(cfg, seed + i, trace_id=f"trace_{i:04d}") for i in range(count)]


def cmd_synth_traces(args) -> int:
    if args.count < 1:
        raise ValidationFailure(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ValidationFailure(f"--seed must be >= 0, got {args.seed}")
    cfg = workload.SynthTraceConfig(**_flags(args, workload.SynthTraceConfig))
    traces = _synth_traces(cfg, args.count, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        workload.save_trace(trace, out / f"{trace.id}.json")
    print(f"wrote {args.count} traces to {out}")
    return 0


def cmd_convert_trace(args) -> int:
    trace = workload.load_trace(args.infile, args.format)
    workload.save_trace(trace, args.out)
    print(f"wrote {args.out}")
    return 0


def _config_error(path: str, message: str) -> ValidationFailure:
    return ValidationFailure(f"config: {path}: {message}" if path else f"config: {message}")


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose ValueError becomes a config error at ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _config_error(path, str(exc)) from exc


def _section(doc, path: str, fields: dict) -> dict:
    """Config section ``path``: an object whose keys name ``fields`` and whose
    values have their field's JSON type; a dict of fields is a nested section."""
    if not isinstance(doc, dict):
        raise _config_error(path, f"expected an object, got {json.dumps(doc)}")
    section = {}
    for key, value in doc.items():
        where, hint = f"{path}.{key}" if path else key, fields.get(key)
        if hint is None:
            raise _config_error(where, f"unknown key; valid keys: {', '.join(fields)}")
        if isinstance(hint, dict):
            section[key] = _section(value, where, hint)
            continue
        array = typing.get_origin(hint) in (tuple, collections.abc.Sequence)
        name, types = _JSON_TYPES[typing.get_args(hint)[0] if array else hint]
        if isinstance(value, list) != array or any(
                type(v) not in types for v in (value if array else [value])):
            raise _config_error(where, f"expected {'array of ' if array else ''}{name}, "
                                       f"got {json.dumps(value)}")
        if key in _MINIMUMS and value < _MINIMUMS[key]:
            raise _config_error(where, f"must be >= {_MINIMUMS[key]}, got {value}")
        section[key] = tuple(value) if array else value
    return section


def _build_train_config(doc) -> selfplay.TrainConfig:
    """The training config of a config document, checked section by section."""
    top = _section(doc, "", CONFIG_FIELDS)
    for key in ("schema_version", "epochs", "traces", "manifest"):
        if key not in top:
            raise _config_error(key, "missing")
    for key in ("traces", "manifest"):
        if len(top[key]) != 1:
            raise _config_error(key, f"needs exactly one of {' or '.join(CONFIG_FIELDS[key])}")
    if (version := top.pop("schema_version")) != CONFIG_SCHEMA_VERSION:
        raise _config_error("schema_version", f"must be {CONFIG_SCHEMA_VERSION}, got {version}")
    seed = top.pop("seed", selfplay.TrainConfig.seed)
    traces_doc = top.pop("traces")
    if "dir" in traces_doc:
        traces = _load_traces_dir(traces_doc["dir"])
    else:
        synth_doc = traces_doc["synthetic"]
        count, traces_seed = synth_doc.pop("count", 20), synth_doc.pop("seed", seed)
        traces = _checked("traces.synthetic", _synth_traces,
                          _checked("traces.synthetic", workload.SynthTraceConfig, **synth_doc),
                          count, traces_seed)
    manifest_doc = top.pop("manifest")
    if "path" in manifest_doc:
        manifest, ladder = workload.load_manifest(manifest_doc["path"]), "manifest.path"
    else:
        path, video_doc = "manifest.synthetic", manifest_doc["synthetic"]
        video_seed = video_doc.pop("seed", seed)
        manifest = _checked(path, workload.synth_manifest,
                            _checked(path, workload.SynthManifestConfig, **video_doc), video_seed)
        ladder = "manifest.synthetic.ladder_kbps"
    # The agent's kernel spans CONV_KERNEL bitrate levels and history steps.
    if manifest.num_levels < CONV_KERNEL:
        raise _config_error(ladder, f"the agent needs >= {CONV_KERNEL} bitrate levels, "
                                    f"got {manifest.num_levels}")
    session = _checked("session", SessionConfig, **top.pop("session", {}))
    if session.history_len < CONV_KERNEL:
        raise _config_error("session.history_len", f"the agent needs >= {CONV_KERNEL}, "
                                                   f"got {session.history_len}")
    agent_cfg = _checked("agent", AgentConfig, history_len=session.history_len,
                         num_levels=manifest.num_levels, **top.pop("agent", {}))
    by_id = {t.id: t for t in traces}
    split_doc = top.pop("split", {})
    split = _checked("split", workload.split_dataset, by_id,
                     (split_doc.get("train", 0.8), split_doc.get("validation", 0.2)), seed)
    train_traces = [by_id[i] for i in sorted(split.train)]
    val_traces = [by_id[i] for i in sorted(split.validation)] or train_traces
    return _checked("", selfplay.TrainConfig, train_traces=train_traces, val_traces=val_traces,
                    manifest=manifest, session=session, agent=agent_cfg, seed=seed, **top)


def cmd_train(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationFailure(f"cannot read config {args.config}: {exc}") from exc
    if isinstance(doc, dict):
        # --seed/--epochs override the file before the checks, so they meet them too.
        doc.update(_flags(args, selfplay.TrainConfig))
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
        if name in names[:i]:
            raise ValidationFailure(f"baseline {name!r} is named twice")
    return names


def cmd_evaluate(args) -> int:
    names = _parse_baselines(args.baselines)
    agent = Agent.load(args.checkpoint)
    traces = _load_traces_dir(args.traces)
    manifest = workload.load_manifest(args.manifest)
    if manifest.num_levels != agent.config.num_levels:
        raise ValueError(f"manifest {args.manifest} has {manifest.num_levels} bitrate levels, "
                         f"checkpoint {args.checkpoint} plays {agent.config.num_levels}")
    session = SessionConfig(**_flags(args, SessionConfig),
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
    traces = _load_traces_dir(args.traces)
    manifest = workload.load_manifest(args.manifest)
    session = SessionConfig(**_flags(args, SessionConfig))
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
