"""Span tracing of abr_arena layers, installed from outside the package.

The tracer replaces public functions and methods with timing wrappers while a
traced unit of work runs and puts the originals back afterwards. A name is
patched where callers look it up: ``selfplay`` and ``elo`` import
``run_session`` and ``judge`` by name, so those bindings are patched in the
importing modules. Spans are kept in memory as (id, name, start, end,
parent, unit, self time) and written out when the run ends. Self time is a
span's duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import csv
import gzip
from collections import defaultdict
from time import perf_counter

BUCKETS = ("b1", "b2-128", "b129up")


def bucket(batch: int) -> str:
    if batch <= 1:
        return BUCKETS[0]
    return BUCKETS[1] if batch <= 128 else BUCKETS[2]


def _batch_arg(index: int):
    return lambda args: bucket(args[index].shape[0])


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.unit = -1
        self.record_spans = True  # aggregates are kept either way
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets: list[tuple] = []

    # ---- patching --------------------------------------------------------

    def target(self, owner, attr: str, name: str, *, batch=None, probe=None) -> None:
        """Register ``owner.attr`` to be traced as ``name``.

        ``batch`` maps the call's positional arguments to a bucket suffix;
        ``probe`` is called with the arguments before the call and returns a
        callback that receives the result.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {attr!r}")
        self._targets.append((owner, attr, name, batch, probe))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, batch, probe in self._targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, batch, probe))
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, batch, probe):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name if batch is None else f"{name}.{batch(args)}"
            after = probe(args) if probe is not None else None
            frame = tracer._enter(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = original
        return traced

    # ---- spans -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans) + len(self._stack), name, parent, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        span_id, name, parent, children, start = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        own = duration - children
        if self.record_spans:
            self.spans.append((span_id, name, start, end, parent, self.unit, own))
        self.calls[name] += 1
        self.self_s[name] += own
        self.total_s[name] += duration

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def write_spans(self, path) -> None:
        """Write every span as gzip-compressed CSV, ordered by span id."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start_s", "end_s", "parent", "unit", "self_s"))
            writer.writerows(sorted(self.spans))


def register_layers(tracer: Tracer) -> None:
    """Register every traced abr_arena function under its metric name."""
    from abr_arena import agent, baselines, elo, gem, neural, selfplay, simulator

    for cls, short in ((neural.Conv1D, "conv1d"), (neural.Dense, "dense"),
                       (neural.BatchNorm, "batchnorm")):
        tracer.target(cls, "forward", f"neural.{short}.forward", batch=_batch_arg(1))
        tracer.target(cls, "backward", f"neural.{short}.backward", batch=_batch_arg(2))
    tracer.target(neural.Adam, "step", "neural.adam.step")
    tracer.target(neural.RMSProp, "step", "neural.rmsprop.step")

    def probe_agent_update(args):
        opt = args[0].policy_opt
        t_before = opt.t
        return lambda _: tracer.count("agent.update.applied", opt.t > t_before)

    for method in ("act", "build_update_batch", "flatten_trajectory"):
        tracer.target(agent.Agent, method, f"agent.{method}")
    tracer.target(agent.Agent, "update", "agent.update", probe=probe_agent_update)
    tracer.target(agent, "normalize", "agent.normalize")

    def probe_gem_update(args):
        tracer.count("gem.buffer.len", len(args[0].buffer))
        return lambda report: tracer.count("gem.update.skipped", report.skipped)

    tracer.target(gem.GemModule, "hidden_for", "gem.hidden_for")
    tracer.target(gem.GemModule, "collect", "gem.collect")
    tracer.target(gem.GemModule, "update", "gem.update", probe=probe_gem_update)

    tracer.target(simulator.Session, "step", "simulator.step")
    tracer.target(simulator.Session, "observe", "simulator.observe")
    for module in (selfplay, elo):
        tracer.target(module, "run_session", "simulator.run_session")
        tracer.target(module, "judge", "rule.judge")

    for policy in ("bola", "throughput_rule", "dynamic_dash", "constrained"):
        tracer.target(baselines, policy, f"baselines.{policy}")

    tracer.target(elo, "update", "elo.update")
    tracer.target(elo, "anchor_baselines", "elo.anchor_baselines")
    tracer.target(selfplay, "rate_agent", "elo.rate_agent")
    for function in ("run_match", "run_epoch", "evaluate"):
        tracer.target(selfplay, function, f"selfplay.{function}")


COUNTERS = ("agent.update.applied", "gem.update.skipped")


def layer_metrics(tracer: Tracer, units: int, names) -> dict[str, float]:
    """Per-unit layer metrics for each requested metric name.

    ``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.total_s`` and the
    counters are divided by the number of traced units. ``<counter>_ratio``
    divides a counter by its layer's call count, and ``gem.buffer.len`` is
    the mean buffer length seen by ``gem.update``; both are 0 where the layer
    was never called, as is every metric of a layer never called.
    """
    values: dict[str, float] = {}
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls / units
        values[f"{name}.self_s"] = tracer.self_s[name] / units
        values[f"{name}.total_s"] = tracer.total_s[name] / units
    for counter in COUNTERS:
        calls = tracer.calls[counter.rsplit(".", 1)[0]]
        values[counter] = tracer.counters[counter] / units
        values[f"{counter}_ratio"] = tracer.counters[counter] / calls if calls else 0.0
    gem_updates = tracer.calls["gem.update"]
    values["gem.buffer.len"] = (
        tracer.counters["gem.buffer.len"] / gem_updates if gem_updates else 0.0)
    return {name: values.get(name, 0.0) for name in names}
