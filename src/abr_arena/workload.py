"""Network traces, video manifests, and dataset partitioning.

Traces are piecewise-constant bandwidth timelines; manifests describe one
video (bitrate ladder plus per-chunk sizes). Both have a canonical JSON
format, and traces can additionally be read from two-column text logs
(``time_s throughput_mbps`` per line).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

TRACE_FORMATS = ("canonical-json", "two-column-text")


@dataclass(frozen=True)
class Trace:
    """Piecewise-constant bandwidth timeline, replayed in a loop.

    ``samples`` is an ordered sequence of (duration_s, bandwidth_kbps)
    pairs; both entries must be positive.
    """

    id: str
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.samples:
            raise ValueError(f"trace {self.id!r}: empty sample list")
        for i, (dur, bw) in enumerate(self.samples):
            if not (math.isfinite(dur) and dur > 0):
                raise ValueError(f"trace {self.id!r}: sample {i} has non-positive duration {dur}")
            if not (math.isfinite(bw) and bw > 0):
                raise ValueError(f"trace {self.id!r}: sample {i} has non-positive bandwidth {bw}")

    @cached_property
    def bandwidths_kbps(self) -> np.ndarray:
        return np.array([b for _, b in self.samples], dtype=np.float64)

    @cached_property
    def _segment_ends(self) -> np.ndarray:
        return np.cumsum([d for d, _ in self.samples], dtype=np.float64)

    @property
    def total_duration_s(self) -> float:
        return float(self._segment_ends[-1])


_WINDOW = 16  # segments that one pass of the trace walk integrates


class TraceTable:
    """The segments of many looping traces end to end, row i's from index
    ``first[i]``: each segment's start and end in the loop, and its bit/s."""

    def __init__(self, traces: Sequence[Trace]):
        self.segments = np.array([len(trace.samples) for trace in traces])
        self.first = np.cumsum(self.segments) - self.segments
        self.ends = np.concatenate([trace._segment_ends for trace in traces])
        self.starts = np.concatenate([[0.0], self.ends[:-1]])
        self.starts[self.first] = 0.0
        self.bps = np.concatenate([trace.bandwidths_kbps for trace in traces]) * 1000.0
        self.total_s = self.ends[self.first + self.segments - 1]
        # Complex numbers order lexicographically, so one searchsorted over
        # (row, segment end) pairs finds every row's segment at once.
        self._rows = np.arange(len(traces), dtype=complex)
        self._keys = np.repeat(self._rows, self.segments)
        self._keys.imag = self.ends

    def transfer_times(self, start_s: np.ndarray, size_bits: np.ndarray) -> np.ndarray:
        """Exact time (s) to move ``size_bits[i]`` over looping trace i from
        ``start_s[i]``, integrating its piecewise-constant bandwidth.

        Each download sees the float64 operations of a walk that takes one
        segment at a time, in the same order. Each pass integrates the next
        ``_WINDOW`` segments of every unfinished download.
        """
        if not (0 <= start_s.min() and start_s.max() < math.inf):
            raise ValueError(f"start times must be finite and >= 0, got {start_s}")
        pos = np.fmod(start_s, self.total_s)
        query = self._rows.copy()
        query.imag = pos
        rows, first, count = np.arange(len(pos)), self.first, self.segments
        seg = np.searchsorted(self._keys, query, side="right") - first
        remaining, elapsed, tau = size_bits, np.zeros(len(pos)), np.empty(len(pos))
        while True:
            flat = first[:, None] + (seg[:, None] + np.arange(_WINDOW)) % count[:, None]
            seg_left = self.ends[flat] - self.starts[flat]
            seg_left[:, 0] = self.ends[flat[:, 0]] - pos  # the pass starts at pos
            capacity = self.bps[flat] * seg_left
            # Column w holds the bits left and the time spent on entering
            # segment w, accumulated in sequence as the walk does. A download
            # ends in the first segment that fits it; a later pass redoes the rest.
            remaining = np.subtract.accumulate(
                np.concatenate((remaining[:, None], capacity), axis=1), axis=1)
            elapsed = np.add.accumulate(np.concatenate((elapsed[:, None], seg_left), axis=1), axis=1)
            fits = capacity >= remaining[:, :-1]
            last = np.arange(len(rows)), fits.argmax(axis=1)
            tau[rows] = elapsed[last] + remaining[last] / self.bps[flat[last]]
            go = ~fits[last]
            if not go.any():
                return tau
            rows, first, count = rows[go], first[go], count[go]
            seg = (seg[go] + _WINDOW) % count
            pos = self.starts[first + seg]
            remaining, elapsed = remaining[go, -1], elapsed[go, -1]


def _trace_from_json(doc: dict, source: str) -> Trace:
    try:
        samples = tuple(
            (float(s["duration_s"]), float(s["bandwidth_kbps"])) for s in doc["samples"]
        )
        return Trace(id=str(doc["id"]), samples=samples)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{source}: malformed canonical trace JSON ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def _trace_from_two_column(text: str, source: str) -> Trace:
    times: list[float] = []
    mbps: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{source}: line {lineno}: expected 2 columns, got {len(fields)}")
        try:
            t, bw = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise ValueError(f"{source}: line {lineno}: non-numeric field") from exc
        if not math.isfinite(t):
            raise ValueError(f"{source}: line {lineno}: non-finite timestamp {t}")
        if times and t <= times[-1]:
            raise ValueError(f"{source}: line {lineno}: timestamp {t} not increasing")
        if not (math.isfinite(bw) and bw > 0):
            raise ValueError(f"{source}: line {lineno}: non-positive throughput {bw}")
        times.append(t)
        mbps.append(bw)
    if not times:
        raise ValueError(f"{source}: no data rows")
    # The final row has no successor timestamp; give it the mean of the
    # preceding durations (1 s when it is the only row).
    durations = [b - a for a, b in zip(times, times[1:])]
    durations.append(sum(durations) / len(durations) if durations else 1.0)
    samples = tuple((d, b * 1000.0) for d, b in zip(durations, mbps))
    return Trace(id=Path(source).stem, samples=samples)


def load_trace(path: str | Path, format: str = "canonical-json") -> Trace:
    """Read a trace file in one of the named formats."""
    if format not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {format!r}; expected one of {TRACE_FORMATS}")
    path = Path(path)
    text = path.read_text()
    if format == "canonical-json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
        return _trace_from_json(doc, str(path))
    return _trace_from_two_column(text, str(path))


def trace_to_json(trace: Trace) -> dict:
    return {
        "id": trace.id,
        "samples": [
            {"duration_s": d, "bandwidth_kbps": b} for d, b in trace.samples
        ],
    }


def save_trace(trace: Trace, path: str | Path) -> None:
    Path(path).write_text(json.dumps(trace_to_json(trace), indent=2) + "\n")


@dataclass(frozen=True)
class SynthTraceConfig:
    """Markov-chain bandwidth generator settings."""

    num_states: int = 4
    bandwidth_min_kbps: float = 350.0
    bandwidth_max_kbps: float = 4800.0
    mean_dwell_s: float = 10.0
    duration_s: float = 320.0

    def __post_init__(self):
        if self.num_states < 1:
            raise ValueError(f"num_states must be >= 1, got {self.num_states}")
        lo, hi = self.bandwidth_min_kbps, self.bandwidth_max_kbps
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"need 0 < bandwidth_min_kbps <= bandwidth_max_kbps < inf, "
                             f"got {lo} and {hi}")
        if not (math.isfinite(self.mean_dwell_s) and self.mean_dwell_s > 0):
            raise ValueError(f"mean_dwell_s must be finite and > 0, got {self.mean_dwell_s}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be finite and > 0, got {self.duration_s}")


def synth_trace(cfg: SynthTraceConfig, seed, trace_id: str | None = None) -> Trace:
    """Generate a synthetic trace from a hidden-state Markov chain.

    Each hidden state holds a bandwidth level drawn uniformly from the
    configured range; dwell times are exponential with the configured mean.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    levels = rng.uniform(cfg.bandwidth_min_kbps, cfg.bandwidth_max_kbps, size=cfg.num_states)
    state = int(rng.integers(cfg.num_states))
    samples: list[tuple[float, float]] = []
    t = 0.0
    while t < cfg.duration_s - 1e-9:
        dwell = float(rng.exponential(cfg.mean_dwell_s))
        dur = min(max(dwell, 1e-3), cfg.duration_s - t)
        samples.append((dur, float(levels[state])))
        t += dur
        state = int(rng.integers(cfg.num_states))
    name = trace_id if trace_id is not None else f"synth-{seed}"
    return Trace(id=name, samples=tuple(samples))


@dataclass(frozen=True)
class DatasetSplit:
    train: frozenset[str]
    validation: frozenset[str]
    test: frozenset[str]


def split_dataset(trace_ids, ratios: tuple[float, float], seed) -> DatasetSplit:
    """Seeded shuffle-then-partition of trace ids into train/validation/test.

    ``ratios`` gives the (train, validation) fractions; the leftover ratio is
    the test share. Each bucket gets the floor of its share and any remaining
    ids join the training set.
    """
    ids = sorted(trace_ids)
    if not ids:
        raise ValueError("empty trace-id set")
    r_train, r_val = ratios
    if not (0 < r_train < 1 and 0 < r_val < 1):
        raise ValueError(f"ratios must be in (0,1), got {ratios}")
    if r_train + r_val > 1 + 1e-12:
        raise ValueError(f"ratios sum {r_train + r_val} exceeds 1")
    n = len(ids)
    n_train = int(r_train * n + 1e-9)
    n_val = int(r_val * n + 1e-9)
    n_test = int(max(0.0, 1.0 - r_train - r_val) * n + 1e-9)
    n_train += n - (n_train + n_val + n_test)
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(n)]
    return DatasetSplit(
        train=frozenset(order[:n_train]),
        validation=frozenset(order[n_train:n_train + n_val]),
        test=frozenset(order[n_train + n_val:]),
    )


@dataclass(frozen=True)
class Manifest:
    """One video: chunk duration, bitrate ladder, per-chunk per-level sizes."""

    id: str
    chunk_duration_s: float
    ladder_kbps: tuple[float, ...]
    chunk_sizes_bits: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not (math.isfinite(self.chunk_duration_s) and self.chunk_duration_s > 0):
            raise ValueError(f"manifest {self.id!r}: non-finite or non-positive chunk duration")
        if len(self.ladder_kbps) < 2:
            raise ValueError(f"manifest {self.id!r}: ladder needs >= 2 levels")
        if any(not (math.isfinite(b) and b > 0) for b in self.ladder_kbps):
            raise ValueError(f"manifest {self.id!r}: ladder has a non-finite or non-positive rung")
        if any(b >= a for a, b in zip(self.ladder_kbps[1:], self.ladder_kbps)):
            raise ValueError(f"manifest {self.id!r}: ladder not strictly increasing")
        if not self.chunk_sizes_bits:
            raise ValueError(f"manifest {self.id!r}: zero chunks")
        n = len(self.ladder_kbps)
        for c, row in enumerate(self.chunk_sizes_bits):
            if len(row) != n:
                raise ValueError(f"manifest {self.id!r}: chunk {c} has {len(row)} sizes, expected {n}")
            if any(not (math.isfinite(s) and s > 0) for s in row):
                raise ValueError(f"manifest {self.id!r}: chunk {c} has a non-positive size")

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_sizes_bits)

    @property
    def num_levels(self) -> int:
        return len(self.ladder_kbps)

    @property
    def total_duration_s(self) -> float:
        return self.num_chunks * self.chunk_duration_s

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array(self.chunk_sizes_bits, dtype=np.float64)


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
        return Manifest(
            id=str(doc["id"]),
            chunk_duration_s=float(doc["chunk_duration_s"]),
            ladder_kbps=tuple(float(x) for x in doc["ladder_kbps"]),
            chunk_sizes_bits=tuple(tuple(float(s) for s in row) for row in doc["chunk_sizes_bits"]),
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed manifest JSON ({exc})") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def manifest_to_json(manifest: Manifest) -> dict:
    return {
        "id": manifest.id,
        "chunk_duration_s": manifest.chunk_duration_s,
        "ladder_kbps": list(manifest.ladder_kbps),
        "chunk_sizes_bits": [list(row) for row in manifest.chunk_sizes_bits],
    }


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    Path(path).write_text(json.dumps(manifest_to_json(manifest), indent=2) + "\n")


@dataclass(frozen=True)
class SynthManifestConfig:
    ladder_kbps: tuple[float, ...] = (300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0)
    num_chunks: int = 16
    chunk_duration_s: float = 4.0
    vbr_jitter: float = 0.0

    def __post_init__(self):
        if self.num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {self.num_chunks}")
        if not 0 <= self.vbr_jitter < 1:
            raise ValueError(f"vbr_jitter must be in [0,1), got {self.vbr_jitter}")


def synth_manifest(cfg: SynthManifestConfig, seed, manifest_id: str | None = None) -> Manifest:
    """Build a manifest with sizes = bitrate x duration x jitter factor."""
    rng = np.random.default_rng(seed)
    ladder = np.asarray(cfg.ladder_kbps, dtype=np.float64)
    base = ladder * cfg.chunk_duration_s * 1000.0
    jitter = rng.uniform(1.0 - cfg.vbr_jitter, 1.0 + cfg.vbr_jitter,
                         size=(cfg.num_chunks, ladder.size))
    sizes = base[None, :] * jitter
    name = manifest_id if manifest_id is not None else f"synth-video-{seed}"
    return Manifest(
        id=name,
        chunk_duration_s=cfg.chunk_duration_s,
        ladder_kbps=tuple(float(b) for b in ladder),
        chunk_sizes_bits=tuple(tuple(float(s) for s in row) for row in sizes),
    )
