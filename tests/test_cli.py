import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abr_arena import cli, workload
from abr_arena.agent import Agent, AgentConfig
from abr_arena.workload import SynthManifestConfig, synth_manifest


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    if capsys is None:
        return code, "", ""
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_manifest(tmp_path, num_chunks=4):
    manifest = synth_manifest(SynthManifestConfig(num_chunks=num_chunks), seed=0)
    path = tmp_path / "video.json"
    workload.save_manifest(manifest, path)
    return path


def write_traces(tmp_path, count=3, seed=5):
    out = tmp_path / "traces"
    code = cli.main(["synth-traces", "--count", str(count), "--seed", str(seed),
                     "--out", str(out), "--duration-s", "60"])
    assert code == 0
    return out


def test_synth_traces_naming_and_determinism(tmp_path, capsys):
    out = tmp_path / "traces"
    code, _, _ = run_cli("synth-traces", "--count", "3", "--seed", "7",
                         "--out", str(out), capsys=capsys)
    assert code == 0
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == ["trace_0000.json", "trace_0001.json", "trace_0002.json"]
    first = [(p.name, p.read_bytes()) for p in sorted(out.glob("*.json"))]
    run_cli("synth-traces", "--count", "3", "--seed", "7", "--out", str(out),
            capsys=capsys)
    second = [(p.name, p.read_bytes()) for p in sorted(out.glob("*.json"))]
    assert first == second


def test_synth_traces_count_zero_fails(tmp_path, capsys):
    code, _, err = run_cli("synth-traces", "--count", "0", "--out",
                           str(tmp_path / "x"), capsys=capsys)
    assert code == 1
    assert "error:" in err


def test_convert_trace_round_trip(tmp_path, capsys):
    src = tmp_path / "log.txt"
    src.write_text("0 1.0\n2 2.0\n4 1.0\n")
    dst = tmp_path / "out.json"
    code, _, _ = run_cli("convert-trace", "--in", str(src), "--format",
                         "two-column-text", "--out", str(dst), capsys=capsys)
    assert code == 0
    converted = workload.load_trace(dst, "canonical-json")
    direct = workload.load_trace(src, "two-column-text")
    assert converted == direct


def test_convert_trace_empty_file_fails(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    code, _, err = run_cli("convert-trace", "--in", str(src), "--format",
                           "two-column-text", "--out", str(tmp_path / "o.json"),
                           capsys=capsys)
    assert code == 1
    assert "no data rows" in err


def test_unknown_flag_is_validation_error(tmp_path, capsys):
    code, _, err = run_cli("synth-traces", "--count", "1", "--out",
                           str(tmp_path / "t"), "--bogus", capsys=capsys)
    assert code == 1
    assert "error:" in err


def train_config_doc(tmp_path, epochs=1):
    traces_dir = write_traces(tmp_path, count=5)
    manifest_path = write_manifest(tmp_path)
    return {
        "schema_version": 1,
        "seed": 3,
        "epochs": epochs,
        "matches_per_epoch": 2,
        "eval_every": 1,
        "checkpoint_every": 1,
        "baselines": ["constrained", "throughput"],
        "traces": {"dir": str(traces_dir)},
        "split": {"train": 0.6, "validation": 0.4},
        "manifest": {"path": str(manifest_path)},
        "session": {"buffer_capacity_s": 25.0, "history_len": 4},
    }


def test_train_end_to_end_and_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(train_config_doc(tmp_path, epochs=5)))
    out = tmp_path / "run"
    # --epochs overrides the config value of 5.
    code, stdout, _ = run_cli("train", "--config", str(config), "--out", str(out),
                              "--epochs", "1", capsys=capsys)
    assert code == 0
    assert "trained 1 epochs" in stdout
    lines = (out / "epochs.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header, anchor row, one epoch
    assert (out / "eval.jsonl").exists()
    # The checkpoint train wrote is what evaluate reads.
    code, stdout, _ = run_cli(
        "evaluate", "--checkpoint", str(out / "agent0_final.ckpt"),
        "--traces", str(tmp_path / "traces"), "--manifest", str(tmp_path / "video.json"),
        "--baselines", "constrained", "--out", str(tmp_path / "eval.jsonl"), capsys=capsys)
    assert code == 0
    assert "constrained" in stdout
    assert len((tmp_path / "eval.jsonl").read_text().splitlines()) == 5


def test_train_epochs_zero_logs_anchor_only(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(train_config_doc(tmp_path, epochs=0)))
    out = tmp_path / "zero"
    code, _, _ = run_cli("train", "--config", str(config), "--out", str(out),
                         capsys=capsys)
    assert code == 0
    assert len((out / "epochs.csv").read_text().strip().splitlines()) == 2


def test_train_rejects_bad_schema(tmp_path, capsys):
    doc = train_config_doc(tmp_path)
    doc["schema_version"] = 99
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    code, _, err = run_cli("train", "--config", str(config), "--out",
                           str(tmp_path / "r"), capsys=capsys)
    assert code == 1
    assert "schema_version" in err
    doc = train_config_doc(tmp_path)
    doc["unexpected"] = True
    config.write_text(json.dumps(doc))
    code, _, err = run_cli("train", "--config", str(config), "--out",
                           str(tmp_path / "r"), capsys=capsys)
    assert code == 1


def test_train_rejects_removed_workers_key_and_flag(tmp_path, capsys):
    doc = train_config_doc(tmp_path)
    doc["workers"] = 2
    config = tmp_path / "workers.json"
    config.write_text(json.dumps(doc))
    code, _, err = run_cli("train", "--config", str(config), "--out",
                           str(tmp_path / "r"), capsys=capsys)
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "workers" in lines[0]
    assert not (tmp_path / "r").exists()
    del doc["workers"]
    config.write_text(json.dumps(doc))
    code, _, err = run_cli("train", "--config", str(config), "--out", str(tmp_path / "r"),
                           "--workers", "2", capsys=capsys)
    assert code == 1
    assert err.strip().startswith("error:") and "--workers" in err
    assert not (tmp_path / "r").exists()


def test_evaluate_checkpoint(tmp_path, capsys):
    traces_dir = write_traces(tmp_path, count=3)
    manifest_path = write_manifest(tmp_path)
    ckpt = tmp_path / "agent.ckpt"
    Agent(AgentConfig(history_len=4, num_levels=6), seed=0).save(ckpt)
    out = tmp_path / "eval.jsonl"
    code, stdout, _ = run_cli(
        "evaluate", "--checkpoint", str(ckpt), "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--baselines", "constrained",
        "--out", str(out), capsys=capsys)
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3  # |traces| x |baselines|
    assert "constrained" in stdout
    # Multiple baselines multiply the record count.
    code, _, _ = run_cli(
        "evaluate", "--checkpoint", str(ckpt), "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--baselines", "constrained,throughput",
        "--out", str(out), capsys=capsys)
    assert code == 0
    assert len(out.read_text().splitlines()) == 6


def test_evaluate_unknown_baseline(tmp_path, capsys):
    traces_dir = write_traces(tmp_path, count=2)
    manifest_path = write_manifest(tmp_path)
    ckpt = tmp_path / "agent.ckpt"
    Agent(AgentConfig(history_len=4, num_levels=6), seed=0).save(ckpt)
    code, _, err = run_cli(
        "evaluate", "--checkpoint", str(ckpt), "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--baselines", "mpc",
        "--out", str(tmp_path / "o.jsonl"), capsys=capsys)
    assert code == 1
    assert "constrained" in err and "throughput" in err


def test_tournament(tmp_path, capsys):
    traces_dir = write_traces(tmp_path, count=4)
    manifest_path = write_manifest(tmp_path)
    out = tmp_path / "ratings.json"
    code, stdout, _ = run_cli(
        "tournament", "--policies", "constrained,throughput", "--traces",
        str(traces_dir), "--manifest", str(manifest_path), "--out", str(out),
        capsys=capsys)
    assert code == 0
    ratings = json.loads(out.read_text())["ratings"]
    assert set(ratings) == {"constrained", "throughput"}
    assert sum(ratings.values()) == pytest.approx(2000.0, abs=1e-6)
    code, _, err = run_cli(
        "tournament", "--policies", "constrained", "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--out", str(out), capsys=capsys)
    assert code == 1


@pytest.mark.parametrize("policies", ["bola,bola", "bola,throughput,bola"])
def test_tournament_rejects_repeated_policy(tmp_path, capsys, policies):
    traces_dir = write_traces(tmp_path, count=2)
    manifest_path = write_manifest(tmp_path)
    out = tmp_path / "ratings.json"
    code, stdout, err = run_cli(
        "tournament", "--policies", policies, "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--out", str(out), capsys=capsys)
    assert code == 1
    assert "elo" not in stdout
    assert_one_error_line(err, "'bola'", "twice")
    assert not out.exists()


def test_evaluate_rejects_repeated_baseline(tmp_path, capsys):
    traces_dir = write_traces(tmp_path, count=2)
    manifest_path = write_manifest(tmp_path)
    ckpt = tmp_path / "agent.ckpt"
    Agent(AgentConfig(history_len=4, num_levels=6), seed=0).save(ckpt)
    out = tmp_path / "eval.jsonl"
    code, stdout, err = run_cli(
        "evaluate", "--checkpoint", str(ckpt), "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--baselines", "constrained,bola,constrained",
        "--out", str(out), capsys=capsys)
    assert code == 1
    assert "win_rate" not in stdout
    assert_one_error_line(err, "'constrained'", "twice")
    assert not out.exists()


def test_evaluate_rejects_ladder_size_mismatch(tmp_path, capsys):
    traces_dir = write_traces(tmp_path, count=2)
    manifest_path = write_manifest(tmp_path)  # six levels
    ckpt = tmp_path / "agent.ckpt"
    Agent(AgentConfig(history_len=4, num_levels=5), seed=0).save(ckpt)
    out = tmp_path / "eval.jsonl"
    code, stdout, err = run_cli(
        "evaluate", "--checkpoint", str(ckpt), "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--baselines", "constrained",
        "--out", str(out), capsys=capsys)
    assert code == 1
    assert "win_rate" not in stdout
    assert_one_error_line(err, str(manifest_path), str(ckpt), " 6 ", " 5")
    assert not out.exists()


def test_train_rejects_negative_epochs_flag(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(train_config_doc(tmp_path)))
    code, stdout, err = run_cli("train", "--config", str(config), "--out",
                                str(tmp_path / "r"), "--epochs", "-3", capsys=capsys)
    assert code == 1
    assert "trained" not in stdout
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "epochs" in lines[0]
    assert not (tmp_path / "r").exists()


def test_train_rejects_duplicate_baselines(tmp_path, capsys):
    doc = train_config_doc(tmp_path)
    doc["baselines"] = ["bola", "bola"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, stdout, err = run_cli("train", "--config", str(config), "--out",
                                str(tmp_path / "r"), capsys=capsys)
    assert code == 1
    assert "trained" not in stdout
    assert_one_error_line(err, "baselines", "distinct")
    assert not (tmp_path / "r").exists()


def test_synth_traces_defaults_come_from_config(tmp_path, capsys):
    out = tmp_path / "traces"
    code, _, _ = run_cli("synth-traces", "--count", "2", "--seed", "4", "--out", str(out),
                         "--bw-max-kbps", "900", capsys=capsys)
    assert code == 0
    cfg = workload.SynthTraceConfig(bandwidth_max_kbps=900.0)
    for i in range(2):
        expected = workload.synth_trace(cfg, 4 + i, trace_id=f"trace_{i:04d}")
        assert workload.load_trace(out / f"trace_{i:04d}.json", "canonical-json") == expected


def checkpoint_entries():
    """A small agent's checkpoint entries: the decoded meta object and the
    named arrays."""
    agent = Agent(AgentConfig(history_len=4, num_levels=6), seed=0)
    meta = {"kind": "abr-arena-agent", "agent_config": dataclasses.asdict(agent.config),
            "rating": 1000.0}
    return {"meta": meta, **agent.arrays()}


def flip_array_byte(blob):
    data = checkpoint_entries()["trunk.throughput.weight"].tobytes()
    at = blob.index(data) + len(data) // 2
    return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]


def assert_evaluate_refuses(tmp_path, capsys, ckpt, *words):
    traces_dir = write_traces(tmp_path, count=2)
    manifest_path = write_manifest(tmp_path)
    code, _, err = run_cli(
        "evaluate", "--checkpoint", str(ckpt), "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--out", str(tmp_path / "o.jsonl"), capsys=capsys)
    assert code == 1
    assert_one_error_line(err, str(ckpt), *words)


def refuses_edited_entries(tmp_path, capsys, edit, words):
    """Save the small agent's entries after ``edit``, then run evaluate on them."""
    entries = checkpoint_entries()
    edit(entries)
    if "meta" in entries:
        entries["meta"] = np.array(json.dumps(entries["meta"]))
    ckpt = tmp_path / "agent.ckpt"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **entries)
    assert_evaluate_refuses(tmp_path, capsys, ckpt, *words)


@pytest.mark.parametrize("edit,words", [
    (lambda e: e.pop("meta"), ["meta"]),
    (lambda e: e.update(meta=["abr-arena-agent"]), ["not an agent checkpoint"]),
    (lambda e: e["meta"]["agent_config"].update(bogus=1), ["metadata", "bogus"]),
    (lambda e: e["meta"].update(rating=[1000.0]), ["metadata"]),
], ids=["no-meta", "meta-not-an-object", "unknown-agent-config-key", "rating-not-a-number"])
def test_evaluate_rejects_bad_checkpoint_metadata(tmp_path, capsys, edit, words):
    refuses_edited_entries(tmp_path, capsys, edit, words)


def set_entry(name, value):
    """An edit that writes ``value`` into the first element of array ``name``."""
    def edit(entries):
        entries[name].flat[0] = value
    return edit


@pytest.mark.parametrize("edit,words", [
    (lambda e: e.pop("policy_head.2.bias"), ["missing arrays ['policy_head.2.bias']"]),
    (lambda e: e.update({"policy_head.3.bias": np.zeros(6, np.float32)}),
     ["unexpected arrays ['policy_head.3.bias']"]),
    (lambda e: e.update({"policy_head.2.bias": np.zeros(7, np.float32)}),
     ["policy_head.2.bias", "(7,)"]),
    (lambda e: e.update({"policy_head.2.bias": np.zeros(6)}), ["policy_head.2.bias", "float64"]),
    (lambda e: e.update({"policy_head.2.bias": np.zeros(6, object)}), ["pickle"]),
    (set_entry("policy_head.0.weight", np.nan), ["policy_head.0.weight", "non-finite"]),
    (set_entry("trunk.throughput.bias", np.inf), ["trunk.throughput.bias", "non-finite"]),
    (set_entry("gem_generator.1.running_var", -1.0), ["gem_generator.1.running_var", "negative"]),
], ids=["missing-array", "extra-array", "wrong-shape", "wrong-dtype", "object-array",
        "nan-weight", "inf-bias", "negative-running-var"])
def test_evaluate_rejects_mismatched_checkpoint_arrays(tmp_path, capsys, edit, words):
    refuses_edited_entries(tmp_path, capsys, edit, words)


@pytest.mark.parametrize("damage,words", [
    (lambda blob: b"not a checkpoint\n", ["not an agent checkpoint"]),
    (lambda blob: b"TYTS" + struct.pack("<II", 1, 2) + b"{}", ["not an agent checkpoint"]),
    (lambda blob: blob[:-17], ["truncated"]),
    (lambda blob: blob + b"\x00" * 4, ["4 trailing bytes"]),
    (flip_array_byte, ["CRC", "trunk.throughput.weight"]),
], ids=["not-a-zip", "format-1-file", "truncated", "trailing-bytes", "flipped-array-byte"])
def test_evaluate_rejects_damaged_checkpoint_file(tmp_path, capsys, damage, words):
    ckpt = tmp_path / "agent.ckpt"
    Agent(AgentConfig(history_len=4, num_levels=6), seed=0).save(ckpt)
    ckpt.write_bytes(damage(ckpt.read_bytes()))
    assert_evaluate_refuses(tmp_path, capsys, ckpt, *words)


def assert_one_error_line(err, *words):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert all(word in lines[0] for word in words), lines[0]


@pytest.mark.parametrize("flag,value", [
    ("--latency-s", "nan"), ("--latency-s", "inf"), ("--buffer-capacity-s", "nan"),
])
def test_tournament_rejects_non_finite_session_flags(tmp_path, capsys, flag, value):
    traces_dir = write_traces(tmp_path, count=2)
    out = tmp_path / "ratings.json"
    code, _, err = run_cli(
        "tournament", "--policies", "constrained,throughput", "--traces", str(traces_dir),
        "--manifest", str(write_manifest(tmp_path)), "--out", str(out), flag, value,
        capsys=capsys)
    assert code == 1
    assert_one_error_line(err, "finite", value)
    assert not out.exists()


@pytest.mark.parametrize("flag,value,words", [
    ("--duration-s", "inf", ["finite", "inf"]),
    ("--mean-dwell-s", "inf", ["finite", "inf"]),
    ("--num-states", "0", ["num_states", ">= 1"]),
    ("--duration-s", "1e-10", ["duration_s", "1e-10"]),
], ids=["--duration-s", "--mean-dwell-s", "--num-states", "--duration-s-too-short"])
def test_synth_traces_rejects_non_finite_durations(tmp_path, capsys, flag, value, words):
    out = tmp_path / "traces"
    code, _, err = run_cli("synth-traces", "--count", "2", "--out", str(out), flag, value,
                           capsys=capsys)
    assert code == 1
    assert_one_error_line(err, *words)
    assert not out.exists()


def test_synth_traces_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "traces"
    code, _, err = run_cli("synth-traces", "--count", "2", "--seed", "-5", "--out", str(out),
                           capsys=capsys)
    assert code == 1
    assert_one_error_line(err, "--seed", "-5")
    assert not out.exists()


@pytest.mark.parametrize("target,keys,value,word", [
    ("trace", ("samples", 0, "duration_s"), "x", "float"),
    ("trace", ("samples", 0, "bandwidth_kbps"), -5.0, "bandwidth"),
    ("manifest", ("ladder_kbps", 1), "x", "float"),
    ("manifest", ("chunk_sizes_bits", 0, 0), "x", "float"),
])
def test_malformed_trace_or_manifest_names_its_file(tmp_path, capsys, target, keys, value,
                                                    word):
    traces_dir = write_traces(tmp_path, count=2)
    manifest_path = write_manifest(tmp_path)
    path = traces_dir / "trace_0001.json" if target == "trace" else manifest_path
    doc = json.loads(path.read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(doc))
    out = tmp_path / "ratings.json"
    capsys.readouterr()
    code, stdout, err = run_cli(
        "tournament", "--policies", "constrained,throughput", "--traces", str(traces_dir),
        "--manifest", str(manifest_path), "--out", str(out), capsys=capsys)
    assert code == 1
    assert_one_error_line(err, str(path), word)
    assert not out.exists()
    assert stdout == ""


@pytest.mark.parametrize("section,key,value", [
    ("session", "per_chunk_latency_s", float("nan")),
    ("session", "buffer_capacity_s", float("inf")),
    ("agent", "time_scale_s", float("nan")),
    ("agent", "policy_lr", float("inf")),
    ("agent", "entropy_weight", float("nan")),
])
def test_train_rejects_non_finite_config_values(tmp_path, capsys, section, key, value):
    doc = train_config_doc(tmp_path)
    doc.setdefault(section, {})[key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))  # Python's json writes and reads NaN/Infinity
    code, _, err = run_cli("train", "--config", str(config), "--out",
                           str(tmp_path / "r"), capsys=capsys)
    assert code == 1
    assert_one_error_line(err, "finite")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["evaluate", "tournament"])
@pytest.mark.parametrize("field", ["ladder_kbps", "chunk_duration_s"])
def test_non_finite_manifest_is_rejected(tmp_path, capsys, command, field):
    doc = workload.manifest_to_json(synth_manifest(SynthManifestConfig(num_chunks=4), seed=0))
    if field == "ladder_kbps":
        doc["ladder_kbps"][2] = float("nan")
    else:
        doc["chunk_duration_s"] = float("nan")
    manifest_path = tmp_path / "video.json"
    manifest_path.write_text(json.dumps(doc))
    traces_dir = write_traces(tmp_path, count=2)
    out = tmp_path / "out.json"
    if command == "evaluate":
        ckpt = tmp_path / "agent.ckpt"
        Agent(AgentConfig(history_len=4, num_levels=6), seed=0).save(ckpt)
        args = ("evaluate", "--checkpoint", str(ckpt))
    else:
        args = ("tournament", "--policies", "constrained,throughput")
    code, _, err = run_cli(*args, "--traces", str(traces_dir), "--manifest",
                           str(manifest_path), "--out", str(out), capsys=capsys)
    assert code == 1
    assert_one_error_line(err, "manifest", "finite")
    assert not out.exists()


@pytest.mark.parametrize("capacity", ["4.0", "2.5"])
@pytest.mark.parametrize("command", ["tournament", "evaluate", "train"])
def test_buffer_capacity_must_exceed_chunk_duration(tmp_path, capsys, command, capacity):
    # The manifest's chunks last 4 s; the simulator refuses a buffer that
    # cannot hold more than one chunk. Three traces leave train one to validate on.
    traces_dir = write_traces(tmp_path, count=3)
    manifest_path = write_manifest(tmp_path)
    out = tmp_path / "out.json"
    args = ["--traces", str(traces_dir), "--manifest", str(manifest_path),
            "--buffer-capacity-s", capacity]
    if command == "tournament":
        args += ["--policies", "constrained,throughput"]
    elif command == "evaluate":
        ckpt = tmp_path / "agent.ckpt"
        Agent(AgentConfig(history_len=10, num_levels=6), seed=0).save(ckpt)
        args += ["--checkpoint", str(ckpt), "--baselines", "constrained,bola"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            **synthetic_config_doc(), "traces": {"dir": str(traces_dir)},
            "manifest": {"path": str(manifest_path)},
            "session": {"buffer_capacity_s": float(capacity)}}))
        args = ["--config", str(config)]
    capsys.readouterr()
    code, stdout, err = run_cli(command, *args, "--out", str(out), capsys=capsys)
    assert code == 1
    assert_one_error_line(err, "buffer capacity", "chunk duration")
    assert not out.exists()
    assert stdout == ""


@pytest.mark.parametrize("command", ["train", "evaluate", "tournament"])
def test_duplicate_trace_ids_are_rejected(tmp_path, capsys, command):
    # Six trace files, two of which carry the id trace_0000: keyed by id,
    # one of them would be dropped without a word.
    traces_dir = write_traces(tmp_path, count=6)
    duplicate = traces_dir / "trace_0005.json"
    doc = json.loads(duplicate.read_text())
    doc["id"] = "trace_0000"
    duplicate.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "train":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**train_config_doc(tmp_path / "unused"),
                                      "traces": {"dir": str(traces_dir)}}))
        args = ["--config", str(config)]
    else:
        args = ["--traces", str(traces_dir), "--manifest", str(write_manifest(tmp_path))]
        if command == "tournament":
            args += ["--policies", "constrained,throughput"]
        else:
            ckpt = tmp_path / "agent.ckpt"
            Agent(AgentConfig(history_len=10, num_levels=6), seed=0).save(ckpt)
            args += ["--checkpoint", str(ckpt)]
    capsys.readouterr()
    code, stdout, err = run_cli(command, *args, "--out", str(out), capsys=capsys)
    assert code == 1
    assert_one_error_line(err, "duplicate", "'trace_0000'", str(traces_dir / "trace_0000.json"),
                          str(duplicate))
    assert not out.exists()
    assert stdout == ""


def synthetic_config_doc():
    """A tiny train config that draws its traces and video from the synthetic
    generators, touching every config section."""
    return {
        "schema_version": 1,
        "seed": 3,
        "epochs": 1,
        "matches_per_epoch": 2,
        "eval_every": 1,
        "checkpoint_every": 1,
        "baselines": ["constrained", "throughput"],
        "split": {"train": 0.6, "validation": 0.4},
        "traces": {"synthetic": {"count": 4, "seed": 1, "duration_s": 60.0,
                                 "bandwidth_min_kbps": 500.0, "bandwidth_max_kbps": 3000.0}},
        "manifest": {"synthetic": {"num_chunks": 4, "seed": 2}},
        "session": {"buffer_capacity_s": 25.0, "history_len": 4},
        "agent": {"discount": 0.9},
    }


_DELETE = object()


def edit_at(doc, path, value):
    """Set the key at dotted ``path`` to ``value``, or delete it for ``_DELETE``."""
    *parents, key = path.split(".")
    for parent in parents:
        doc = doc[parent]
    if value is _DELETE:
        del doc[key]
    else:
        doc[key] = value


MALFORMED_CONFIGS = [
    # (edited key, new value, key path the error names)
    *[(key, 1, key) for key in (
        "bogus", "split.bogus", "traces.bogus", "traces.synthetic.bogus", "manifest.bogus",
        "manifest.synthetic.bogus", "session.bogus", "agent.bogus")],
    ("epochs", True, "epochs"),
    ("epochs", 1.5, "epochs"),
    ("epochs", -1, "epochs"),
    ("seed", "3", "seed"),
    ("baselines", "bola", "baselines"),
    ("baselines", ["bola"], "baselines"),
    ("baselines", ["bola", "bola", "throughput"], "baselines: baseline 'bola' is named twice"),
    ("split", [0.6, 0.4], "split"),
    ("split.train", "0.6", "split.train"),
    ("split.validation", 1.5, "split"),
    # The default 0.8/0.2 split of 4 traces validates on none of them.
    ("split", _DELETE, "split.validation: selects none of the 4 traces"),
    ("traces", [], "traces"),
    ("traces.synthetic", 4, "traces.synthetic"),
    ("traces.synthetic.duration_s", "60", "traces.synthetic.duration_s"),
    ("traces.synthetic.num_states", 0, "traces.synthetic"),
    ("traces.synthetic.bandwidth_min_kbps", 0.0, "traces.synthetic"),
    ("traces.synthetic.duration_s", 1e-10, "traces.synthetic"),
    ("manifest", "video.json", "manifest"),
    ("manifest.synthetic.ladder_kbps", [300.0, "x"], "manifest.synthetic.ladder_kbps"),
    ("manifest.synthetic.ladder_kbps", [300.0], "manifest.synthetic"),
    ("manifest.synthetic.num_chunks", True, "manifest.synthetic.num_chunks"),
    ("session", "x", "session"),
    ("session.buffer_capacity_s", True, "session.buffer_capacity_s"),
    ("session.history_len", 2.0, "session.history_len"),
    ("agent", [], "agent"),
    ("agent.reward_mode", 1, "agent.reward_mode"),
    ("agent.reward_mode", "sparse", "agent"),
    ("agent.discount", 0.0, "agent"),
    ("schema_version", _DELETE, "schema_version"),
    ("schema_version", 2, "schema_version"),
    ("schema_version", "1", "schema_version"),
    ("schema_version", True, "schema_version"),
    ("epochs", _DELETE, "epochs"),
    ("traces", _DELETE, "traces"),
    ("manifest", _DELETE, "manifest"),
    ("traces.dir", "traces", "traces"),
    ("traces", {}, "traces"),
    ("manifest.path", "video.json", "manifest"),
    ("manifest", {}, "manifest"),
    ("traces.synthetic.count", 1, "traces.synthetic.count"),
    ("traces.synthetic.count", 4.5, "traces.synthetic.count"),
    ("seed", -1, "seed"),
    ("traces.synthetic.seed", -1, "traces.synthetic.seed"),
    ("manifest.synthetic.seed", -2, "manifest.synthetic.seed"),
    ("seed", 1.5, "seed"),
    ("traces.synthetic.seed", 2.5, "traces.synthetic.seed"),
    ("agent.history_len", 4, "agent.history_len"),
    ("agent.num_levels", 6, "agent.num_levels"),
    # Values the agent cannot take are named where the config sets them.
    ("session.history_len", 2, "session.history_len"),
    ("manifest.synthetic.ladder_kbps", [300.0, 1000.0], "manifest.synthetic.ladder_kbps"),
]


@pytest.mark.parametrize("key,value,path", MALFORMED_CONFIGS,
                         ids=[f"{key}={value!r}" if value is not _DELETE else f"no-{key}"
                              for key, value, _ in MALFORMED_CONFIGS])
def test_train_rejects_malformed_config(tmp_path, capsys, key, value, path):
    doc = synthetic_config_doc()
    edit_at(doc, key, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, stdout, err = run_cli("train", "--config", str(config), "--out", str(tmp_path / "r"),
                                capsys=capsys)
    assert code == 1
    assert stdout == ""
    assert_one_error_line(err)
    assert err.startswith(f"error: config: {path}"), err
    assert not (tmp_path / "r").exists()


def test_train_names_manifest_path_with_too_few_levels(tmp_path, capsys):
    manifest = synth_manifest(SynthManifestConfig(num_chunks=4, ladder_kbps=(300.0, 1000.0)),
                              seed=0)
    workload.save_manifest(manifest, tmp_path / "video.json")
    doc = {**synthetic_config_doc(), "manifest": {"path": str(tmp_path / "video.json")}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, _, err = run_cli("train", "--config", str(config), "--out", str(tmp_path / "r"),
                           capsys=capsys)
    assert code == 1
    assert_one_error_line(err, "error: config: manifest.path:", "got 2")
    assert not (tmp_path / "r").exists()


def test_train_rejects_config_that_is_not_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps([synthetic_config_doc()]))
    code, _, err = run_cli("train", "--config", str(config), "--out", str(tmp_path / "r"),
                           capsys=capsys)
    assert code == 1
    assert_one_error_line(err, "error: config:", "object")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key", ["epochs", "seed", "matches_per_epoch", "traces.synthetic.count",
                                 "manifest.synthetic.num_chunks", "session.history_len"])
def test_train_rejects_integral_float_for_integer_key(tmp_path, capsys, key):
    # 4.0 is a JSON number but not an integer: range() and the seed streams refuse it.
    doc = synthetic_config_doc()
    edit_at(doc, key, 4.0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, _, err = run_cli("train", "--config", str(config), "--out", str(tmp_path / "r"),
                           capsys=capsys)
    assert code == 1
    assert_one_error_line(err, f"error: config: {key}: expected integer, got 4.0")
    assert not (tmp_path / "r").exists()


def test_train_runs_without_jsonschema(tmp_path):
    doc = {**synthetic_config_doc(), "epochs": 0}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    script = ("import sys; sys.modules['jsonschema'] = None; from abr_arena.cli import main; "
              f"sys.exit(main(['train', '--config', {str(config)!r}, '--out', "
              f"{str(tmp_path / 'r')!r}]))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "r" / "epochs.csv").exists()
