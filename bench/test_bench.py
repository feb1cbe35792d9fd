"""Smoke tests of the benchmark: tiny shapes of every workload, in seconds.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import dgn  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(run.WORKLOADS + run.UNLISTED)


def smoke(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_matches_the_runner():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = result_of(smoke(workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    for name, m in metrics.items():
        assert np.isfinite(m["value"]), name
        if not name.startswith("acc_"):
            assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_spans_nest(workload):
    metrics = result_of(smoke(workload, 1))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["model.train.s"]["value"] > 0
    assert metrics["nn.propagate.calls"]["value"] > 0
    if workload != "paper":
        assert metrics["cli.train.s"]["value"] > 0
        assert metrics["fileio.files_written"]["value"] > 0

    saved = np.load(ROOT / ".bench_out" / f"{workload}-seed1-trace1-smoke-spans.npz")
    spans = {k: saved[k] for k in ("name_id", "parent", "start", "end")}
    names = list(saved["names"])
    assert tr.check_nesting(spans) == []
    roots = spans["parent"] < 0
    root_names = {names[i] for i in spans["name_id"][roots]}
    assert root_names == {"stage.setup"} | {f"stage.{s}" for s in wl.STAGES}
    assert (tr.self_times(spans) >= -1e-9).all()


def test_cli_setup_writes_the_same_files_as_dgn_gen(tmp_path):
    w = wl.make("large-n", 3, tmp_path / "bench", smoke=True)
    w.setup()
    assert not [p for p in (tmp_path / "bench").rglob("*") if p.is_file()]
    w.write()
    s = w.shape
    assert dgn.cli.main([
        "gen", "--classes", str(s.classes), "--objects", str(s.objects), "--per-class", str(s.train_per_class),
        "--cells", str(s.cells), "--channels", str(s.channels), "--noise", repr(s.noise), "--seed", "3",
        "--out", str(tmp_path / "plain"),
    ]) == 0
    written = {p.relative_to(w.data): p.read_bytes() for p in w.data.rglob("*") if p.is_file()}
    plain = tmp_path / "plain"
    assert written == {p.relative_to(plain): p.read_bytes() for p in plain.rglob("*") if p.is_file()}


def test_self_time_excludes_children_and_uninstall_restores():
    original = dgn.graph.row_normalize
    t = tr.Tracer(dgn)
    semantics = np.array([0, 1, 1, 0])
    proto = dgn.Prototype(2, np.array([[0.0, 1.0], [1.0, 0.0]]), None, None, True, 2)
    features = dgn.FeatureMap(np.ones((2, 2, 3)))
    labels = dgn.LabelMap(semantics.reshape(2, 2), 2)
    with t.installed():
        assert dgn.graph.row_normalize is not original
        dgn.model.build_graph(features, labels, proto)
    assert dgn.graph.row_normalize is original
    spans = t.arrays()
    summary = tr.summarize(t.names, spans)
    build = summary["graph.build_graph"]
    children = sum(summary[n]["s"] for n in ("graph.flatten", "graph.extract_local_knowledge", "graph.row_normalize"))
    assert build["calls"] == 1
    assert build["self_s"] == pytest.approx(build["s"] - children, abs=1e-12)
    assert tr.check_nesting(spans) == []


def test_a_vanished_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(dgn.graph, "build_graph")
    monkeypatch.delattr(dgn.model, "build_graph")
    t = tr.Tracer(dgn)
    assert t.absent({"graph.build_graph", "graph.row_normalize"}) == ["graph.build_graph"]


def test_absent_target_metrics_are_left_out_not_zero(monkeypatch, capsys):
    # paper never runs the CLI, so removing a command only removes its span
    monkeypatch.delattr(dgn.cli, "cmd_gen")
    assert run.main(["--workload", "paper", "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("absent cli.gen") for line in out)
    metrics = json.loads(out[-1])["metrics"]
    assert "cli.gen.s" not in metrics
    assert "cli.iodp.s" in metrics


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("large-n", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
