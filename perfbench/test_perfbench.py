"""Smoke tests of the benchmark at a tiny size (one sequence per workload).

Run from the repository root: python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import crftrack.tracker  # noqa: E402
from crftrack.errors import NumericalError  # noqa: E402
from run import result_line  # noqa: E402
from spans import leftover_wrappers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {name: replace(w, sequences=1, train_sequences=1, epochs=1)
        for name, w in bench.WORKLOADS.items()}


def tiny_run(name, tmp_path, trace):
    workdir = tmp_path / f"{name}-{int(trace)}"
    workdir.mkdir()
    return bench.run_workload(TINY[name], seed=3, seconds=0.0, trace=trace,
                              workdir=workdir, import_s=0.0)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert set(bench.MOVES) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", list(TINY))
def test_every_end_to_end_metric_has_its_unit(name, tmp_path):
    report = tiny_run(name, tmp_path, trace=False)
    assert report["correct"], report["checks"]
    line = result_line([report])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert set(report["reported"]) == set(bench.REPORTED_UNITS)
    assert set(report["reference_ms_after"]) == {"track", "eval", "dataset", "sgd"}


def test_trace_keeps_decisions_and_removes_wrappers(tmp_path):
    original_step = crftrack.tracker.step
    plain = tiny_run("battery", tmp_path, trace=False)
    traced = tiny_run("battery", tmp_path, trace=True)
    assert traced["checks"]["trace_keeps_decisions"]["passed"]
    assert traced["checks"]["no_wrapper_left"]["passed"]
    assert traced["decisions_sha256"] == plain["decisions_sha256"]
    assert leftover_wrappers() == []
    assert crftrack.tracker.step is original_step
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: traced["units"][k] for k in traced["metrics"]} == wanted
    assert set(traced["moves"]) == set(wanted)
    assert traced["metrics"]["factor_graph.max_product_calls"] > 0
    assert traced["metrics"]["tracker.decision_agreement"] == 1.0


def test_failed_step_is_counted_and_fails_the_checks(tmp_path, monkeypatch):
    step = crftrack.tracker.step

    def failing(state, frame, *args, **kwargs):
        if frame == 50 and kwargs.get("inference") == "exact":
            raise NumericalError("injected")
        return step(state, frame, *args, **kwargs)

    monkeypatch.setattr(crftrack.tracker, "step", failing)
    report = tiny_run("battery", tmp_path, trace=False)
    assert not report["correct"]
    assert not report["checks"]["loopy_exact_agree"]["passed"]
    assert report["checks"]["track_flow_matches_run"]["passed"]
    frames = report["frame_samples"]
    assert report["failed"] == report["rounds"] * (frames - 49)
    assert report["reported"]["error_rate"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "battery",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
