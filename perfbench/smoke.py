"""Smoke runs of the benchmark: short runs are correct, report every metric and
fail on wrong answers or a missing library.

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1",
                           "--seed", "3", *args],
                          cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300, check=False)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def copy_checkout(dest: Path, with_library: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for path in SPEC["paths"] + (["src"] if with_library else []):
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    return dest


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_is_correct(workload):
    proc = run(ROOT, "--workload", workload)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
    assert "failed_frac" in proc.stdout


def test_traced_run_reports_per_layer_metrics():
    proc = run(ROOT, "--workload", "lengths_12", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["holonomy.abs_trace_of_path.calls"]["value"] == 8 * 64 * 46
    assert res["metrics"]["holonomy.mp.calls"]["value"] == 0


@pytest.mark.parametrize("workload, ref", [("census_12", "census12_ref.json"),
                                           ("lengths_12", "lengths12_ref.json")])
def test_changed_answer_fails(tmp_path, workload, ref):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "data" / ref
    data = json.loads(path.read_text())
    if "screen_digests" in data:
        data["screen_digests"] = ["0" * 8 for _ in data["screen_digests"]]
    else:
        data["lengths"] = [[x * (1 + 1e-6) for x in row] for row in data["lengths"]]
    path.write_text(json.dumps(data))
    proc = run(root, "--workload", workload)
    assert proc.returncode == 1
    res = result(proc)
    assert not res["correct"] and res["failed"] == res["attempted"]


def test_fails_without_library(tmp_path):
    root = copy_checkout(tmp_path, with_library=False)
    proc = run(root, "--workload", "lengths_12")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
