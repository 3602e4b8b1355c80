"""Smoke tests of the benchmark itself.

Run from the repository root (the benchmark's files are not part of the
repository's own test suite)::

    python3 -m pytest perfbench -q

Every workload runs at smoke size in both modes and must emit exactly
the metrics ``BENCHMARK.json`` declares for that mode, each with its
unit, with correct outputs.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import percentile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    CONFIG = json.load(_f)

WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload: str, trace: str) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in
                CONFIG["per_layer" if trace == "1" else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.sum_err_frac"]["value"] <= 0.02
    env = json.loads(lines[0])["env"]
    for key in ("nproc", "python", "numpy", "batch", "start_method", "seed"):
        assert key in env


def test_refuses_to_run_without_program_sources(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_contract() -> None:
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert 2 <= len(CONFIG["workloads"]) <= 8
    assert 1 <= CONFIG["run_seconds"] <= 60
    names = [w["name"] for w in CONFIG["workloads"]]
    names += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in CONFIG["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in CONFIG["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in CONFIG["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])


def test_percentile_interpolates() -> None:
    assert percentile([], 50) == 0.0
    assert percentile([3.0], 99) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)
