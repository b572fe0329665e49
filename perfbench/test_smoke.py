"""Smoke test of the benchmark at tiny input size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced with ``--tiny`` and checks the
result line against BENCHMARK.json. It also checks that the benchmark
refuses to run without the package sources.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_meets_contract(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        for m in BENCHMARK["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dense_highway", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, None, "s"), ("b", 1.0, 4.0, 0, "s"),
             ("c", 2.0, 3.0, 1, "s"), ("d", 5.0, 6.0, 0, "s")]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    rows = tracing.by_name(spans)
    assert rows["a"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}


def test_batch_overhead_excludes_scenarios():
    spans = [("pipeline.run_batch", 0.0, 10.0, None, None),
             ("pipeline.run_pipeline", 0.0, 4.0, 0, "x-1"),
             ("pipeline.run_pipeline", 4.0, 9.0, 0, "y-2")]
    assert tracing.batch_overheads(spans) == [1.0]
