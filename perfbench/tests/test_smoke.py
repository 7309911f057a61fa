"""A short run of every workload through the real entry point, untraced
and traced, checking the result line the benchmark's consumers parse."""

import json
import os
import subprocess
import sys

import pytest

from metrics import END_TO_END, PER_LAYER, UNGATED, WORKLOADS

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


def run(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["attempted"] >= 1 and 0 <= doc["failed"] <= doc["attempted"]
    return doc


@pytest.mark.parametrize("workload", sorted({**WORKLOADS, **UNGATED}))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace))
    doc = result_of(proc)
    specs = END_TO_END if trace == 0 else PER_LAYER
    assert list(doc["metrics"]) == [m.name for m in specs]
    for m in specs:
        entry = doc["metrics"][m.name]
        assert entry["unit"] == m.unit and isinstance(entry["value"], float)
    if trace == 0:
        for m in END_TO_END:
            assert doc["metrics"][m.name]["value"] > 0, m.name
    if workload in WORKLOADS:
        # gated workloads are chosen so that no operation fails
        assert doc["correct"] and doc["failed"] == 0, proc.stdout
    for name in ("setup_s", "ok_frac") if trace == 0 else ("trace.overhead_pct",):
        assert name in proc.stdout  # the human table names every metric


def test_proc_run_leaves_no_segments_threads_or_processes():
    proc = run("--workload", "serve-proc", "--seed", "6", "--seconds", "1",
               "--trace", "1")
    result_of(proc)
    assert "leftovers: {'shm_segments': [], 'threads': [], 'processes': []}" \
        in proc.stdout


def test_gemm_trace_stages_cover_the_call():
    proc = run("--workload", "gemm-1k", "--seed", "7", "--seconds", "2",
               "--trace", "1")
    metrics = result_of(proc)["metrics"]
    assert 0.9 <= metrics["trace.stage_cover_frac"]["value"] <= 1.1
    assert metrics["core.ft_overhead_pct"]["value"] > 0
    assert metrics["baselines.classic_overhead_pct"]["value"] > 0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "gemm-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
