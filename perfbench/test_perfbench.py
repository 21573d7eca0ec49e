"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

Checks that each run prints every metric BENCHMARK.json names, with its unit;
that spans nest; that the end-to-end numbers come from untraced experiments
only; and that the benchmark refuses to run without the package source.
"""

import csv
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload, trace, out, run_py=BENCH / "run.py"):
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), "--smoke", "--out", str(out)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def _results(workload, trace, out):
    proc = _run(workload, trace, out)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    stem = out / "results" / f"{workload}-seed{SEED}-trace{trace}"
    return last, json.loads(stem.with_suffix(".json").read_text(encoding="utf-8")), stem


def test_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == spans.LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics_from_untraced_experiments(workload, tmp_path):
    last, result, stem = _results(workload, 0, tmp_path)
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert result["experiments"] and not any(e["traced"] for e in result["experiments"])
    assert not Path(f"{stem}-spans.csv.gz").exists()
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu"} <= set(result["machine"])
    assert {"matrix_shape", "stored_bytes", "nnz_frac"} <= set(result["facts"])
    assert result["scale"] > 0 and len(result["calibration_passes"]) >= len(result["experiments"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layer_metrics_from_nested_spans(workload, tmp_path):
    last, result, stem = _results(workload, 1, tmp_path)
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    with gzip.open(f"{stem}-spans.csv.gz", "rt", newline="", encoding="ascii") as f:
        rows = list(csv.reader(f))[1:]
    assert rows and spans.nesting_problems(rows) == []
    traced = [e for e in result["experiments"] if e["traced"]]
    assert traced and all(int(r[0]) in {e["index"] for e in traced} for r in rows)
    # the untraced step count the end-to-end throughput uses matches the steps the trace counted
    e = traced[0]
    assert last["metrics"]["solver.steps"]["value"] == round(e["steps_per_s"] * e["solve_s"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, tmp_path / "out", run_py=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
