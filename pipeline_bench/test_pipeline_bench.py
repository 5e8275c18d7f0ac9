"""Smoke test of the pipeline benchmark on its levels-3 workloads.

    python3 -m pytest pipeline_bench/test_pipeline_bench.py -q

Checks that every metric of BENCHMARK.json prints by name with its
unit, that a seeded load passes the scaled comparison, that a tampered
reference CSV is reported as a failed column, and that the benchmark
exits non-zero without printing a result when the sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(root, workload, seed=0, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "pipeline_bench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def copy_bench(tmp_path, with_sources):
    shutil.copytree(HERE, tmp_path / "pipeline_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_sources:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    code, lines = bench(ROOT, workload, trace=trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    text = "\n".join(lines[:-1])
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        line = rf"^{re.escape(name)}\s+-?[\d.]+\s+{re.escape(unit)}\b"
        assert re.search(line, text, re.M), name
    assert re.search(r"^failed_ratio\s+0\.0+ ratio", text, re.M)


def test_seeded_load_matches_scaled_reference():
    code, lines = bench(ROOT, WORKLOADS[-1], seed=7)
    assert code == 0
    assert "load c=1.0 " not in "\n".join(lines)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("seed", [0, 7])
def test_tampered_reference_is_a_failed_column(tmp_path, seed):
    root = copy_bench(tmp_path, with_sources=True)
    workload = WORKLOADS[0]
    path = os.path.join(root, "pipeline_bench", "reference", "smoke",
                        workload, "rates_phi.csv")
    with open(path) as handle:
        lines = handle.read().splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[4] = f"{1.01 * float(cells[4]):.6e}"
    lines[-1] = ",".join(cells)
    with open(path, "w") as handle:
        handle.writelines(lines)

    code, out = bench(root, workload, seed=seed)
    assert code == 0
    result = json.loads(out[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(f"kappa={cells[2]} failed: rate CSV mismatch" in line
               for line in out)


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    root = copy_bench(tmp_path, with_sources=False)
    code, lines = bench(root, WORKLOADS[0])
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
