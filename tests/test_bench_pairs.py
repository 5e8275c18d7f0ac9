"""Smoke test of the paired benchmark script on one levels-3 workload.

One pair of ``pipeline_bench/run.py --smoke`` runs, both sides on this
checkout, must give a JSON with both sides' runs of every end-to-end
metric of BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPT = os.path.join(ROOT, "tools", "bench_pairs.py")


def test_one_smoke_pair_against_one_checkout(tmp_path):
    out = tmp_path / "pairs.json"
    workload = "lshape-psp-k3-l5"
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--base", ROOT, "--head", ROOT,
         "--workloads", workload, "--seeds", "7", "--seconds", "1",
         "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["parent"] == result["change"]
    assert "pairs per workload" in result["protocol"]
    entry = result["workloads"][workload]
    assert entry["seeds"] == [7] and entry["all_correct"]
    assert entry["failed_columns"] == {"parent": 0, "change": 0}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = [m["name"] for m in json.load(handle)["end_to_end"]]
    for name in metrics:
        stats = entry[name]
        assert stats["pairs"] == 1 and 0 <= stats["change_wins"] <= 1
        for side in ("parent", "change"):
            (value,) = stats[side]["runs"]
            assert value > 0.0
            assert stats[side]["q1"] == stats[side]["median"] == value
