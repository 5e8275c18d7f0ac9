"""Paired benchmark runs of two trees: parent against change.

    python3 tools/bench_pairs.py --base REV_OR_DIR --head REV_OR_DIR \
        --out BENCH_name.json [--workloads W ...] [--seeds 3001-3010] \
        [--seconds 30] [--trace] [--smoke] [--workdir DIR]

``--base`` and ``--head`` are checkout directories, or git revisions of
the repository this script lives in, which are exported with ``git
archive`` into fresh directories under ``--workdir``.  For every
workload (default: all of BENCHMARK.json) and seed, the two sides run
``pipeline_bench/run.py --trace 0`` one after the other, the parent
first on even-indexed pairs and the change first on odd ones.  Each
end-to-end metric gets both sides' runs, their quartiles
(``statistics.quantiles``, inclusive method), the pairs the change
wins, the change of the median in percent, and the parent's
interquartile range.  ``--trace`` adds one ``--trace 1`` run per side
and workload at seed 0, whose per-layer metrics are stored as printed.
``--smoke`` passes ``--smoke`` on to ``run.py`` (levels-3 studies).
The JSON goes to ``--out``; progress goes to stderr.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """Seeds from '3001-3010' or '1,2,5'."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def checkout(spec, workdir):
    """(directory, label): ``spec`` itself, or revision ``spec`` exported."""
    if os.path.isdir(spec):
        path = os.path.abspath(spec)
        return path, os.path.basename(path)
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", spec],
                         check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    path = os.path.join(workdir, rev)
    if not os.path.isdir(path):
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                 check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(path, filter="data")
    return path, rev


def run_bench(tree, workload, seed, seconds, trace, smoke):
    """One ``run.py`` call in ``tree``; its result and its env line."""
    cmd = [sys.executable, os.path.join("pipeline_bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited with "
                         f"{proc.returncode}")
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def quartiles(runs):
    if len(runs) == 1:
        return runs[0], runs[0], runs[0]
    return tuple(statistics.quantiles(runs, n=4, method="inclusive"))


def summary(parent, change, lower_is_better):
    """Runs, quartiles and pair wins of one metric on both sides."""
    out = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = quartiles(runs)
        out[side] = {"runs": [round(r, 4) for r in runs], "q1": round(q1, 4),
                     "median": round(median, 4), "q3": round(q3, 4)}
    wins = sum((c < p) if lower_is_better else (c > p)
               for p, c in zip(parent, change))
    pm, cm = out["parent"]["median"], out["change"]["median"]
    out.update(change_wins=wins, pairs=len(parent),
               median_change_pct=round(100.0 * (cm - pm) / pm, 1),
               parent_iqr=round(out["parent"]["q3"] - out["parent"]["q1"], 4))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", default="3001-3010")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir")
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_pairs_")
    os.makedirs(workdir, exist_ok=True)
    sides = {}
    for side, spec in (("parent", args.base), ("change", args.head)):
        sides[side] = checkout(spec, workdir)
    with open(os.path.join(sides["change"][0], "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    env, result = {}, {"workloads": {}}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change")
            for side in order if i % 2 == 0 else order[::-1]:
                print(f"{workload} seed {seed} {side}", file=sys.stderr,
                      flush=True)
                record, env = run_bench(sides[side][0], workload, seed,
                                        args.seconds, False, args.smoke)
                runs[side].append(record)
        entry = {"seeds": seeds,
                 "all_correct": all(r["correct"] for side in runs.values()
                                    for r in side)}
        for key in ("failed", "attempted"):
            entry[f"{key}_columns"] = {side: sum(r[key] for r in records)
                                       for side, records in runs.items()}
        for name, better_lower in lower.items():
            values = {side: [r["metrics"][name]["value"] for r in records]
                      for side, records in runs.items()}
            entry[name] = summary(values["parent"], values["change"],
                                  better_lower)
        result["workloads"][workload] = entry

    if args.trace:
        result["trace_seed0"] = {}
        for workload in workloads:
            traced = {}
            for side in ("parent", "change"):
                record, env = run_bench(sides[side][0], workload, 0,
                                        args.seconds, True, args.smoke)
                traced[side] = {"correct": record["correct"],
                                "failed": record["failed"],
                                **{name: round(m["value"], 4)
                                   for name, m in record["metrics"].items()}}
            result["trace_seed0"][workload] = traced

    smoke = " --smoke" if args.smoke else ""
    header = {
        "command": f"python3 pipeline_bench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0{smoke}",
        "machine": f"{env.get('nproc')} CPUs, "
                   f"{env.get('mem_available_mb')} MB available, numpy "
                   f"{env.get('numpy')}, scipy {env.get('scipy')}, Python "
                   f"{platform.python_version()}",
        "protocol": f"{len(seeds)} pairs per workload, seeds {args.seeds}, "
                    "parent and change run alternately (parent first on "
                    "even-indexed pairs), each side from its own checkout; "
                    "quartiles by statistics.quantiles(method='inclusive')"
                    + ("; then one --trace 1 run per side and workload at "
                       "seed 0" if args.trace else ""),
        "parent": sides["parent"][1],
        "change": sides["change"][1],
    }
    with open(args.out, "w") as handle:
        json.dump({**header, **result}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
