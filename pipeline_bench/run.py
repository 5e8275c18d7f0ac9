"""Pipeline benchmark: what a user of ``biharm run`` waits for.

    python3 pipeline_bench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--smoke]

Run from the root of a checkout.  Every study runs in a fresh child
process (``study.py``), started one at a time, with BLAS and OpenMP
pinned to one thread; a study uses at most ``min(jobs, nproc)`` threads.
The seed picks the load constant c in ``f = const:c`` (seed 0: c = 1).

``--trace 0`` runs whole studies, at least one, starting another only
while one more like the last still ends within ``--seconds``, plus
set-up-only children until there are five set-up samples, and reports
medians:

* ``study_s``: wall seconds of one ``cli.run_experiment`` call
* ``cpu_s``: user+sys CPU seconds of the child during that call
* ``peak_rss_mb``: ``ru_maxrss`` of the child process alone
* ``setup_s``: child start to ready (interpreter, ``import biharm.cli``,
  config parse, level-0 mesh)

``--trace 1`` runs one untraced and one traced study and reports the
per-layer split from the spans ``spans.py`` records, with
``trace.overhead_s`` the traced minus the untraced ``study_s``.

Every study's ``rates_*.csv`` are checked against the seed code's copies
in ``reference/``: byte for byte for c = 1, otherwise rates to the
printed 1e-6 and diffs to c times the reference at printed precision.
A kappa column that fails, mismatches, or is skipped by the memory
guard counts as failed; ``failed_ratio`` is failed over attempted
columns.  The last stdout line is the JSON result; everything a run
produces goes under ``.bench_out/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, load_constant, workload_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

END_TO_END = {"study_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 80
# A study starts only when MemAvailable covers the workload's recorded
# peak times this margin plus a fixed reserve.
MEMORY_MARGIN = 1.25
MEMORY_RESERVE_MB = 256
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMBA_NUM_THREADS")


class StudyFailed(Exception):
    pass


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("overlap"):
        return "ratio"
    if name.endswith("flops"):
        return "flop"
    if name.endswith("bytes"):
        return "B"
    return "count"


def mem_available_mb():
    with open("/proc/meminfo") as handle:
        for line in handle:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("MemAvailable missing from /proc/meminfo")


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workload, load, out, smoke=False, trace=None,
              setup_only=False):
    """Start ``study.py`` and wait for it; its record plus ``setup_s``."""
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "study.py"), "--root", ROOT,
           "--workload", workload, "--load", repr(load), "--out", out]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    spawn = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StudyFailed(f"study child exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - spawn
    return record


def reference_dir(workload, smoke):
    parts = [HERE, "reference"] + (["smoke"] if smoke else []) + [workload]
    return os.path.join(*parts)


def _rows(path):
    with open(path) as handle:
        lines = handle.read().splitlines()
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[tuple(cells[:4])] = cells[4:]
    return lines[0], rows


def _format(text):
    """Decimals printed and whether an exponent is, as in 1.234567e-03."""
    mantissa, exponent, _ = text.partition("e")
    return len(mantissa.partition(".")[2]), bool(exponent)


def _half_unit(text):
    """Half a unit in the last printed digit."""
    decimals, _ = _format(text)
    exponent = int(text.partition("e")[2] or 0)
    return 0.5 * 10.0 ** (exponent - decimals)


def _close(got, ref, scale):
    """``got`` equals ``scale * ref`` in the reference's printed format."""
    if not got or not ref or _format(got) != _format(ref):
        return got == ref
    target = scale * float(ref)
    slack = _half_unit(got) + scale * _half_unit(ref) + 1e-9 * abs(target)
    return abs(float(got) - target) <= slack


def _row_matches(got, ref, load):
    if got is None or ref is None or len(got) != 2 or len(ref) != 2:
        return False
    if load == 1.0:
        return got == ref
    return _close(got[0], ref[0], load) and _close(got[1], ref[1], 1.0)


def mismatched_kappas(out, ref_dir, load, kappas):
    """Kappa columns whose rate rows differ from the reference."""
    bad = set()
    for name in sorted(os.listdir(ref_dir)):
        path, ref_path = os.path.join(out, name), os.path.join(ref_dir, name)
        if not os.path.exists(path):
            return set(kappas)
        header, rows = _rows(path)
        ref_header, ref_rows = _rows(ref_path)
        if header != ref_header:
            return set(kappas)
        found = {key[2] for key in ref_rows.keys() | rows.keys()
                 if not _row_matches(rows.get(key), ref_rows.get(key), load)}
        if load == 1.0 and not found:
            with open(path, "rb") as got, open(ref_path, "rb") as ref:
                if got.read() != ref.read():
                    # a byte difference the rows do not show
                    return set(kappas)
        bad |= found
    return bad


class Run:
    """Outcome counts and samples of one benchmark run."""

    def __init__(self, workload, seed, smoke):
        self.workload, self.smoke = workload, smoke
        self.load = load_constant(seed)
        self.kappas = [f"{float(k):g}" for k in
                       workload_config(workload)["kappas"].split(",")]
        self.base = os.path.join(OUT, workload + ("-smoke" if smoke else ""))
        self.attempted = self.failed = 0
        self.correct = True
        self.studies, self.setups, self.notes = [], [], []

    def memory_ok(self):
        need = (WORKLOADS[self.workload]["peak_mb"] * MEMORY_MARGIN
                + MEMORY_RESERVE_MB)
        have = mem_available_mb()
        if self.smoke or have >= need:
            return True
        self.notes.append(f"skipped a study: MemAvailable {have:.0f} MB "
                          f"< {need:.0f} MB needed")
        self.attempted += len(self.kappas)
        self.failed += len(self.kappas)
        return False

    def study(self, trace=None):
        """One checked study; its record, or None if failed or skipped."""
        if not self.memory_ok():
            return None
        out = os.path.join(self.base, "study")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += len(self.kappas)
        try:
            record = run_child(self.workload, self.load, out, self.smoke,
                               trace)
        except (StudyFailed, subprocess.TimeoutExpired) as exc:
            self.notes.append(f"study failed: {exc}")
            self.failed += len(self.kappas)
            self.correct = False
            return None
        bad = set(record["failures"]) | mismatched_kappas(
            out, reference_dir(self.workload, self.smoke), self.load,
            self.kappas)
        for kappa in sorted(bad):
            reason = record["failures"].get(kappa, "rate CSV mismatch")
            self.notes.append(f"kappa={kappa} failed: {reason}")
        self.failed += len(bad)
        self.correct = self.correct and not bad
        self.setups.append(record["setup_s"])
        self.studies.append(record)
        return record

    def setup(self):
        """One set-up-only child; its record."""
        record = run_child(self.workload, self.load,
                           os.path.join(self.base, "setup"), self.smoke,
                           setup_only=True)
        self.setups.append(record["setup_s"])
        return record


def measure(run, seconds):
    start = last = time.monotonic()
    while run.study() is not None:
        now = time.monotonic()
        # start another study only if one more like the last still fits
        if 2 * now - last - start > seconds:
            break
        last = now
    while len(run.setups) < SETUP_SAMPLES:
        run.setup()
    if not run.studies:
        return None
    metrics = {name: statistics.median(s[name] for s in run.studies)
               for name in ("study_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(run.setups)
    for name, unit in END_TO_END.items():
        count = len(run.setups if name == "setup_s" else run.studies)
        print(f"{name:<14} {metrics[name]:12.4f} {unit:<5} "
              f"median of {count}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def measure_layers(run):
    from spans import LAYERS, summarise

    plain = run.study()
    spans_path = os.path.join(run.base, "spans.json")
    traced = run.study(trace=spans_path)
    if plain is None or traced is None:
        return None
    with open(spans_path) as handle:
        trace = json.load(handle)
    layers, concurrent_s = summarise(trace)
    layers["trace.overhead_s"] = traced["study_s"] - plain["study_s"]
    for name, value in layers.items():
        print(f"{name:<32} {value:16.6f} {layer_unit(name)}")
    for name in trace["missing"]:
        print(f"not traced (missing from the program): {name}")
    self_total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    print(f"layer self times sum to {self_total:.6f} s over threads: traced "
          f"study_s {layers['trace.study_s']:.6f} s plus {concurrent_s:.6f} s "
          f"of concurrent column time")
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="levels-3 variants, for the benchmark's test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "biharm")):
        print(f"error: no biharm sources under {ROOT}/src", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.smoke)
    try:
        env = dict(run.setup()["env"], nproc=os.cpu_count(),
                   mem_available_mb=round(mem_available_mb()))
    except (StudyFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up child failed: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} load c={run.load!r} "
          f"smoke={args.smoke}")
    metrics = measure_layers(run) if args.trace else measure(run,
                                                             args.seconds)
    for note in run.notes:
        print(note)
    print(f"{'failed_ratio':<14} {run.failed / max(run.attempted, 1):12.4f} "
          f"ratio ({run.failed} of {run.attempted} kappa columns)")
    if metrics is None:
        print("error: no study completed", file=sys.stderr)
        return 3
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(run.base, f"result-seed{args.seed}-trace"
                           f"{args.trace}.json"), "w") as handle:
        json.dump(dict(result, env=env, seed=args.seed, load=run.load,
                       studies=run.studies, setups=run.setups,
                       notes=run.notes), handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
