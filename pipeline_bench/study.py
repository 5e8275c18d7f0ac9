"""One convergence study in a fresh process, as ``run.py`` starts it.

    python3 study.py --root CHECKOUT --workload NAME --load C --out DIR
                     [--smoke] [--trace SPANS.json] [--setup-only]

Set-up is the interpreter start, ``import biharm.cli`` (which pulls in
scipy), parsing the study's INI config and building the level-0 mesh;
the process then records ``ready`` on the system-wide monotonic clock,
which the parent compares with the time it started this process.  The
study is one ``cli.run_experiment`` call, writing the usual artifacts
under DIR.  The last stdout line is a JSON record of the timings.
"""

import argparse
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, workload_config


def _import_biharm(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import biharm
    if not os.path.abspath(biharm.__file__).startswith(src + os.sep):
        raise SystemExit(f"biharm imported from {biharm.__file__}, "
                         f"not from {src}")


def _write_config(out, workload, load, smoke):
    lines = ["[experiment]"]
    lines += [f"{key} = {value}"
              for key, value in workload_config(workload, smoke).items()]
    lines += [f"f = const:{load!r}", f"out = {out}"]
    path = os.path.join(out, "study.ini")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--load", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_biharm(args.root)
    from biharm import cli, kernels
    from biharm.meshing import builtin_domain

    os.makedirs(args.out, exist_ok=True)
    config = cli.parse_config(
        _write_config(args.out, args.workload, args.load, args.smoke))
    builtin_domain(config.domain)
    record = {"ready": time.monotonic()}
    if args.setup_only:
        import numpy
        import scipy
        record["env"] = {"numpy": numpy.__version__,
                         "scipy": scipy.__version__,
                         "kernels_backend": kernels.backend_name()}
        print(json.dumps(record))
        return

    jobs = min(WORKLOADS[args.workload]["jobs"], os.cpu_count() or 1)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(run_id=os.getpid())
        tracer.install()

    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    if tracer is None:
        result = cli.run_experiment(config, jobs=jobs)
    else:
        result = tracer.run("cli.run_experiment", cli.run_experiment,
                            config, jobs=jobs)
    record["study_s"] = time.perf_counter() - start
    record["cpu_s"] = _cpu_seconds() - cpu0
    # ru_maxrss is in KiB on Linux and covers this process only
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    record["failures"] = {f"{kappa:g}": message
                         for kappa, message in result.failures.items()}
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
