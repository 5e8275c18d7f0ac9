"""Regenerate ``reference/`` from the code in this checkout.

    python3 pipeline_bench/make_reference.py [WORKLOAD ...]

Runs each workload (default: all) and its smoke variant once at seed 0
(c = 1), in the same child set-up as ``run.py``, and copies the
``rates_*.csv`` it writes.  Only run this on a commit whose rate tables
are meant to be the reference; the benchmark compares every later run
against these files.
"""

import glob
import os
import shutil
import sys

from run import OUT, reference_dir, run_child
from workloads import WORKLOADS


def main(names):
    for name in names or WORKLOADS:
        for smoke in (True, False):
            out = os.path.join(OUT, "reference-" + name + ("-smoke" * smoke))
            shutil.rmtree(out, ignore_errors=True)
            record = run_child(name, 1.0, out, smoke)
            if record["failures"]:
                raise SystemExit(
                    f"{name}: failed columns {record['failures']}")
            dest = reference_dir(name, smoke)
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
            for path in sorted(glob.glob(os.path.join(out, "rates_*.csv"))):
                shutil.copy(path, dest)
            print(f"{dest}: {record['study_s']:.2f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
