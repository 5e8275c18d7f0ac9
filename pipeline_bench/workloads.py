"""Workloads of the pipeline benchmark: one convergence study each.

Each workload is one ``[experiment]`` config for ``biharm run``.  The
reasons are kept next to the configs because they decide what a later
change may claim:

* ``lshape-sp-k2-l6-2col``: the paper's main Taylor-Hood study.  Its
  level-6 Stokes systems (111,875 velocity and pressure unknowns) take
  the float64 nested-dissection path, and its two kappa columns run in
  two threads at once, so thread and memory behaviour show.
* ``kite-sp-mini-l7``: the one level-7 graded column.  It is the only
  workload on the float32 factor with refinement (230,147 unknowns) and
  uses the Mini bubble difference norms.
* ``lshape-psp-k3-l5``: the three-solve chain.  It runs every
  ``diff_norm`` branch (4 quantities x 3 norms), the heaviest P3
  assembly, and the only place where one factor could serve several
  solves.

``peak_mb`` is the peak RSS of one study measured on a 2-CPU, 7.8 GB
machine with numpy 2.4 and scipy 1.17; the memory guard in ``run.py``
refuses to start a study when less than that (with margin) is free.
Smoke variants cut every workload to levels 3 for the benchmark's own
test.
"""

import random

WORKLOADS = {
    "lshape-sp-k2-l6-2col": {
        "config": {"domain": "lshape", "algorithm": "sp", "k": 2,
                   "levels": 6, "kappas": "0.5, 0.2", "F": "int_x",
                   "norms": "H1, L2"},
        "jobs": 2,
        "peak_mb": 1470,
    },
    "kite-sp-mini-l7": {
        "config": {"domain": "convex_11pi12", "algorithm": "sp", "k": 1,
                   "levels": 7, "kappas": "0.3", "F": "int_x",
                   "norms": "H1, L2"},
        "jobs": 1,
        "peak_mb": 1120,
    },
    "lshape-psp-k3-l5": {
        "config": {"domain": "lshape", "algorithm": "psp", "k": 3,
                   "levels": 5, "kappas": "0.2", "norms": "H1, L2, Linf"},
        "jobs": 1,
        "peak_mb": 940,
    },
}

SMOKE_LEVELS = 3


def workload_config(name, smoke=False):
    """The workload's config keys, with levels cut down in smoke mode."""
    config = dict(WORKLOADS[name]["config"])
    if smoke:
        config["levels"] = SMOKE_LEVELS
    return config


def load_constant(seed):
    """The load c in ``f = const:c``: 1 for seed 0, else drawn from the seed.

    The problem is linear in f, so every seed does the same work; c is
    rounded to six significant digits so the config text is exact.
    """
    if seed == 0:
        return 1.0
    return float(f"{2.0 ** random.Random(seed).uniform(-2.0, 2.0):.6g}")
