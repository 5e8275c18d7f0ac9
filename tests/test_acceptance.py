"""End-to-end acceptance checks against the stored reference tables.

Each test covers one numbered criterion and prints a single
``criterion NN: PASS/FAIL (...)`` line (visible with ``-s``; failures
carry the same detail in the assertion message).  The last test checks
the psp chain against an exact corner-singular solution beside them.  Chain runs are cached
at module level and shared between criteria, so each domain/algorithm/
grading combination is solved once; where criteria use both chains of
one hierarchy, one ``run_chains`` call solves them on one factor per
level.  The file performs several level-7 solves on one core and takes
about 80-90 s on a two-CPU machine.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import sympy

from biharm.analysis import diff_norm, rate_table
from biharm.assembly import assemble_load
from biharm.cli import parse_F_spec, parse_f_spec
from biharm.corners import beta0, solve_alpha0
from biharm.meshing import builtin_domain, refine_hierarchy
from biharm.solvers import (run_chains, run_psp, run_sp, solve_poisson,
                            stiffness_factor)
from biharm.spaces import build_space, jacobians

from oracles import interpolate, lshape_corner_solution, manufactured_error

# reference corner exponents alpha0 by opening angle
ALPHA0_REFERENCE = [
    ("pi/3", math.pi / 3, 4.059329012151345),
    ("pi/2", math.pi / 2, 2.739593356324596),
    ("2pi/3", 2 * math.pi / 3, 2.094139108847751),
    ("3pi/4", 3 * math.pi / 4, 1.885371778114173),
    ("5pi/6", 5 * math.pi / 6, 1.533860002777585),
    ("11pi/12", 11 * math.pi / 12, 1.200631594651580),
    ("7pi/6", 7 * math.pi / 6, 0.751974545407645),
    ("6pi/5", 6 * math.pi / 5, 0.717799308407060),
    ("5pi/4", 5 * math.pi / 4, 0.673583432221468),
    ("4pi/3", 4 * math.pi / 3, 0.615731059491289),
    ("3pi/2", 3 * math.pi / 2, 0.544483736993940),
    ("7pi/4", 7 * math.pi / 4, 0.505009699452470),
]

PROPERTY_FILES = (
    "test_meshing.py",
    "test_spaces.py",
    "test_assembly.py",
    "test_solvers.py",
    "test_analysis.py",
)

_MESHES = {}
_REPORTS = {}


def _meshes(domain, kappa, levels):
    """Cached graded hierarchy; slices serve shallower requests."""
    key = (domain, kappa)
    have = _MESHES.get(key)
    if have is None or len(have) < levels + 1:
        root = builtin_domain(domain)[1]
        _MESHES[key] = refine_hierarchy(root, levels, kappa)
    return _MESHES[key][: levels + 1]


def _reports_from_run(recs):
    """Successive-difference rate reports of one chain's level records."""
    levels = [rec.level for rec in recs[1:]]
    out = {}
    for quantity in ("phi", "u", "p"):
        for norm in ("L2",) if quantity == "p" else ("H1", "L2"):
            diffs = [
                diff_norm(getattr(recs[i], quantity),
                          getattr(recs[i - 1], quantity), norm,
                          jacobians(recs[i].phi.space.mesh))
                for i in range(1, len(recs))
            ]
            out[(quantity, norm)] = rate_table(levels, diffs)
    return out


# Hierarchies whose sp and psp chains both serve criteria (04 and 05):
# one run_chains call solves both on each level's one factor.
_BOTH_CHAINS = {("lshape", 2, 0.1, 7), ("lshape", 2, 0.5, 7)}


def _rates(domain, algorithm, k, kappa, levels):
    """Cached rate reports for one chain run (f = 1; F = (0, x) for sp)."""
    key = (domain, k, kappa, levels)
    if (key, algorithm) not in _REPORTS:
        f = parse_f_spec("const:1")
        forces = {"sp": parse_F_spec("const:1", "int_x"), "psp": None}
        algorithms = ("sp", "psp") if key in _BOTH_CHAINS else (algorithm,)
        runs = run_chains(_meshes(domain, kappa, levels), k,
                          [(f, forces[name]) for name in algorithms])
        for name, run in zip(algorithms, runs):
            _REPORTS[(key, name)] = _reports_from_run(run)
    return _REPORTS[(key, algorithm)]


def _rate(reports, quantity, norm, level):
    report = reports[(quantity, norm)]
    return report.rates[report.levels.index(level)]


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    return ok


def _check_windows(checks):
    """checks = (label, got, center, halfwidth); returns ok/summary/misses."""
    misses, parts = [], []
    for label, got, center, width in checks:
        hit = got is not None and abs(got - center) <= width
        if not hit:
            shown = "absent" if got is None else f"{got:.3f}"
            misses.append(f"{label} = {shown}, wanted {center} +- {width}")
        parts.append(f"{label} {'--' if got is None else format(got, '.2f')}")
    return not misses, ", ".join(parts), misses


def _trends(misses, series):
    """Rates from j=4 up for each missed window.

    ``series`` maps a check label to its (reports, quantity, norm); the
    sequence shows whether a miss is still drifting toward its limit.
    """
    parts = []
    for miss in misses:
        label = miss.split(" = ")[0]
        reports, quantity, norm = series[label]
        report = reports[(quantity, norm)]
        seq = [(lev, r) for lev, r in zip(report.levels, report.rates)
               if lev >= 4 and r is not None]
        parts.append(f"{label} j={seq[0][0]}..{seq[-1][0]}: "
                     + "/".join(f"{r:.3f}" for _, r in seq))
    return "".join("; " + part for part in parts)


def test_criterion_01_corner_exponent_reference_values():
    # The 5pi/6 entry is the root of the sin(z omega) = -z sin(omega)
    # branch, 1.533860002777585018520091617173544133296 to 40 digits
    # (mpmath findroot; characteristic residual -4.6e-41), rounded to 16
    # digits (residual -3.4e-17).  It agrees with the independent 40-digit
    # oracle tests/test_corners.py::ORACLE.
    start = time.perf_counter()
    got = {name: solve_alpha0(omega) for name, omega, _ in ALPHA0_REFERENCE}
    elapsed = time.perf_counter() - start
    devs = {name: abs(got[name] - ref) for name, _, ref in ALPHA0_REFERENCE}
    worst = max(devs, key=devs.get)
    ok = elapsed < 1.0 and all(d <= 1e-9 for d in devs.values())
    detail = (f"twelve roots in {elapsed:.3f} s, max deviation "
              f"{devs[worst]:.2e} at omega = {worst}")
    assert _verdict(1, ok, detail), detail


def test_criterion_02_exponent_inequalities():
    slack = 1e-10
    convex = np.linspace(math.pi / 3, math.pi, 32)[1:-1]
    reentrant = np.linspace(math.pi, 2 * math.pi, 32)[1:-1]
    bad = []
    for omega in convex:
        a, b = solve_alpha0(float(omega)), beta0(float(omega))
        if not (b - slack < a < 2 * b + slack):
            bad.append(f"omega={omega:.4f}: alpha0={a:.8f} beta0={b:.8f}")
    for omega in reentrant:
        a, b = solve_alpha0(float(omega)), beta0(float(omega))
        if not (0.5 - slack < a < b + slack):
            bad.append(f"omega={omega:.4f}: alpha0={a:.8f} beta0={b:.8f}")
    ok = not bad
    detail = f"{len(convex) + len(reentrant)} angles checked"
    if bad:
        detail += "; violations: " + "; ".join(bad)
    assert _verdict(2, ok, detail), detail


def test_criterion_03_square_uniform_rates():
    start = time.perf_counter()
    reports = _rates("square", "sp", 2, 0.5, 6)
    elapsed = time.perf_counter() - start
    checks = [
        ("phi H1", _rate(reports, "phi", "H1", 6), 2.00, 0.05),
        ("phi L2", _rate(reports, "phi", "L2", 6), 3.00, 0.05),
        ("u H1", _rate(reports, "u", "H1", 6), 2.00, 0.05),
        ("u L2", _rate(reports, "u", "L2", 6), 3.00, 0.10),
        ("p L2", _rate(reports, "p", "L2", 6), 2.025, 0.075),
    ]
    ok, summary, misses = _check_windows(checks)
    ok = ok and elapsed < 120.0
    detail = f"j=6 rates: {summary}; run took {elapsed:.1f} s"
    if misses:
        detail += "; " + "; ".join(misses)
    assert _verdict(3, ok, detail), detail


def test_criterion_04_lshape_stream_function_rates():
    uniform = _rates("lshape", "sp", 2, 0.5, 7)
    graded = _rates("lshape", "sp", 2, 0.1, 7)
    checks = [
        ("uniform phi H1", _rate(uniform, "phi", "H1", 7), 1.23, 0.06),
        ("uniform phi L2", _rate(uniform, "phi", "L2", 7), 1.08, 0.15),
        ("kappa=0.1 phi H1", _rate(graded, "phi", "H1", 7), 2.00, 0.05),
        ("kappa=0.1 phi L2", _rate(graded, "phi", "L2", 7), 3.01, 0.08),
    ]
    ok, summary, misses = _check_windows(checks)
    series = {
        "uniform phi H1": (uniform, "phi", "H1"),
        "uniform phi L2": (uniform, "phi", "L2"),
        "kappa=0.1 phi H1": (graded, "phi", "H1"),
        "kappa=0.1 phi L2": (graded, "phi", "L2"),
    }
    detail = f"j=7 rates: {summary}"
    if misses:
        detail += "; " + "; ".join(misses) + _trends(misses, series)
    assert _verdict(4, ok, detail), detail


def test_criterion_05_psp_matches_sp_on_lshape():
    psp = _rates("lshape", "psp", 2, 0.1, 7)
    checks = [
        ("kappa=0.1 phi H1", _rate(psp, "phi", "H1", 7), 2.00, 0.05),
        ("kappa=0.1 phi L2", _rate(psp, "phi", "L2", 7), 3.01, 0.08),
    ]
    ok, summary, misses = _check_windows(checks)
    gaps = []
    for kappa in (0.1, 0.5):
        sp = _rates("lshape", "sp", 2, kappa, 7)
        ps = _rates("lshape", "psp", 2, kappa, 7)
        for key in (("phi", "H1"), ("phi", "L2")):
            for lev, ra, rb in zip(sp[key].levels, sp[key].rates,
                                   ps[key].rates):
                if ra is None or rb is None:
                    continue
                gaps.append((abs(ra - rb), kappa, key[1], lev))
    worst = max(gaps)
    ok = ok and worst[0] <= 0.05
    detail = (f"psp j=7 rates: {summary}; largest sp/psp rate gap "
              f"{worst[0]:.4f} (kappa={worst[1]}, {worst[2]}, j={worst[3]})"
              f" over {len(gaps)} cells")
    if misses:
        detail += "; " + "; ".join(misses)
    assert _verdict(5, ok, detail), detail


def test_criterion_06_mini_element_rates():
    uniform = _rates("lshape", "sp", 1, 0.5, 7)
    graded = _rates("lshape", "sp", 1, 0.2, 7)
    checks = [
        ("uniform u H1", _rate(uniform, "u", "H1", 7), 0.64, 0.05),
        ("uniform u L2", _rate(uniform, "u", "L2", 7), 1.28, 0.08),
        ("kappa=0.2 u H1", _rate(graded, "u", "H1", 7), 1.00, 0.03),
    ]
    ok, summary, misses = _check_windows(checks)
    series = {
        "uniform u H1": (uniform, "u", "H1"),
        "uniform u L2": (uniform, "u", "L2"),
        "kappa=0.2 u H1": (graded, "u", "H1"),
    }
    detail = f"j=7 rates: {summary}"
    if misses:
        detail += "; " + "; ".join(misses) + _trends(misses, series)
    assert _verdict(6, ok, detail), detail


def test_criterion_07_taylor_hood_rates():
    uniform = _rates("lshape", "sp", 2, 0.5, 7)
    graded = _rates("lshape", "sp", 2, 0.05, 7)
    checks = [
        ("uniform u H1", _rate(uniform, "u", "H1", 7), 0.54, 0.04),
        ("uniform p L2", _rate(uniform, "p", "L2", 7), 0.55, 0.05),
        ("kappa=0.05 u H1", _rate(graded, "u", "H1", 7), 1.90, 0.10),
        ("kappa=0.05 p L2", _rate(graded, "p", "L2", 7), 1.90, 0.10),
    ]
    ok, summary, misses = _check_windows(checks)
    detail = f"j=7 rates: {summary}"
    if misses:
        detail += "; " + "; ".join(misses)
    assert _verdict(7, ok, detail), detail


def test_criterion_08_kite_rates():
    sp_uniform = _rates("convex_11pi12", "sp", 2, 0.5, 7)
    psp_uniform = _rates("convex_11pi12", "psp", 2, 0.5, 6)
    sp_graded = _rates("convex_11pi12", "sp", 2, 0.3, 7)
    checks = [
        ("sp phi H1 j=6", _rate(sp_uniform, "phi", "H1", 6), 2.00, 0.05),
        ("sp phi L2 j=6", _rate(sp_uniform, "phi", "L2", 6), 3.00, 0.05),
        ("psp phi H1 j=6", _rate(psp_uniform, "phi", "H1", 6), 2.00, 0.05),
        ("psp phi L2 j=6", _rate(psp_uniform, "phi", "L2", 6), 3.00, 0.05),
        ("uniform u H1 j=7", _rate(sp_uniform, "u", "H1", 7), 1.24, 0.06),
        ("kappa=0.3 u H1 j=7", _rate(sp_graded, "u", "H1", 7), 2.00, 0.05),
    ]
    ok, summary, misses = _check_windows(checks)
    series = {
        "sp phi H1 j=6": (sp_uniform, "phi", "H1"),
        "sp phi L2 j=6": (sp_uniform, "phi", "L2"),
        "psp phi H1 j=6": (psp_uniform, "phi", "H1"),
        "psp phi L2 j=6": (psp_uniform, "phi", "L2"),
        "uniform u H1 j=7": (sp_uniform, "u", "H1"),
        "kappa=0.3 u H1 j=7": (sp_graded, "u", "H1"),
    }
    detail = summary
    if misses:
        detail += "; " + "; ".join(misses) + _trends(misses, series)
    assert _verdict(8, ok, detail), detail


def test_criterion_09_force_representation_independence():
    meshes = _meshes("lshape", 0.5, 7)[:7]  # uniform, levels 0..6
    f = lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    force_x = (zero, lambda x, y: np.asarray(x, dtype=float))
    force_y = (lambda x, y: -np.asarray(y, dtype=float), zero)
    # same force shifted by the gradient field (1, 0) = grad x
    shifted = (lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
               lambda x, y: np.asarray(x, dtype=float)
               + 0.0 * np.asarray(y, dtype=float))

    run_x, run_y = run_chains(meshes, 2, [(f, force_x), (f, force_y)])
    run_shift = run_sp(meshes[:5], f, shifted, 2)
    coeff_gap = max(
        float(np.max(np.abs(a.u.coefficients - b.u.coefficients)))
        for a, b in zip(run_x, run_shift))

    l2 = [diff_norm(a.u, b.u, "L2", jacobians(a.u.space.mesh))
          for a, b in zip(run_x, run_y)]
    ratios = [l2[i - 1] / l2[i] for i in range(1, len(l2))]
    window = next((ratios[i:i + 3] for i in range(len(ratios) - 2)
                   if all(r >= 4.0 for r in ratios[i:i + 3])), None)

    ok = coeff_gap <= 1e-9 and window is not None
    detail = (f"gradient shift moved u coefficients by {coeff_gap:.2e}; "
              "u-difference decay factors "
              + "/".join(f"{r:.1f}" for r in ratios))
    assert _verdict(9, ok, detail), detail


def test_criterion_10_manufactured_solution_oracle():
    xs, ys = sympy.symbols("x y")
    phi_star = (1 - xs**2) ** 2 * (1 - ys**2) ** 2
    lap = sympy.diff(phi_star, xs, 2) + sympy.diff(phi_star, ys, 2)
    f_expr = sympy.expand(sympy.diff(lap, xs, 2) + sympy.diff(lap, ys, 2))
    g_expr = sympy.integrate(f_expr, xs)
    f_num = sympy.lambdify((xs, ys), f_expr, "numpy")
    g_num = sympy.lambdify((xs, ys), g_expr, "numpy")
    exact = sympy.lambdify((xs, ys), phi_star, "numpy")
    dx_num = sympy.lambdify((xs, ys), sympy.diff(phi_star, xs), "numpy")
    dy_num = sympy.lambdify((xs, ys), sympy.diff(phi_star, ys), "numpy")

    meshes = _meshes("square", 0.5, 6)
    # F = (0, G(x, y) - G(0, y)) with dG/dx = f
    force = (lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
             lambda x, y: g_num(x, y) - g_num(np.zeros_like(x), y))
    run = run_sp(meshes, f_num, force, 2)
    errors = [
        manufactured_error(run[j].phi, exact, "H1",
                           exact_grad=lambda x, y: (dx_num(x, y),
                                                    dy_num(x, y)))
        for j in range(3, 7)
    ]
    rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    mean_rate = sum(rates) / len(rates)

    # Poisson half of the oracle: -lap w* = f with w* = (1-x^2)(1-y^2);
    # rate-3 L2 decay tracking the interpolation error within 20%
    f_w = lambda x, y: 2 * (1 - x**2) + 2 * (1 - y**2)
    w_star = lambda x, y: (1 - x**2) * (1 - y**2)
    errs, interps = [], []
    for mesh in meshes[1:4]:
        space = build_space(mesh, 2)
        geo = jacobians(mesh)
        w = solve_poisson(space, assemble_load(space, f_w, geo),
                          stiffness_factor(space, geo))
        errs.append(manufactured_error(w, w_star, "L2"))
        interps.append(manufactured_error(interpolate(space, w_star),
                                          w_star, "L2"))
    w_rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    poisson_ok = (all(r > 2.7 for r in w_rates)
                  and all(0.8 < e / i < 1.2 for e, i in zip(errs, interps)))

    ok = abs(mean_rate - 2.0) <= 0.1 and poisson_ok
    detail = ("phi H1 error rates over levels 3-6: "
              + "/".join(f"{r:.2f}" for r in rates)
              + f" (mean {mean_rate:.3f}); Poisson w L2 rates "
              + "/".join(f"{r:.2f}" for r in w_rates))
    assert _verdict(10, ok, detail), detail


def test_criterion_11_property_suites_pass():
    here = Path(__file__).resolve().parent
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           *(str(here / name) for name in PROPERTY_FILES)]
    proc = subprocess.run(cmd, cwd=str(here.parent), capture_output=True,
                          text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else "no output"
    ok = proc.returncode == 0
    detail = f"pytest over {len(PROPERTY_FILES)} property files: {summary}"
    if not ok:
        detail += "\n" + proc.stdout[-2000:]
    assert _verdict(11, ok, detail), detail


def test_psp_rates_for_the_exact_corner_singular_solution():
    # psp P2 against phi = (x^2-1)^2 (y^2-1)^2 r^(1+z) g_z(theta), which
    # carries the clamped corner singularity of the L-shape.  The graded
    # mesh estimates, with kappa = 2^(-theta/a) and a < alpha0 = 0.5445
    # (tests/oracles.py grading calculators), predict for k = 2:
    #   H1 rate k = 2 once theta >= max{k-1, min{alpha0, a}} = 1, that is
    #     kappa <= 2^(-1/alpha0) = 0.280: kappa = 0.2 and 0.1 qualify;
    #   L2 rate k+1 = 3 once theta >= max{k-1, (k+1)/2, min{alpha0, a}}
    #     = 1.5, that is kappa <= 2^(-1.5/alpha0) = 0.148: kappa = 0.1
    #     qualifies and kappa = 0.2 does not, so its L2 rates are shown
    #     but not checked.
    # An estimate fixes the limit of the rate log2(e_(j-1)/e_j), not its
    # approach: a relative correction c h to the error moves the rate at
    # j = 6 (h = 2^-6) by about c 2^-6 / ln 2 = 0.023 c.  The windows of
    # +-0.1 at j = 6 admit |c| <= 4.
    phi, grad, load = lshape_corner_solution()
    checks, shown = [], []
    for kappa, norms in ((0.2, ("H1",)), (0.1, ("H1", "L2"))):
        run = run_psp(_meshes("lshape", kappa, 6), load, 2)
        for norm, limit in (("H1", 2.0), ("L2", 3.0)):
            errors = [manufactured_error(rec.phi, phi, norm, grad)
                      for rec in run[3:]]
            rates = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            shown.append(f"kappa={kappa} {norm} j=4..6: "
                         + "/".join(f"{r:.3f}" for r in rates))
            if norm in norms:
                checks.append((f"kappa={kappa} phi {norm}", rates[-1],
                               limit, 0.1))
    ok, summary, misses = _check_windows(checks)
    detail = f"j=6 rates: {summary}; " + "; ".join(shown + misses)
    print(f"exact corner solution: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail
