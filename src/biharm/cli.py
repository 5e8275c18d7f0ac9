"""Experiment runner: INI-configured convergence studies from the shell.

``biharm run config.ini`` builds one graded mesh hierarchy per grading
factor, runs the configured pipeline on it, and writes rate tables
(CSV and markdown) plus per-step wall times.  ``biharm compare a.ini
b.ini`` runs two pipelines that differ only in algorithm or force
construction on shared meshes and factors, and tabulates the norm
differences of their solutions level by level.  ``biharm
corner-exponents --omega r`` prints the corner exponents for an
opening angle; ``biharm mesh`` dumps a graded mesh to a text file.

Both studies run one task per grading factor (a kappa column) through
``_run_columns``: in a thread pool, or on the calling thread for one
column or ``jobs = 1``.  A column reduces its own levels, to rate
reports (``_run_column``) or to difference norms (``_compare_column``),
before it returns, so its solutions are dropped with it; a numerical
or out-of-memory failure skips only its column.

Rate CSVs (rates_<quantity>.csv, comparison.csv) are deterministic:
rerunning a config reproduces them byte for byte.  Wall-clock seconds
are confined to summary.csv, timing.csv and levels.jsonl, which vary
between runs.
"""

import argparse
import concurrent.futures
import configparser
import functools
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (diff_norm, field_norm, lift_pairs, markdown_table,
                       rate_table)
from .corners import beta0, solve_alpha0
from .meshing import builtin_domain, read_mesh, refine_hierarchy, write_mesh
from .solvers import run_chains, run_psp, run_sp
from .spaces import Field, jacobians

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "ComparisonResult",
    "parse_config",
    "run_experiment",
    "run_comparison",
    "parse_f_spec",
    "parse_F_spec",
    "main",
]

ALGORITHMS = ("sp", "psp")
NORMS = ("L2", "H1", "Linf")
BUILTIN_DOMAINS = ("square", "lshape", "convex_11pi12")

# Quantities each pipeline produces, in report order.
QUANTITIES = {
    "sp": ("phi", "u", "p"),
    "psp": ("w", "phi", "u", "p"),
}

# LevelRecord fields written to levels.jsonl: Stokes CG steps, its gate
# residual, pressure mean and largest divergence entry, LU back-solves,
# their largest relative residual, stored L+U entries of the level's
# factor and the process's peak RSS in MiB when the level ended.
SOLVER_FIELDS = ("iterations", "residual_norm", "pressure_mean",
                 "divergence_max", "lu_solves", "lu_residual_max",
                 "factor_nnz", "maxrss_mb")

CONFIG_HELP = """\
Config file schema (INI, one [experiment] section):

  [experiment]
  domain    = square | lshape | convex_11pi12 | path to a mesh file
  algorithm = sp | psp
  k         = 1 | 2 | 3          velocity degree (1 = Mini, 2/3 = Taylor-Hood)
  levels    = J >= 3             finest refinement level
  kappas    = 0.5, 0.1           grading factors in (0, 1/2]; 0.5 = uniform
  f         = const:<value>      scalar load (default const:1)
  F         = int_x | int_y | blend:<eta> | curl_w
                                 force construction; curl_w only with psp
                                 (defaults: curl_w for psp, int_x otherwise)
  norms     = H1, L2, Linf       difference norms (default H1, L2)
  out       = <directory>        output directory (default <config>.out)

Outputs under `out`: rates_<quantity>.csv (deterministic), summary.csv
(adds a seconds column), timing.csv (per pipeline step), levels.jsonl
(per level: Stokes CG iterations, gate residual, pressure mean, largest
divergence entry, LU back-solves and their largest residual, factor
entries, process peak RSS in MiB, step seconds), tables.md.
"""


def _spec_number(spec, arg, default):
    if not arg:
        return default
    try:
        return float(arg)
    except ValueError:
        raise ValueError(f"spec {spec!r} needs a number after ':'") from None


def _load_value(spec):
    kind, _, arg = spec.partition(":")
    if kind != "const":
        raise ValueError(f"unsupported load spec {spec!r}")
    return _spec_number(spec, arg, 1.0)


def parse_f_spec(spec):
    """Load spec -> callable f(x, y).  Supported: ``const:<value>``."""
    value = _load_value(spec)
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)


def parse_F_spec(f_spec, F_spec):
    """Force spec -> pair (F1, F2) with curl F = f, or None for ``curl_w``.

    For the load f = c: ``int_x`` is (0, c x), ``int_y`` is (-c y, 0)
    and ``blend:<eta>`` is eta * int_y + (1 - eta) * int_x, eta in [0, 1].
    """
    if F_spec == "curl_w":
        return None
    c = _load_value(f_spec)
    cx = lambda x, y: c * np.asarray(x, dtype=float)
    cy = lambda x, y: c * np.asarray(y, dtype=float)
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    if F_spec == "int_x":
        return zero, cx
    if F_spec == "int_y":
        return (lambda x, y: -cy(x, y)), zero
    kind, _, arg = F_spec.partition(":")
    if kind != "blend":
        raise ValueError(f"unsupported force spec {F_spec!r}")
    eta = _spec_number(F_spec, arg, 0.5)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"blend weight in {F_spec!r} must lie in [0, 1]")
    return (lambda x, y: -eta * cy(x, y),
            lambda x, y: (1.0 - eta) * cx(x, y))


@dataclass
class ExperimentConfig:
    """One convergence study: domain, pipeline, grading, and outputs."""

    domain: str
    algorithm: str
    k: int
    levels: int
    kappas: tuple = (0.5,)
    f: str = "const:1"
    F: str = ""
    norms: tuple = ("H1", "L2")
    out: str = ""

    def __post_init__(self):
        if not self.domain or not isinstance(self.domain, str):
            raise ValueError("domain must be a builtin name or a mesh file path")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {', '.join(ALGORITHMS)}, "
                f"got {self.algorithm!r}"
            )
        if self.k not in (1, 2, 3):
            raise ValueError(f"k must be 1, 2, or 3, got {self.k!r}")
        if self.levels < 3:
            raise ValueError(
                f"levels must be at least 3 to form rates, got {self.levels!r}"
            )
        self.kappas = tuple(float(kap) for kap in self.kappas)
        if not self.kappas:
            raise ValueError("kappas must be a non-empty list")
        for kap in self.kappas:
            if not 0.0 < kap <= 0.5:
                raise ValueError(f"kappas must lie in (0, 1/2], got {kap!r}")
        if len(set(self.kappas)) != len(self.kappas):
            raise ValueError("kappas contains duplicates")
        self.norms = tuple(self.norms)
        if not self.norms:
            raise ValueError("norms must be a non-empty list")
        for norm in self.norms:
            if norm not in NORMS:
                raise ValueError(
                    f"norms must be drawn from {', '.join(NORMS)}, got {norm!r}"
                )
        parse_f_spec(self.f)
        self.F = self._resolve_force()
        parse_F_spec(self.f, self.F)

    def _resolve_force(self):
        if self.algorithm == "psp":
            if self.F not in ("", "curl_w"):
                raise ValueError(
                    f"F must be curl_w for algorithm psp, got {self.F!r}"
                )
            return "curl_w"
        if self.F == "curl_w":
            raise ValueError("F = curl_w requires algorithm psp")
        return self.F or "int_x"

    @property
    def quantities(self):
        return QUANTITIES[self.algorithm]


@dataclass
class ExperimentResult:
    """Reports per (quantity, norm), per-level rows, and written files."""

    config: ExperimentConfig
    reports: dict  # (quantity, norm) -> {kappa: ConvergenceReport}
    levels: dict  # kappa -> list over levels of its levels.jsonl row
    failures: dict  # kappa -> error message for aborted columns
    paths: list


@dataclass
class ComparisonResult:
    """Per-level solution differences between two pipelines."""

    config_a: ExperimentConfig
    config_b: ExperimentConfig
    rows: dict  # kappa -> list of (level, {name: difference norm})
    failures: dict
    paths: list


def _split_list(raw):
    return [tok for tok in raw.replace(",", " ").split() if tok]


def parse_config(path):
    """Read an INI experiment config; defaults `out` to <path stem>.out."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str
    with open(path) as handle:
        parser.read_file(handle, source=path)
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    known = {"domain", "algorithm", "k", "levels", "kappas", "f", "F",
             "norms", "out"}
    unknown = sorted(key for key in section if key not in known)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for key in ("domain", "algorithm", "k", "levels"):
        if key not in section:
            raise ValueError(f"{path}: missing required key {key}")

    def integer(key, default=None):
        raw = section.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{key} must be an integer, got {raw!r}") from None

    def floats(key, default):
        raw = section.get(key)
        if raw is None:
            return default
        try:
            return tuple(float(tok) for tok in _split_list(raw))
        except ValueError:
            raise ValueError(f"{key} must be numbers, got {raw!r}") from None

    stem = os.path.splitext(path)[0]
    return ExperimentConfig(
        domain=section["domain"].strip(),
        algorithm=section["algorithm"].strip(),
        k=integer("k"),
        levels=integer("levels"),
        kappas=floats("kappas", (0.5,)),
        f=section.get("f", "const:1").strip(),
        F=section.get("F", "").strip(),
        norms=tuple(_split_list(section.get("norms", "H1, L2"))),
        out=section.get("out", stem + ".out").strip(),
    )


def _root_mesh(domain):
    """Builtin level-0 mesh, or one read from a mesh file.

    A mesh file holds one level without its ancestry, so the study
    roots at it as level 0 with no parents.
    """
    if domain in BUILTIN_DOMAINS:
        return builtin_domain(domain)[1]
    if os.path.exists(domain):
        mesh = read_mesh(domain)
        return replace(
            mesh, level=0, parent=np.full(len(mesh.triangles), -1))
    raise ValueError(
        f"domain must be one of {', '.join(BUILTIN_DOMAINS)} or a mesh "
        f"file path, got {domain!r}"
    )


def _chain(config):
    """The configured chain as (f, F); F is None for psp."""
    return parse_f_spec(config.f), parse_F_spec(config.f, config.F)


def _run_column(config, root, kappa):
    """One kappa column: its rate reports and one row per level.

    The reports map (quantity, norm) to a ConvergenceReport; a row holds
    the level, its SOLVER_FIELDS and its step ``seconds``.  The level
    differences are taken here, so the column's solutions are dropped
    when it returns.
    """
    meshes = refine_hierarchy(root, config.levels, kappa)
    f, F = _chain(config)
    records = (run_psp(meshes, f, config.k) if F is None
               else run_sp(meshes, f, F, config.k))
    diffs = {(quantity, norm): [] for quantity in config.quantities
             for norm in config.norms}
    for fine, coarse in zip(records[1:], records):
        # one geometry per level pair serves every quantity and norm;
        # each quantity is lifted once and serves every norm
        geometry = jacobians(fine.phi.space.mesh)
        for quantity in config.quantities:
            pairs = lift_pairs(getattr(fine, quantity),
                               getattr(coarse, quantity), config.norms)
            for norm in config.norms:
                diffs[(quantity, norm)].append(
                    diff_norm(*pairs[norm], norm, geometry))
    levels = [rec.level for rec in records[1:]]
    reports = {key: rate_table(*key, levels, values)
               for key, values in diffs.items()}
    rows = [{"level": rec.level,
             **{name: getattr(rec, name) for name in SOLVER_FIELDS},
             "seconds": rec.seconds} for rec in records]
    return reports, rows


# Failures confined to one kappa column: numerical breakdown or running
# out of memory on its meshes.  Bad input (ValueError) hits every column
# alike and propagates.
_COLUMN_ERRORS = (ArithmeticError, MemoryError)


def _run_columns(kappas, column, jobs=None):
    """``column(kappa)`` for every kappa: ({kappa: result}, {kappa: why}).

    Columns run as threads, at most ``jobs`` at once (default: one per
    kappa, capped by the CPU count), which overlap their splu calls: two
    took 1.1-1.5x one.  One column, or ``jobs = 1``, runs on the calling
    thread: in a one-worker pool the level-7 kite column peaked 17-25%
    higher in RSS.  A column that raises one of ``_COLUMN_ERRORS`` is
    reported in the second dict; both keep the order of ``kappas``.
    """
    if jobs is None:
        jobs = min(len(kappas), os.cpu_count() or 1)

    def guarded(kappa):
        try:
            return True, column(kappa)
        except _COLUMN_ERRORS as exc:
            return False, str(exc) or type(exc).__name__

    if jobs > 1 and len(kappas) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(guarded, kappas))
    else:
        outcomes = [guarded(kappa) for kappa in kappas]
    done, failures = {}, {}
    for kappa, (ok, value) in zip(kappas, outcomes):
        (done if ok else failures)[kappa] = value
    return done, failures


def _fmt_kappa(kappa):
    return f"{kappa:g}"


def _fmt_diff(diff):
    return "" if diff is None else f"{diff:.6e}"


def _fmt_rate(rate):
    return "" if rate is None else f"{rate:.6f}"


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)
    return path


def run_experiment(config, jobs=None):
    """Run every kappa column to its rate reports, write artifacts.

    A solver failure (singular system, violated invariant) or a
    ``MemoryError`` aborts only the kappa column it occurred in; the
    column is dropped from the tables and recorded in ``failures``.
    Files are written under ``config.out`` after all columns finish;
    with ``out`` empty the result is returned without touching the disk.
    """
    root = _root_mesh(config.domain)
    columns, failures = _run_columns(
        config.kappas, functools.partial(_run_column, config, root), jobs)
    reports = {key: {kappa: column[0][key]
                     for kappa, column in columns.items()}
               for key in itertools.product(config.quantities, config.norms)}
    levels = {kappa: column[1] for kappa, column in columns.items()}
    paths = []
    if config.out:
        paths = _write_artifacts(config, reports, levels, failures)
    return ExperimentResult(config, reports, levels, failures, paths)


def _rate_rows(config, reports, quantity):
    rows = []
    for norm in config.norms:
        for kappa in config.kappas:
            report = reports[(quantity, norm)].get(kappa)
            if report is None:
                continue
            for level, diff, rate in report.rows():
                rows.append((norm, kappa, level, diff, rate))
    return rows


def _write_artifacts(config, reports, levels, failures):
    os.makedirs(config.out, exist_ok=True)
    paths = []
    for quantity in config.quantities:
        lines = ["quantity,norm,kappa,level,diff,rate"]
        for norm, kappa, level, diff, rate in _rate_rows(config, reports,
                                                         quantity):
            lines.append(f"{quantity},{norm},{_fmt_kappa(kappa)},{level},"
                         f"{_fmt_diff(diff)},{_fmt_rate(rate)}")
        paths.append(_write(os.path.join(config.out,
                                         f"rates_{quantity}.csv"),
                            "\n".join(lines) + "\n"))

    level_seconds = {
        kappa: [sum(row["seconds"].values()) for row in rows]
        for kappa, rows in levels.items()
    }
    lines = ["quantity,norm,kappa,level,diff,rate,seconds"]
    for quantity in config.quantities:
        for norm, kappa, level, diff, rate in _rate_rows(config, reports,
                                                         quantity):
            secs = level_seconds[kappa][level]
            lines.append(f"{quantity},{norm},{_fmt_kappa(kappa)},{level},"
                         f"{_fmt_diff(diff)},{_fmt_rate(rate)},{secs:.6f}")
    paths.append(_write(os.path.join(config.out, "summary.csv"),
                        "\n".join(lines) + "\n"))

    lines = ["kappa,level,step,seconds"]
    for kappa in config.kappas:
        for row in levels.get(kappa, []):
            for step, secs in row["seconds"].items():
                lines.append(f"{_fmt_kappa(kappa)},{row['level']},{step},"
                             f"{secs:.6f}")
    paths.append(_write(os.path.join(config.out, "timing.csv"),
                        "\n".join(lines) + "\n"))

    lines = [json.dumps({"kappa": kappa, **row}) for kappa in config.kappas
             for row in levels.get(kappa, [])]
    paths.append(_write(os.path.join(config.out, "levels.jsonl"),
                        "".join(line + "\n" for line in lines)))

    paths.append(_write(os.path.join(config.out, "tables.md"),
                        _tables_markdown(config, reports, failures)))
    return paths


def _skipped_markdown(kappas, failures):
    lines = ["### skipped kappa columns", ""]
    lines += [f"- kappa={_fmt_kappa(kappa)}: {failures[kappa]}"
              for kappa in kappas if kappa in failures]
    return "\n".join(lines)


def _tables_markdown(config, reports, failures):
    chunks = [f"# {config.domain} / {config.algorithm} / k={config.k}"]
    for quantity in config.quantities:
        for norm in config.norms:
            by_kappa = reports[(quantity, norm)]
            if by_kappa:
                chunks.append(markdown_table(by_kappa,
                                             f"{quantity} in {norm}"))
    if failures:
        chunks.append(_skipped_markdown(config.kappas, failures))
    return "\n\n".join(chunks) + "\n"


_COMPARE_NAMES = ("phi_h1", "phi_l2", "u_h1", "u_l2", "p_l2")
_COMPARE_LABELS = ("phi H1", "phi L2", "u H1", "u L2", "p L2")


def _compare_column(config_a, config_b, root, kappa):
    """[(level, {name: difference norm})] for levels 1.. of one column.

    Both chains run in one ``run_chains`` call; each cell is the norm of
    the difference of the two solutions' coefficients on the level.
    """
    meshes = refine_hierarchy(root, config_a.levels, kappa)
    runs = run_chains(meshes, config_a.k,
                      [_chain(config_a), _chain(config_b)])
    rows = []
    for rec_a, rec_b in list(zip(*runs))[1:]:
        geometry = jacobians(rec_a.phi.space.mesh)
        cells = {}
        for name in _COMPARE_NAMES:
            quantity, norm = name.split("_")
            fa, fb = getattr(rec_a, quantity), getattr(rec_b, quantity)
            delta = Field(fa.space, fa.components,
                          fa.coefficients - fb.coefficients)
            cells[name] = field_norm(delta, norm.upper(), geometry)
        rows.append((rec_a.level, cells))
    return rows


def run_comparison(config_a, config_b, out=None):
    """Level-by-level solution differences between two pipelines.

    The configs must agree except possibly in ``algorithm`` and ``F``
    (and ``out``).  Each kappa column runs both chains on one mesh
    hierarchy with one factor per level; columns run as ``run`` runs
    them.  Artifacts (comparison.csv, comparison.md) go to ``out`` or
    config_a's out directory; pass out="" to skip writing.
    """
    for name in ("domain", "k", "levels", "kappas", "f", "norms"):
        va, vb = getattr(config_a, name), getattr(config_b, name)
        # loads agree by value: const:1 is const:1.0
        if (_load_value(va) != _load_value(vb) if name == "f" else va != vb):
            raise ValueError(
                f"configs must agree on {name}: {va!r} != {vb!r}"
            )
    root = _root_mesh(config_a.domain)
    rows, failures = _run_columns(
        config_a.kappas,
        functools.partial(_compare_column, config_a, config_b, root))
    if out is None:
        out = config_a.out
    paths = _write_comparison(config_a, config_b, rows, failures,
                              out) if out else []
    return ComparisonResult(config_a, config_b, rows, failures, paths)


def _write_comparison(config_a, config_b, rows, failures, out):
    os.makedirs(out, exist_ok=True)
    lines = ["kappa,level," + ",".join(_COMPARE_NAMES)]
    for kappa in config_a.kappas:
        for level, diffs in rows.get(kappa, []):
            cells = ",".join(f"{diffs[name]:.6e}" for name in _COMPARE_NAMES)
            lines.append(f"{_fmt_kappa(kappa)},{level},{cells}")
    paths = [_write(os.path.join(out, "comparison.csv"),
                    "\n".join(lines) + "\n")]

    chunks = [f"# {config_a.algorithm} (F={config_a.F}) vs "
              f"{config_b.algorithm} (F={config_b.F}) on {config_a.domain}, "
              f"k={config_a.k}"]
    for kappa in config_a.kappas:
        if kappa not in rows:
            continue
        lines = [f"### differences (kappa={_fmt_kappa(kappa)})", ""]
        lines.append("| j | " + " | ".join(_COMPARE_LABELS) + " |")
        lines.append("|" + " --- |" * (1 + len(_COMPARE_LABELS)))
        for level, diffs in rows[kappa]:
            cells = " | ".join(f"{diffs[name]:.5e}"
                               for name in _COMPARE_NAMES)
            lines.append(f"| {level} | {cells} |")
        chunks.append("\n".join(lines))
    if failures:
        chunks.append(_skipped_markdown(config_a.kappas, failures))
    paths.append(_write(os.path.join(out, "comparison.md"),
                        "\n\n".join(chunks) + "\n"))
    return paths


_PI_FORM = re.compile(
    r"^\s*(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$", re.I)


def parse_omega(text):
    """Opening angle from a decimal or a pi form like 3pi/2 or 11pi/12."""
    match = _PI_FORM.match(text)
    if match:
        num = float(match.group(1)) if match.group(1) else 1.0
        den = float(match.group(2)) if match.group(2) else 1.0
        return num * np.pi / den
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"omega must be a number or an expression like 3pi/2, "
            f"got {text!r}"
        ) from None


def _cmd_run(args):
    config = parse_config(args.config)
    if args.out is not None:
        config.out = args.out
    result = run_experiment(config)
    for path in result.paths:
        print(f"wrote {path}")
    tables = _tables_markdown(config, result.reports, result.failures)
    print(tables, end="")
    return 0


def _cmd_compare(args):
    config_a = parse_config(args.config_a)
    config_b = parse_config(args.config_b)
    out = args.out if args.out is not None else config_a.out
    result = run_comparison(config_a, config_b, out=out)
    for path in result.paths:
        print(f"wrote {path}")
    for kappa in config_a.kappas:
        for level, diffs in result.rows.get(kappa, []):
            cells = "  ".join(f"{name}={diffs[name]:.5e}"
                              for name in _COMPARE_NAMES)
            print(f"kappa={_fmt_kappa(kappa)} j={level}  {cells}")
    for kappa, message in result.failures.items():
        print(f"kappa={_fmt_kappa(kappa)} failed: {message}")
    return 0


def _cmd_corner_exponents(args):
    omega = parse_omega(args.omega)
    print(f"omega  = {omega:.15f}")
    print(f"alpha0 = {solve_alpha0(omega):.15f}")
    print(f"beta0  = {beta0(omega):.15f}")
    return 0


def _cmd_mesh(args):
    root = _root_mesh(args.domain)
    meshes = refine_hierarchy(root, args.levels, args.kappa)
    write_mesh(meshes[-1], args.out)
    final = meshes[-1]
    print(f"wrote {args.out} ({len(final.points)} points, "
          f"{len(final.triangles)} triangles)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Convergence studies for the decoupled biharmonic "
                    "pipelines (Poisson/Stokes chains) on graded meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run a configured convergence study",
        description=CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    run_p.add_argument("config", help="INI experiment config")
    run_p.add_argument("--out", help="override the output directory")
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser(
        "compare", help="difference table between two pipeline configs",
        description="Runs both configs (same domain/k/levels/kappas, "
                    "differing only in algorithm or F) on shared meshes "
                    "and tabulates per-level solution differences.")
    cmp_p.add_argument("config_a")
    cmp_p.add_argument("config_b")
    cmp_p.add_argument("--out", help="output directory (default: config_a's)")
    cmp_p.set_defaults(func=_cmd_compare)

    ce_p = sub.add_parser(
        "corner-exponents",
        help="corner singularity exponents for an opening angle",
        description="Prints alpha0 (biharmonic/Stokes corner exponent) "
                    "and beta0 (Laplace exponent pi/omega) in fixed "
                    "15-digit decimal.")
    ce_p.add_argument("--omega", required=True,
                      help="opening angle in radians; accepts 4.71, pi, "
                           "3pi/2, 11pi/12")
    ce_p.set_defaults(func=_cmd_corner_exponents)

    mesh_p = sub.add_parser(
        "mesh", help="write a graded mesh to a text file",
        description="Builds `levels` graded refinements of a builtin "
                    "domain and writes the finest mesh.")
    mesh_p.add_argument("--domain", required=True,
                        help=f"one of {', '.join(BUILTIN_DOMAINS)} or a "
                             "mesh file")
    mesh_p.add_argument("--kappa", type=float, default=0.5,
                        help="grading factor in (0, 1/2] (default 0.5)")
    mesh_p.add_argument("--levels", type=int, default=3,
                        help="number of refinements (default 3)")
    mesh_p.add_argument("--out", required=True, help="output mesh file")
    mesh_p.set_defaults(func=_cmd_mesh)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
