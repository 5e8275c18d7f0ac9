"""Experiment runner: INI-configured convergence studies from the shell.

``biharm run config.ini`` builds one graded mesh hierarchy per grading
factor, runs the configured pipeline on it, writes rate tables (CSV and
markdown) and a per-level record, and prints the markdown tables.
``biharm compare a.ini b.ini`` runs two pipelines that differ only in
algorithm or force construction on shared meshes, factors and Stokes
matrices, and tabulates the norm differences of their solutions level
by level, in a CSV and in the markdown it prints.  ``biharm
corner-exponents --omega r`` prints the corner exponents for an
opening angle; ``biharm mesh`` dumps a graded mesh to a text file.

Both studies run one task per grading factor (a kappa column) through
``_run_columns``: in a thread pool, or on the calling thread for one
column or ``jobs = 1``.  A column reduces its own levels, to rate
reports (``_run_column``) or to difference norms (``_compare_column``),
before it returns, so its solutions are dropped with it; a numerical
or out-of-memory failure skips only its column.  Every difference is
one ``analysis.diff_norm`` of a pair in hierarchy order, the finer
field first: level j against level j-1 for rates, and two chains'
fields in the level's shared spaces for a comparison, where nothing is
lifted.  Both commands write under their (first) config's ``out``.

Rate CSVs (rates_<quantity>.csv, comparison.csv) are deterministic:
rerunning a config reproduces them byte for byte.  Wall-clock seconds
go only to levels.jsonl, with each level's solver health, and vary
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
from dataclasses import MISSING, dataclass, fields
from numbers import Integral

import numpy as np

from .analysis import NORMS, diff_norm, lift_pairs, markdown_table, rate_table
from .corners import beta0, solve_alpha0
from .meshing import builtin_domain, read_mesh, refine_hierarchy, write_mesh
from .solvers import run_chains, run_psp, run_sp
from .spaces import Field

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
BUILTIN_DOMAINS = ("square", "lshape", "convex_11pi12")

# Quantities each pipeline produces, in report order.
QUANTITIES = {
    "sp": ("phi", "u", "p"),
    "psp": ("w", "phi", "u", "p"),
}

CONFIG_HELP = """\
Config file schema (INI, one [experiment] section):

  [experiment]
  domain    = square | lshape | convex_11pi12 | path to a mesh file
  algorithm = sp | psp
  k         = 1 | 2 | 3          velocity degree (1 = Mini, 2/3 = Taylor-Hood)
  levels    = J >= 3             finest refinement level
  kappas    = 0.5, 0.1           grading factors in (0, 1/2]; 0.5 = uniform
  f         = const:<value>      scalar load (default const:1)
  F         = int_x | int_y | curl_w
                                 force construction; curl_w only with psp
                                 (defaults: curl_w for psp, int_x otherwise)
  norms     = H1, L2, Linf       norms of level differences, taken on the
                                 finer mesh (default H1, L2)
  out       = <directory>        output directory (default <config>.out)

Outputs under `out`: rates_<quantity>.csv (deterministic), levels.jsonl
(per level: Stokes CG iterations, gate residual, pressure mean, largest
divergence entry, LU back-solves and their largest residual, factor
entries, process peak RSS in MiB and the step during which it last
rose, and the only wall-clock seconds, per pipeline step), tables.md
(also printed on stdout).
"""


def _load_value(spec):
    """The finite constant c of the load spec ``const:<c>`` (``const``: 1)."""
    kind, _, arg = spec.partition(":")
    if kind != "const":
        raise ValueError(f"unsupported load spec {spec!r}")
    if not arg:
        return 1.0
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"spec {spec!r} needs a number after ':'") from None
    if not np.isfinite(value):
        raise ValueError(f"spec {spec!r} needs a finite number")
    return value


def parse_f_spec(spec):
    """Load spec -> callable f(x, y).  Supported: ``const:<value>``."""
    value = _load_value(spec)
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)


def parse_F_spec(f_spec, F_spec):
    """Force spec -> pair (F1, F2) with curl F = f, or None for ``curl_w``.

    For the load f = c: ``int_x`` is (0, c x) and ``int_y`` is (-c y, 0).
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
    raise ValueError(f"unsupported force spec {F_spec!r}")


def _fmt_kappa(kappa):
    return f"{kappa:g}"


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
        for name in ("k", "levels"):  # a bool is an Integral too
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        # the artifacts name a column by its printed kappa
        labels = [_fmt_kappa(kap) for kap in self.kappas]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"kappas contains duplicates as printed: {', '.join(labels)}")
        self.norms = tuple(self.norms)
        if not self.norms:
            raise ValueError("norms must be a non-empty list")
        if len(set(self.norms)) != len(self.norms):
            raise ValueError("norms contains duplicates")
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

    # each {kappa: ...} dict keeps the order of the config's kappas
    reports: dict  # (quantity, norm) -> {kappa: ConvergenceReport}
    levels: dict  # kappa -> list over levels of its levels.jsonl row
    failures: dict  # kappa -> error message for aborted columns
    paths: list


@dataclass
class ComparisonResult:
    """Per-level solution differences between two pipelines."""

    # rows and failures keep the order of the first config's kappas
    rows: dict  # kappa -> list of (level, {cell name: difference norm})
    failures: dict
    paths: list


def _split_list(raw):
    return [tok for tok in raw.replace(",", " ").split() if tok]


# Readers of the config keys that are not plain text, and what each wants.
_READERS = {
    "k": (int, "an integer"),
    "levels": (int, "an integer"),
    "kappas": (lambda raw: tuple(float(tok) for tok in _split_list(raw)),
               "numbers"),
    "norms": (lambda raw: tuple(_split_list(raw)), "names"),
}


def _read_key(key, raw):
    read, wanted = _READERS.get(key, (str.strip, "text"))
    try:
        return read(raw)
    except ValueError:
        raise ValueError(f"{key} must be {wanted}, got {raw!r}") from None


def parse_config(path):
    """Read an INI experiment config; defaults `out` to <path stem>.out.

    The keys are the fields of ``ExperimentConfig``; those without a
    default there are required, and an absent key takes its default.
    """
    # no interpolation: a '%' in a value is that character
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as handle:
            parser.read_file(handle, source=path)
    except configparser.Error as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
    if "experiment" not in parser:
        raise ValueError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    schema = fields(ExperimentConfig)
    unknown = sorted(set(section) - {field.name for field in schema})
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for field in schema:
        if field.default is MISSING and field.name not in section:
            raise ValueError(f"{path}: missing required key {field.name}")
    values = {key: _read_key(key, raw) for key, raw in section.items()}
    values.setdefault("out", os.path.splitext(path)[0] + ".out")
    return ExperimentConfig(**values)


def _root_mesh(domain):
    """Builtin level-0 mesh, or the level-0 mesh of a mesh file."""
    if domain in BUILTIN_DOMAINS:
        return builtin_domain(domain)[1]
    if os.path.exists(domain):
        return read_mesh(domain)
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
    every LevelRecord field but the solution Fields, in their declared
    order.  The level differences are taken here, so the column's
    solutions are dropped when it returns.
    """
    meshes = refine_hierarchy(root, config.levels, kappa)
    f, F = _chain(config)
    records = (run_psp(meshes, f, config.k) if F is None
               else run_sp(meshes, f, F, config.k))
    diffs = {(quantity, norm): [] for quantity in config.quantities
             for norm in config.norms}
    for fine, coarse in zip(records[1:], records):
        # each quantity is lifted once and serves every norm
        for quantity in config.quantities:
            pairs = lift_pairs(getattr(fine, quantity),
                               getattr(coarse, quantity), config.norms)
            for norm in config.norms:
                diffs[(quantity, norm)].append(
                    diff_norm(*pairs[norm], norm))
    levels = [rec.level for rec in records[1:]]
    reports = {key: rate_table(levels, values)
               for key, values in diffs.items()}
    rows = [{field.name: getattr(rec, field.name) for field in fields(rec)
             if field.type is not Field} for rec in records]
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
    return ExperimentResult(reports, levels, failures, paths)


def _write_artifacts(config, reports, levels, failures):
    os.makedirs(config.out, exist_ok=True)
    paths = []
    for quantity in config.quantities:
        lines = ["quantity,norm,kappa,level,diff,rate"]
        for norm in config.norms:
            for kappa, report in reports[(quantity, norm)].items():
                lines += [f"{quantity},{norm},{_fmt_kappa(kappa)},{level},"
                          f"{_fmt_diff(diff)},{_fmt_rate(rate)}"
                          for level, diff, rate in report.rows()]
        paths.append(_write(os.path.join(config.out,
                                         f"rates_{quantity}.csv"),
                            "\n".join(lines) + "\n"))

    lines = [json.dumps({"kappa": kappa, **row})
             for kappa, rows in levels.items() for row in rows]
    paths.append(_write(os.path.join(config.out, "levels.jsonl"),
                        "".join(line + "\n" for line in lines)))

    paths.append(_write(os.path.join(config.out, "tables.md"),
                        _tables_markdown(config, reports, failures)))
    return paths


def _skipped_markdown(failures):
    lines = ["### skipped kappa columns", ""]
    lines += [f"- kappa={_fmt_kappa(kappa)}: {message}"
              for kappa, message in failures.items()]
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
        chunks.append(_skipped_markdown(failures))
    return "\n\n".join(chunks) + "\n"


# The cells of a comparison row, in column order: comparison.csv names
# one (quantity, norm) cell as "phi_h1", comparison.md as "phi H1".
_COMPARE_CELLS = (("phi", "H1"), ("phi", "L2"), ("u", "H1"), ("u", "L2"),
                  ("p", "L2"))


def _cell_name(quantity, norm):
    return f"{quantity}_{norm.lower()}"


def _compare_column(config_a, config_b, root, kappa):
    """[(level, {cell name: difference norm})] for levels 1.. of a column.

    Both chains run in one ``run_chains`` call; each cell is the
    ``diff_norm`` of the two solutions on the level, which share its
    spaces, so nothing is lifted.
    """
    meshes = refine_hierarchy(root, config_a.levels, kappa)
    runs = run_chains(meshes, config_a.k,
                      [_chain(config_a), _chain(config_b)])
    rows = []
    for rec_a, rec_b in list(zip(*runs))[1:]:
        rows.append((rec_a.level, {
            _cell_name(quantity, norm): diff_norm(
                getattr(rec_a, quantity), getattr(rec_b, quantity), norm)
            for quantity, norm in _COMPARE_CELLS}))
    return rows


def run_comparison(config_a, config_b):
    """Level-by-level solution differences between two pipelines.

    The configs must agree except possibly in ``algorithm``, ``F``,
    ``norms`` and ``out``; ``norms`` is not read, every table has the
    phi and u differences in H1 and L2 and the p difference in L2.
    Each kappa column runs both chains on one mesh hierarchy with one
    factor per level; columns run as ``run`` runs them.
    Artifacts (comparison.csv, comparison.md) go to ``config_a.out``;
    with it empty nothing is written.
    """
    for name in ("domain", "k", "levels", "kappas", "f"):
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
    paths = (_write_comparison(config_a, config_b, rows, failures)
             if config_a.out else [])
    return ComparisonResult(rows, failures, paths)


def _write_comparison(config_a, config_b, rows, failures):
    out = config_a.out
    os.makedirs(out, exist_ok=True)
    lines = ["kappa,level,"
             + ",".join(_cell_name(*cell) for cell in _COMPARE_CELLS)]
    for kappa, column in rows.items():
        for level, diffs in column:
            cells = ",".join(f"{diff:.6e}" for diff in diffs.values())
            lines.append(f"{_fmt_kappa(kappa)},{level},{cells}")
    return [_write(os.path.join(out, "comparison.csv"),
                   "\n".join(lines) + "\n"),
            _write(os.path.join(out, "comparison.md"),
                   _comparison_markdown(config_a, config_b, rows, failures))]


def _comparison_markdown(config_a, config_b, rows, failures):
    chunks = [f"# {config_a.algorithm} (F={config_a.F}) vs "
              f"{config_b.algorithm} (F={config_b.F}) on {config_a.domain}, "
              f"k={config_a.k}"]
    labels = [f"{quantity} {norm}" for quantity, norm in _COMPARE_CELLS]
    for kappa, column in rows.items():
        lines = [f"### differences (kappa={_fmt_kappa(kappa)})", ""]
        lines.append("| j | " + " | ".join(labels) + " |")
        lines.append("|" + " --- |" * (1 + len(labels)))
        for level, diffs in column:
            cells = " | ".join(f"{diff:.5e}" for diff in diffs.values())
            lines.append(f"| {level} | {cells} |")
        chunks.append("\n".join(lines))
    if failures:
        chunks.append(_skipped_markdown(failures))
    return "\n\n".join(chunks) + "\n"


_PI_FORM = re.compile(
    r"^\s*(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$", re.I)


def parse_omega(text):
    """Opening angle from a decimal or a pi form like 3pi/2 or 11pi/12."""
    match = _PI_FORM.match(text)
    if match:
        num = float(match.group(1)) if match.group(1) else 1.0
        den = float(match.group(2)) if match.group(2) else 1.0
        if den == 0.0:
            raise ValueError(f"omega {text!r} divides by zero")
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
    if args.out is not None:
        config_a.out = args.out
    result = run_comparison(config_a, config_b)
    for path in result.paths:
        print(f"wrote {path}")
    print(_comparison_markdown(config_a, config_b, result.rows,
                               result.failures), end="")
    return 0


def _cmd_corner_exponents(args):
    omega = parse_omega(args.omega)
    alpha0, beta = solve_alpha0(omega), beta0(omega)
    print(f"omega  = {omega:.15f}")
    print(f"alpha0 = {alpha0:.15f}")
    print(f"beta0  = {beta:.15f}")
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
        description="Runs both configs (same domain/k/levels/kappas/f, "
                    "differing only in algorithm or F) on shared meshes, "
                    "factors and Stokes matrices, tabulates per-level "
                    "solution differences in comparison.csv and "
                    "comparison.md, and prints the latter.  The columns "
                    "are always phi and u in H1 and L2 and p in L2; the "
                    "configs' norms are not read.")
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
