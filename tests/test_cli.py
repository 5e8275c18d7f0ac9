"""Config parsing, experiment orchestration, artifacts, and the CLI."""

import collections
import glob
import json
import math
import os
import re
import threading

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import biharm.cli as cli
import biharm.corners as corners
import biharm.solvers
from biharm.meshing import Mesh
from biharm.solvers import stiffness_factor
from biharm.spaces import build_space
from biharm.cli import (
    ExperimentConfig,
    main,
    parse_config,
    parse_omega,
    run_comparison,
    run_experiment,
)

from oracles import geometry_owner, kernel_geometry

COMPARE_NAMES = ("phi_h1", "phi_l2", "u_h1", "u_l2", "p_l2")
EXPERIMENTS = os.path.join(os.path.dirname(__file__), os.pardir,
                           "experiments")


def write_config(path, **keys):
    lines = ["[experiment]"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def tiny_config(**overrides):
    base = dict(domain="square", algorithm="psp", k=1, levels=3,
                out="")
    base.update(overrides)
    return ExperimentConfig(**base)


def fail_kappa(monkeypatch, name, kappa):
    """Make ``cli.<name>`` raise on the hierarchy graded by ``kappa``.

    Columns may share a pool, so the failure is chosen by kappa, which
    the hierarchy's refined meshes carry.
    """
    real = getattr(cli, name)

    def flaky(meshes, *args):
        if meshes[-1].kappa == kappa:
            raise MemoryError("injected failure")
        return real(meshes, *args)

    monkeypatch.setattr(cli, name, flaky)


def after_wrote_lines(stdout, out, names):
    """What ``stdout`` prints after one ``wrote`` line per file in order."""
    head = "".join(f"wrote {out / name}\n" for name in names)
    assert stdout.startswith(head)
    return stdout[len(head):]


# -- ExperimentConfig validation ----------------------------------------------


@pytest.mark.parametrize("overrides,fragment", [
    (dict(algorithm="stokes"), "algorithm"),
    (dict(k=4), "k must be"),
    (dict(levels=2), "levels"),
    (dict(kappas=(0.6,)), "kappas"),
    (dict(kappas=(0.0,)), "kappas"),
    (dict(kappas=()), "kappas"),
    (dict(kappas=(0.5, 0.5)), "duplicates"),
    (dict(norms=("H2",)), "norms"),
    (dict(norms=()), "norms"),
    (dict(domain=""), "domain"),
    (dict(algorithm="sp", F="curl_w"), "curl_w"),
    (dict(algorithm="psp", F="int_x"), "psp"),
    (dict(algorithm="poisson_only"), "poisson_only"),
    (dict(algorithm="stokes_only"), "stokes_only"),
    (dict(algorithm="sp", F="int_z"), "force spec 'int_z'"),
    (dict(algorithm="sp", F="blend:0.5"), r"force spec 'blend:0\.5'"),
    (dict(algorithm="sp", F="blend"), "force spec 'blend'"),
    (dict(f="sin:1"), "load spec 'sin:1'"),
    (dict(f="const:abc"), "'const:abc' needs a number"),
    (dict(norms=("H1", "H1")), "norms contains duplicates"),
    # both columns would print as kappa 0.2
    (dict(kappas=(0.2, 0.2000001)), "duplicates as printed: 0.2, 0.2"),
    (dict(f="const:nan"), "'const:nan' needs a finite number"),
    (dict(f="const:inf"), "'const:inf' needs a finite number"),
    (dict(k=2.0), "k must be an integer, got 2.0"),
    (dict(k=True), "k must be an integer, got True"),
    (dict(levels=3.5), "levels must be an integer, got 3.5"),
    (dict(levels=4.0), "levels must be an integer, got 4.0"),
])
def test_config_rejects_bad_fields(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        tiny_config(**overrides)


def test_config_force_defaults_follow_algorithm():
    assert tiny_config(algorithm="psp").F == "curl_w"
    assert tiny_config(algorithm="sp").F == "int_x"
    assert tiny_config(algorithm="sp", F="int_y").F == "int_y"


def test_config_quantities_per_algorithm():
    assert tiny_config(algorithm="sp").quantities == ("phi", "u", "p")
    assert tiny_config(algorithm="psp").quantities == ("w", "phi", "u", "p")


# -- parse_config -------------------------------------------------------------


def test_parse_config_reads_fields_and_preserves_case(tmp_path):
    path = write_config(tmp_path / "demo.ini", domain="square",
                        algorithm="sp", k=2, levels=4,
                        kappas="0.5, 0.25", f="const:2  # inline comment",
                        F="int_y", norms="H1 L2 Linf")
    config = parse_config(path)
    assert config.domain == "square"
    assert config.algorithm == "sp"
    assert config.k == 2 and config.levels == 4
    assert config.kappas == (0.5, 0.25)
    assert config.f == "const:2"
    assert config.F == "int_y"
    assert config.norms == ("H1", "L2", "Linf")
    assert config.out == str(tmp_path / "demo.out")


def test_parse_config_reads_percent_literally(tmp_path):
    out = str(tmp_path / "run%1")
    path = write_config(tmp_path / "p.ini", domain="square", algorithm="sp",
                        k=2, levels=3, out=out)
    assert parse_config(path).out == out


def test_parse_config_errors(tmp_path):
    path = write_config(tmp_path / "a.ini", domain="square", algorithm="sp",
                        k=2, levels=4, fmax=3, seed=0)
    with pytest.raises(ValueError, match="unknown config keys: fmax, seed"):
        parse_config(path)
    path = write_config(tmp_path / "b.ini", domain="square", algorithm="sp",
                        k=2)
    with pytest.raises(ValueError, match="missing required key levels"):
        parse_config(path)
    path = write_config(tmp_path / "c.ini", domain="square", algorithm="sp",
                        k="two", levels=4)
    with pytest.raises(ValueError, match="k must be an integer"):
        parse_config(path)
    path = tmp_path / "d.ini"
    path.write_text("[study]\ndomain = square\n")
    with pytest.raises(ValueError, match="experiment"):
        parse_config(str(path))


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(EXPERIMENTS, "*.ini"))), ids=os.path.basename)
def test_checked_in_experiments_parse(path):
    config = parse_config(path)
    assert config.algorithm in cli.ALGORITHMS


# -- run_experiment -----------------------------------------------------------


def test_run_experiment_one_geometry_per_mesh(monkeypatch):
    # every kernel call, in the level loops and in the rate loop's norms,
    # reads one mesh's own det and inv_t, and every mesh of the two
    # columns is read: no kernel gets a recomputed geometry
    hierarchies = []
    real = cli.refine_hierarchy

    def refine(*args):
        hierarchies.append(real(*args))
        return hierarchies[-1]

    monkeypatch.setattr(cli, "refine_hierarchy", refine)
    calls = kernel_geometry(monkeypatch)
    config = tiny_config(kappas=(0.5, 0.25), norms=("H1", "L2", "Linf"))
    result = run_experiment(config, jobs=1)
    assert result.failures == {}
    # both columns share the level-0 root
    meshes = list({id(mesh): mesh for meshes in hierarchies
                   for mesh in meshes}.values())
    assert len(meshes) == 2 * config.levels + 1
    read = {id(geometry_owner(call, meshes)) for call in calls}
    assert read == {id(mesh) for mesh in meshes}


def test_run_experiment_poisson_reports_and_timings():
    config = tiny_config(norms=("H1", "L2"))
    result = run_experiment(config)
    assert result.paths == [] and result.failures == {}
    assert set(result.reports) == {(quantity, norm)
                                   for quantity in ("w", "phi", "u", "p")
                                   for norm in ("H1", "L2")}
    for norm, window in (("H1", (0.5, 1.5)), ("L2", (1.5, 2.5))):
        report = result.reports[("w", norm)][0.5]
        rows = list(report.rows())
        assert [row[0] for row in rows] == [1, 2, 3]
        assert rows[0][2] is None
        assert window[0] < rows[-1][2] < window[1]
    rows = result.levels[0.5]
    assert [row["level"] for row in rows] == list(range(config.levels + 1))
    assert all(set(row["seconds"]) == {"factor", "poisson_w",
                                       "stokes_assembly", "stokes",
                                       "poisson_phi"}
               for row in rows)


@pytest.mark.parametrize(
    "jobs,error",
    [(1, ArithmeticError), (2, ArithmeticError),
     (1, MemoryError), (2, MemoryError)],
    ids=["1", "2", "1-MemoryError", "2-MemoryError"])
def test_run_experiment_isolates_failed_kappa_columns(monkeypatch, jobs,
                                                      error):
    real = cli._run_column

    def flaky(config, root, kappa):
        if kappa == 0.25:
            raise error("injected failure")
        return real(config, root, kappa)

    monkeypatch.setattr(cli, "_run_column", flaky)
    config = tiny_config(kappas=(0.5, 0.25))
    result = run_experiment(config, jobs=jobs)
    assert result.failures == {0.25: "injected failure"}
    assert set(result.reports[("w", "H1")]) == {0.5}
    assert set(result.levels) == {0.5}


def test_threaded_columns_print_each_progress_line_once(capsys):
    kappas = (0.5, 0.25)
    result = run_experiment(tiny_config(kappas=kappas), jobs=2)
    assert result.failures == {}
    labels = collections.Counter(
        re.match(r"kappa=(\S+) level (\d+): ", line).groups()
        for line in capsys.readouterr().err.splitlines())
    assert labels == {(f"{kappa:g}", str(level)): 1 for kappa in kappas
                      for level in range(4)}


@pytest.mark.parametrize("kappas,jobs", [((0.5,), None), ((0.5, 0.25), 1)])
def test_serial_studies_run_columns_on_calling_thread(monkeypatch, kappas,
                                                      jobs):
    real = cli._run_column
    threads = []

    def recording(config, root, kappa):
        threads.append(threading.get_ident())
        return real(config, root, kappa)

    monkeypatch.setattr(cli, "_run_column", recording)
    result = run_experiment(tiny_config(kappas=kappas), jobs=jobs)
    assert result.failures == {}
    assert threads == [threading.get_ident()] * len(kappas)


class _OutOfMemoryLinalg:
    """scipy.sparse.linalg whose splu fails as SuperLU does out of memory."""

    def splu(self, *args, **kwargs):
        raise SystemError("gstrf was called with invalid arguments")

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.mark.parametrize("jobs", [1, 2])
def test_superlu_out_of_memory_is_isolated_per_column(monkeypatch, jobs):
    monkeypatch.setattr(biharm.solvers, "spla", _OutOfMemoryLinalg())
    with pytest.raises(MemoryError, match="gstrf") as info:
        biharm.solvers.SpdFactor(np.eye(3))
    assert isinstance(info.value.__cause__, SystemError)
    result = run_experiment(tiny_config(kappas=(0.5, 0.25)), jobs=jobs)
    assert set(result.failures) == {0.5, 0.25}
    assert all("gstrf" in message for message in result.failures.values())


def test_run_experiment_propagates_bad_input(monkeypatch):
    def broken(config, root, kappa):
        raise ValueError("bad input")

    monkeypatch.setattr(cli, "_run_column", broken)
    with pytest.raises(ValueError, match="bad input"):
        run_experiment(tiny_config(kappas=(0.5, 0.25)), jobs=1)


@pytest.fixture(scope="module")
def sp_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("sp") / "run1"
    config = tiny_config(algorithm="sp", kappas=(0.5, 0.25),
                         out=str(out))
    return config, run_experiment(config)


def test_artifact_files_and_rate_csv_schema(sp_artifacts):
    config, result = sp_artifacts
    names = sorted(os.path.basename(path) for path in result.paths)
    assert names == ["levels.jsonl", "rates_p.csv", "rates_phi.csv",
                     "rates_u.csv", "tables.md"]
    lines = open(os.path.join(config.out, "rates_u.csv")).read().splitlines()
    assert lines[0] == "quantity,norm,kappa,level,diff,rate"
    # 2 norms x 2 kappas x levels 1..3
    assert len(lines) == 1 + 2 * 2 * 3
    first = lines[1].split(",")
    assert first[:4] == ["u", "H1", "0.5", "1"]
    float(first[4])
    assert first[5] == ""  # no rate at the first refinement


def test_rate_csvs_are_deterministic(sp_artifacts, tmp_path):
    config, _ = sp_artifacts
    rerun = tiny_config(algorithm="sp", kappas=(0.5, 0.25),
                        out=str(tmp_path / "run2"))
    run_experiment(rerun)
    for name in ("rates_phi.csv", "rates_u.csv", "rates_p.csv"):
        first = open(os.path.join(config.out, name), "rb").read()
        second = open(os.path.join(rerun.out, name), "rb").read()
        assert first == second


def test_levels_jsonl_records_each_level(sp_artifacts):
    config, result = sp_artifacts
    lines = open(os.path.join(config.out, "levels.jsonl")).read().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [(row["kappa"], row["level"]) for row in rows] == [
        (kappa, level) for kappa in (0.5, 0.25)
        for level in range(config.levels + 1)]
    meshes = cli.refine_hierarchy(cli._root_mesh(config.domain),
                                  config.levels, 0.25)
    for row in rows:
        assert list(row) == ["kappa", "level", "iterations", "residual_norm",
                             "pressure_mean", "divergence_max", "lu_solves",
                             "lu_residual_max", "factor_nnz", "maxrss_mb",
                             "seconds"]
        assert set(row["seconds"]) == {"factor", "stokes_assembly", "stokes",
                                       "poisson_phi"}
        assert row["iterations"] >= 1
        assert 0.0 <= row["residual_norm"] < 1e-10
        # the values the pressure-mean and divergence gates bounded
        assert abs(row["pressure_mean"]) < 1e-10
        assert 0.0 <= row["divergence_max"] < 1e-10
        assert 0.0 <= row["lu_residual_max"] < 1e-10
        # one back-solve per CG step, one each for the Schur right-hand
        # side, the velocity recovery and phi, and above level 0 one for
        # the residual of the coarse-level start
        assert row["lu_solves"] == row["iterations"] + 3 + (row["level"] > 0)
        if row["kappa"] == 0.25:
            # the level's one factor is the P1 factor Mini's Stokes solve uses
            space = build_space(meshes[row["level"]], config.k)
            factor = stiffness_factor(space)
            assert row["factor_nnz"] == factor.nnz
    assert [row["factor_nnz"] for row in rows[:config.levels + 1]] == sorted(
        row["factor_nnz"] for row in rows[:config.levels + 1])
    # the process's peak RSS, read as each level ends: positive and
    # non-decreasing along a column
    for kappa in (0.5, 0.25):
        rss = [row["maxrss_mb"] for row in rows if row["kappa"] == kappa]
        assert rss[0] > 0.0 and rss == sorted(rss)
    # the file holds the result's rows, with their kappa
    assert rows == [{"kappa": kappa, **row} for kappa in (0.5, 0.25)
                    for row in result.levels[kappa]]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


# Level-4 rate CSVs of three small graded L-shape studies.  A solver
# change that moves one of their printed digits fails here, as a CG stop
# of 1e-11 |f| or looser does; a digit flip that only shows at finer
# levels passes.
@pytest.mark.parametrize("case, algorithm, k, kappa", [
    ("lshape_sp_k2", "sp", 2, 0.3),
    ("lshape_sp_mini", "sp", 1, 0.3),
    ("lshape_psp_k3", "psp", 3, 0.3),
])
def test_rate_csvs_match_golden_digits(tmp_path, case, algorithm, k, kappa):
    config = ExperimentConfig(domain="lshape", algorithm=algorithm, k=k,
                              levels=4, kappas=(kappa,),
                              norms=("H1", "L2", "Linf"),
                              out=str(tmp_path / case))
    run_experiment(config)
    golden = sorted(glob.glob(os.path.join(GOLDEN, case, "rates_*.csv")))
    assert [os.path.basename(path) for path in golden] == [
        f"rates_{quantity}.csv" for quantity in sorted(config.quantities)]
    for path in golden:
        written = os.path.join(config.out, os.path.basename(path))
        assert open(written).read() == open(path).read(), path


def test_tables_markdown_lists_skipped_columns(monkeypatch, tmp_path):
    real = cli._run_column

    def flaky(config, root, kappa):
        if kappa == 0.25:
            raise ArithmeticError("injected failure")
        return real(config, root, kappa)

    monkeypatch.setattr(cli, "_run_column", flaky)
    config = tiny_config(kappas=(0.5, 0.25), out=str(tmp_path / "out"))
    run_experiment(config, jobs=1)
    text = open(os.path.join(config.out, "tables.md")).read()
    assert "### skipped kappa columns" in text
    assert "kappa=0.25: injected failure" in text


# -- run_comparison -----------------------------------------------------------


def test_comparison_rejects_mismatched_and_partial_configs():
    a = tiny_config(algorithm="sp")
    with pytest.raises(ValueError, match="configs must agree on domain"):
        run_comparison(a, tiny_config(algorithm="sp", domain="lshape"))
    # a chain that stops short of phi is no config at all
    with pytest.raises(ValueError, match="algorithm"):
        run_comparison(a, tiny_config(algorithm="stokes_only"))


def test_comparison_of_identical_configs_is_zero():
    a = tiny_config(algorithm="sp")
    b = tiny_config(algorithm="sp")
    result = run_comparison(a, b)
    assert result.paths == [] and result.failures == {}
    rows = result.rows[0.5]
    assert [level for level, _ in rows] == [1, 2, 3]
    for _, diffs in rows:
        assert set(diffs) == set(COMPARE_NAMES)
        assert all(value == pytest.approx(0.0, abs=1e-13)
                   for value in diffs.values())


def test_comparison_compares_load_values_not_spellings():
    # const:1 and const:1.0 are the same load; const:2 is another
    a = tiny_config(algorithm="sp", f="const:1")
    result = run_comparison(a, tiny_config(algorithm="sp", f="const:1.0"))
    assert all(value == pytest.approx(0.0, abs=1e-13)
               for _, diffs in result.rows[0.5] for value in diffs.values())
    with pytest.raises(ValueError, match="configs must agree on f"):
        run_comparison(a, tiny_config(algorithm="sp", f="const:2"))


def test_comparison_does_not_read_norms(tmp_path):
    # the table always has the same five columns, whatever norms list
    a = tiny_config(algorithm="psp", norms=("Linf",),
                    out=str(tmp_path / "differ"))
    run_comparison(a, tiny_config(algorithm="sp", norms=("H1", "L2")))
    run_comparison(tiny_config(algorithm="psp", out=str(tmp_path / "same")),
                   tiny_config(algorithm="sp"))
    got = (tmp_path / "differ" / "comparison.csv").read_bytes()
    assert got.decode().splitlines()[0] == ("kappa,level,"
                                            + ",".join(COMPARE_NAMES))
    assert got == (tmp_path / "same" / "comparison.csv").read_bytes()


def test_comparison_isolates_failed_kappa_columns(monkeypatch):
    fail_kappa(monkeypatch, "run_chains", 0.25)
    a = tiny_config(algorithm="sp", kappas=(0.5, 0.25))
    result = run_comparison(a, tiny_config(algorithm="sp",
                                           kappas=(0.5, 0.25)))
    assert result.failures == {0.25: "injected failure"}
    assert set(result.rows) == {0.5}


def test_one_kappa_comparison_runs_on_calling_thread(monkeypatch):
    real = cli.run_chains
    threads = []

    def recording(meshes, k, chains):
        threads.append(threading.get_ident())
        return real(meshes, k, chains)

    monkeypatch.setattr(cli, "run_chains", recording)
    result = run_comparison(tiny_config(algorithm="psp"),
                            tiny_config(algorithm="sp"))
    assert result.failures == {}
    assert threads == [threading.get_ident()]


# comparison.csv of a levels-3 square psp-vs-sp comparison with two kappa
# columns: a change of the difference arithmetic, of a printed digit or
# of the column order fails here.
@pytest.mark.parametrize("k", [1, 2])
def test_comparison_csv_matches_golden_bytes(tmp_path, k):
    out = tmp_path / "cmp"
    config = dict(domain="square", k=k, levels=3, kappas=(0.5, 0.25))
    run_comparison(ExperimentConfig(algorithm="psp", out=str(out), **config),
                   ExperimentConfig(algorithm="sp", **config))
    golden = os.path.join(GOLDEN, f"square_psp_vs_sp_k{k}", "comparison.csv")
    assert (out / "comparison.csv").read_bytes() == open(golden, "rb").read()


def test_comparison_psp_vs_sp_writes_artifacts(tmp_path):
    out = tmp_path / "cmp"
    a = tiny_config(algorithm="psp", out=str(out))
    b = tiny_config(algorithm="sp")
    result = run_comparison(a, b)
    lines = open(out / "comparison.csv").read().splitlines()
    assert lines[0] == "kappa,level," + ",".join(COMPARE_NAMES)
    assert len(lines) == 1 + 3
    values = np.array([line.split(",")[2:] for line in lines[1:]],
                      dtype=float)
    assert np.all(np.isfinite(values)) and np.all(values > 0.0)
    assert (out / "comparison.md").exists()


def test_study_rooted_on_a_written_mesh_file(tmp_path, capsys,
                                            monkeypatch):
    # the file holds a level-2 mesh; the study counts its levels from it
    path = tmp_path / "lshape.mesh"
    assert main(["mesh", "--domain", "lshape", "--levels", "2",
                 "--kappa", "0.3", "--out", str(path)]) == 0
    config = tiny_config(domain=str(path), algorithm="sp",
                         out=str(tmp_path / "run"))
    built = []  # the level of every Mesh made, in order
    post_init = Mesh.__post_init__

    def counting(mesh):
        built.append(mesh.level)
        post_init(mesh)

    monkeypatch.setattr(Mesh, "__post_init__", counting)
    result = run_experiment(config)
    monkeypatch.undo()
    assert built == [0, 1, 2, 3]  # the root is read once, not rebuilt
    assert result.failures == {}
    assert result.reports[("phi", "H1")][0.5].levels == [1, 2, 3]
    assert os.path.exists(os.path.join(config.out, "levels.jsonl"))
    result = run_comparison(tiny_config(domain=str(path), algorithm="psp"),
                            tiny_config(domain=str(path), algorithm="sp"))
    assert [level for level, _ in result.rows[0.5]] == [1, 2, 3]


def test_non_finite_input_exits_2_naming_it(tmp_path, capsys):
    # a NaN load or mesh coordinate is bad input, refused before any solve
    config = write_config(tmp_path / "nan.ini", domain="square",
                          algorithm="sp", k=2, levels=3, f="const:nan")
    assert main(["run", config]) == 2
    assert "'const:nan' needs a finite number" in capsys.readouterr().err
    path = tmp_path / "square.mesh"
    assert main(["mesh", "--domain", "square", "--levels", "0",
                 "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    n = next(i for i, line in enumerate(lines)
             if line.startswith("p ") and len(line.split()) == 3)
    lines[n] = "p nan 0.0"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    config = write_config(tmp_path / "mesh.ini", domain=str(path),
                          algorithm="sp", k=2, levels=3)
    assert main(["run", config]) == 2
    assert f"line {n + 1}: cannot read 'p nan 0.0'" in capsys.readouterr().err


# -- parse_omega --------------------------------------------------------------


@pytest.mark.parametrize("text,value", [
    ("pi", math.pi),
    ("2pi", 2 * math.pi),
    ("3pi/2", 1.5 * math.pi),
    ("11pi/12", 11 * math.pi / 12),
    ("11PI / 12", 11 * math.pi / 12),
    ("2.5", 2.5),
])
def test_parse_omega_forms(text, value):
    assert parse_omega(text) == pytest.approx(value, rel=1e-15)


def test_parse_omega_rejects_garbage():
    with pytest.raises(ValueError, match="omega"):
        parse_omega("twopi")
    with pytest.raises(ValueError, match="omega 'pi/0' divides by zero"):
        parse_omega("pi/0")


# -- command line -------------------------------------------------------------


def test_cli_corner_exponents(capsys):
    assert main(["corner-exponents", "--omega", "3pi/2"]) == 0
    out = capsys.readouterr().out
    assert "alpha0 = 0.544483736782464" in out
    assert "beta0  = 0.666666666666667" in out


def test_cli_corner_exponents_for_a_narrow_opening(capsys):
    assert main(["corner-exponents", "--omega", "pi/6"]) == 0
    assert "alpha0 = 8.062965" in capsys.readouterr().out


def test_cli_corner_exponents_for_a_near_straight_opening(capsys):
    # pi (1 + 1e-7): the exponent 1 - 2e-7 lies within 1e-6 of the
    # trivial root z = 1 but belongs to the other factor
    assert main(["corner-exponents", "--omega", "3.141592967749059"]) == 0
    assert "alpha0 = 0.99999980000" in capsys.readouterr().out


def test_cli_corner_exponents_without_a_root_exits_2(monkeypatch, capsys):
    # a window too narrow to hold alpha0: an error line, not a traceback
    monkeypatch.setattr(corners, "_ZETA_RE_MAX", 1.0)
    assert main(["corner-exponents", "--omega", "pi/2"]) == 2
    assert "error: no nontrivial characteristic roots" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("omega,message", [
    ("2pi", "opening angle must lie in (0, 2pi)"),
    ("pi/0", "divides by zero"),
], ids=["full-turn", "zero-denominator"])
def test_cli_corner_exponents_prints_nothing_on_rejected_input(
        capsys, omega, message):
    assert main(["corner-exponents", "--omega", omega]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_mesh_writes_file(tmp_path, capsys):
    path = tmp_path / "square.mesh"
    code = main(["mesh", "--domain", "square", "--levels", "2",
                 "--kappa", "0.5", "--out", str(path)])
    assert code == 0
    assert path.exists()
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("kappa", ["0.7", "-1", "0"])
def test_cli_mesh_rejects_kappa_out_of_range(tmp_path, capsys, kappa):
    # the square grades no corner, and kappa is still checked
    path = tmp_path / "square.mesh"
    assert main(["mesh", "--domain", "square", f"--kappa={kappa}",
                 "--out", str(path)]) == 2
    assert "kappa must lie in (0, 1/2]" in capsys.readouterr().err
    assert not path.exists()


def test_cli_mesh_rejects_negative_levels(tmp_path, capsys):
    path = tmp_path / "m.txt"
    assert main(["mesh", "--domain", "lshape", "--levels", "-2",
                 "--out", str(path)]) == 2
    assert "levels must be non-negative, got -2" in capsys.readouterr().err
    assert not path.exists()


def test_cli_run_with_out_override(tmp_path, capsys):
    config = write_config(tmp_path / "tiny.ini", domain="square",
                          algorithm="psp", k=1, levels=3)
    out = tmp_path / "elsewhere"
    assert main(["run", config, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out / 'rates_w.csv'}" in stdout
    assert "w in H1" in stdout
    assert (out / "tables.md").exists()
    assert not (tmp_path / "tiny.out").exists()


def test_cli_compare_subcommand(tmp_path, capsys):
    a = write_config(tmp_path / "a.ini", domain="square", algorithm="psp",
                     k=1, levels=3)
    b = write_config(tmp_path / "b.ini", domain="square", algorithm="sp",
                     k=1, levels=3)
    out = tmp_path / "cmp"
    assert main(["compare", a, b, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out / 'comparison.csv'}" in stdout
    assert "### differences (kappa=0.5)" in stdout


def test_cli_run_prints_tables_md(tmp_path, capsys, monkeypatch):
    fail_kappa(monkeypatch, "run_psp", 0.25)
    config = write_config(tmp_path / "tiny.ini", domain="square",
                          algorithm="psp", k=1, levels=3,
                          kappas="0.5, 0.25")
    out = tmp_path / "run"
    assert main(["run", config, "--out", str(out)]) == 0
    tables = after_wrote_lines(
        capsys.readouterr().out, out,
        ["rates_w.csv", "rates_phi.csv", "rates_u.csv", "rates_p.csv",
         "levels.jsonl", "tables.md"])
    assert tables.encode() == (out / "tables.md").read_bytes()
    assert "- kappa=0.25: injected failure" in tables


def test_cli_compare_prints_comparison_md(tmp_path, capsys, monkeypatch):
    fail_kappa(monkeypatch, "run_chains", 0.25)
    a, b = (write_config(tmp_path / f"{algorithm}.ini", domain="square",
                         algorithm=algorithm, k=1, levels=3,
                         kappas="0.5, 0.25")
            for algorithm in ("psp", "sp"))
    out = tmp_path / "cmp"
    assert main(["compare", a, b, "--out", str(out)]) == 0
    markdown = after_wrote_lines(capsys.readouterr().out, out,
                                 ["comparison.csv", "comparison.md"])
    assert markdown.encode() == (out / "comparison.md").read_bytes()
    assert "### differences (kappa=0.5)" in markdown
    assert "### differences (kappa=0.25)" not in markdown
    assert markdown.endswith("### skipped kappa columns\n\n"
                             "- kappa=0.25: injected failure\n")


@pytest.mark.parametrize("body,line", [("", 1), ("mesh 1 0\np 1\n", 2)],
                         ids=["empty", "short-line"])
def test_cli_rejects_malformed_mesh_file(tmp_path, capsys, body, line):
    path = tmp_path / "bad.mesh"
    path.write_text(body)
    config = write_config(tmp_path / "bad.ini", domain=path, algorithm="sp",
                          k=2, levels=3)
    assert main(["run", config]) == 2
    assert f"error: line {line}:" in capsys.readouterr().err
    assert main(["mesh", "--domain", str(path),
                 "--out", str(tmp_path / "out.mesh")]) == 2
    assert f"error: line {line}:" in capsys.readouterr().err


def test_cli_reports_errors_with_exit_code_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = write_config(tmp_path / "bad.ini", domain="square",
                       algorithm="simplex", k=1, levels=3)
    assert main(["run", bad]) == 2
    assert "algorithm" in capsys.readouterr().err
    assert main(["corner-exponents", "--omega", "nope"]) == 2
    assert "omega" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[experiment]\ndomain = square\ndomain = lshape\nalgorithm = sp\n"
     "k = 2\nlevels = 3\n", "option 'domain' in section 'experiment' "
     "already exists"),
    ("domain = square\nalgorithm = sp\nk = 2\nlevels = 3\n",
     "no section headers"),
], ids=["duplicate-key", "no-section"])
def test_cli_run_rejects_malformed_ini_with_exit_code_2(
        tmp_path, capsys, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert message in captured.err
    assert not (tmp_path / "bad.out").exists()
