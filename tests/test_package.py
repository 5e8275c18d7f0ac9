"""The public surface of every biharm module, imports that are used, and
the names the benchmark tracer wraps."""

import ast
import functools
import glob
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import biharm

MODULES = ["biharm"] + [f"biharm.{info.name}"
                        for info in pkgutil.iter_modules(biharm.__path__)]

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "biharm", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py")))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


@functools.lru_cache(maxsize=None)
def _referenced_names(path):
    """Names a file loads, imports or reads as an attribute."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return frozenset(names)


# Files whose calls make an exported function part of the program: the
# package's modules (a module's own calls count; the re-exports of
# __init__ do not) and the benchmark.  Tests are not users.
USERS = [path for path in glob.glob(os.path.join(ROOT, "src", "biharm", "*.py"))
         if os.path.basename(path) != "__init__.py"]
USERS += glob.glob(os.path.join(ROOT, "pipeline_bench", "*.py"))


def _public_callables(module):
    """Exported functions, and the public methods and properties that
    exported classes define, as (label, name) pairs."""
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if inspect.isfunction(obj):
            yield attr, attr
        elif inspect.isclass(obj):
            for name, member in vars(obj).items():
                if (not name.startswith("_")
                        and (inspect.isfunction(member)
                             or isinstance(member, property))):
                    yield f"{attr}.{name}", name


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_has_a_user(name):
    # a class itself is exempt: the result dataclasses are exported as
    # the return types of the functions that build them; their methods
    # and properties are not
    module = importlib.import_module(name)
    unused = [label for label, attr in _public_callables(module)
              if not any(attr in _referenced_names(path) for path in USERS)]
    assert unused == []


def _unused_imports(tree):
    """Top-level imported names never loaded in the module or its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    imported = [(alias.asname or alias.name).split(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    assert _unused_imports(tree) == []


# Traced in a fresh interpreter, so the wrappers that Tracer.install sets
# on biharm's modules stay out of this process.  A small sp study on two
# threads and a psp study then call every name the benchmark wraps.
TRACED_STUDIES = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from spans import Tracer
from biharm import cli
tracer = Tracer()
tracer.install()
for algorithm, kappas in (("sp", (0.5, 0.25)), ("psp", (0.5,))):
    config = cli.ExperimentConfig(domain="lshape", algorithm=algorithm, k=2,
                                  levels=3, kappas=kappas,
                                  norms=("H1", "L2", "Linf"),
                                  out=sys.argv[3] + "/" + algorithm)
    tracer.run("study", cli.run_experiment, config, jobs=2)
print(json.dumps({"missing": tracer.missing,
                  "names": sorted({span[0] for span in tracer.spans})}))
"""


def test_benchmark_tracer_finds_and_calls_every_name(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", TRACED_STUDIES, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "pipeline_bench"), str(tmp_path)],
        capture_output=True, text=True, check=True)
    trace = json.loads(result.stdout.splitlines()[-1])
    assert trace["missing"] == []
    called = {"meshing.refine_hierarchy", "sources.build_force",
              "solvers.run_chain", "analysis.diff_norm.H1",
              "analysis.diff_norm.L2", "analysis.diff_norm.Linf",
              "cli.column", "cli.write_artifacts"}
    assert called <= set(trace["names"])
