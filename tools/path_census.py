"""Statements of ``biharm`` that no checked-in input executes.

    python3 tools/path_census.py [--root CHECKOUT]

Runs, in this process and with a line tracer on every thread
(``sys.settrace`` and ``threading.settrace``):

* ``biharm run`` on every ``experiments/*.ini`` with ``levels = 3``;
* ``biharm compare`` on both checked-in pairs (``lshape_compare_psp``
  against ``lshape_compare_sp_intx``, ``lshape_compare_sp_intx`` against
  ``lshape_compare_sp_inty``), also at ``levels = 3``;
* ``biharm corner-exponents --omega 3pi/2``, through ``python -m
  biharm.cli`` so the module's ``__main__`` guard runs too;
* ``biharm mesh`` and a study rooted on the mesh file it writes;
* the smoke size of every workload in ``pipeline_bench/workloads.py``,
  as ``pipeline_bench/study.py`` runs it (``cli.run_experiment`` with
  the workload's jobs).

Then it parses each module of ``<root>/src/biharm`` with ``ast`` and
prints the statements none of those runs reached, one line each as
``module:line: source``; a compound statement that was never entered is
printed once, without its body.  Error handling is left out: ``raise``
statements, ``except`` blocks and every branch (the body of an ``if``,
``else``, loop or ``with``) whose last statement is a ``raise``; the
body of a function that ends in a ``raise`` is still listed.  The last
line counts the statements per module.  The CLI's own output goes to a
temporary directory that is removed afterwards.  Only the standard
library is used; the traced runs take a few seconds.
"""

import argparse
import ast
import contextlib
import glob
import io
import os
import re
import runpy
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class LineTracer:
    """Lines executed per file under ``prefix``, on every thread."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.hits = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.setdefault(frame.f_code.co_filename,
                                 set()).add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._local
        return None

    @contextlib.contextmanager
    def active(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)
            threading.settrace(None)


# -- the checked-in inputs ---------------------------------------------------


def _at_levels_3(path, workdir):
    """A copy of the config ``path`` in ``workdir`` with ``levels = 3``."""
    with open(path) as handle:
        text = handle.read()
    text = re.sub(r"(?m)^levels\s*=.*$", "levels = 3", text)
    copy = os.path.join(workdir, os.path.basename(path))
    with open(copy, "w") as handle:
        handle.write(text)
    return copy


def _write_ini(path, keys):
    with open(path, "w") as handle:
        handle.write("[experiment]\n")
        handle.writelines(f"{key} = {value}\n" for key, value in keys.items())
    return path


def run_inputs(root, workdir):
    """Every checked-in input once; returns [(input, exit status)]."""
    from biharm import cli

    experiments = os.path.join(root, "experiments")
    status = []

    def command(*argv):
        status.append((" ".join(argv), cli.main(list(argv))))

    for path in sorted(glob.glob(os.path.join(experiments, "*.ini"))):
        name = os.path.splitext(os.path.basename(path))[0]
        command("run", _at_levels_3(path, workdir),
                "--out", os.path.join(workdir, name))
    pairs = [("lshape_compare_psp", "lshape_compare_sp_intx"),
             ("lshape_compare_sp_intx", "lshape_compare_sp_inty")]
    for a, b in pairs:
        command("compare",
                *(os.path.join(workdir, f"{name}.ini") for name in (a, b)),
                "--out", os.path.join(workdir, f"{a}_vs_{b}"))

    argv = sys.argv
    sys.argv = ["biharm", "corner-exponents", "--omega", "3pi/2"]
    try:
        runpy.run_module("biharm.cli", run_name="__main__")
    except SystemExit as exc:
        status.append((" ".join(sys.argv[1:]), exc.code))
    finally:
        sys.argv = argv

    mesh = os.path.join(workdir, "lshape.mesh")
    command("mesh", "--domain", "lshape", "--kappa", "0.2", "--levels", "2",
            "--out", mesh)
    command("run", _write_ini(os.path.join(workdir, "on_mesh_file.ini"), {
        "domain": mesh, "algorithm": "sp", "k": 2, "levels": 3,
        "out": os.path.join(workdir, "on_mesh_file")}))

    sys.path.insert(0, os.path.join(root, "pipeline_bench"))
    try:
        from workloads import WORKLOADS, workload_config
    finally:
        sys.path.pop(0)
    for name, workload in WORKLOADS.items():
        keys = dict(workload_config(name, smoke=True), f="const:1.0",
                    out=os.path.join(workdir, name))
        config = cli.parse_config(
            _write_ini(os.path.join(workdir, f"{name}.ini"), keys))
        jobs = min(workload["jobs"], os.cpu_count() or 1)
        result = cli.run_experiment(config, jobs=jobs)
        status.append((f"workload {name} (smoke)",
                       1 if result.failures else 0))
    return status


# -- statements and their lines ----------------------------------------------


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _blocks(node):
    """The statement lists directly inside ``node``, handlers apart."""
    lists, handlers = [], []
    for field in ("body", "orelse", "finalbody"):
        block = getattr(node, field, None)
        if isinstance(block, list) and block and isinstance(block[0],
                                                             ast.stmt):
            lists.append(block)
    for handler in getattr(node, "handlers", []):
        handlers.append(handler.body)
    for case in getattr(node, "cases", []):
        lists.append(case.body)
    return lists, handlers


def _own_lines(node):
    """Lines whose execution means ``node`` itself ran."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    lists, handlers = _blocks(node)
    children = [block[0].lineno for block in lists + handlers]
    last = min(children) - 1 if children else node.end_lineno
    return range(first, max(first, last) + 1)


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _error_branch(owner, block):
    """Whether ``block`` of ``owner`` is a branch that ends in a raise."""
    return (not isinstance(owner, _SCOPES) and bool(block)
            and isinstance(block[-1], ast.Raise))


def unreached(tree, hits):
    """[(node, count)]: outermost unreached statements and their sizes."""
    out = []

    def visit(owner, block):
        """Walk one statement list; return whether any statement ran."""
        if _error_branch(owner, block):
            return False
        ran_any = False
        for node in block:
            if isinstance(node, ast.Raise) or _is_docstring(node):
                continue
            mark = len(out)
            lists, _ = _blocks(node)
            inner = [visit(node, child) for child in lists]
            ran = any(inner) or any(line in hits for line in _own_lines(node))
            if not ran:
                # report the statement, not its body: every statement in
                # it was listed (and counted) by the visits above
                size = 1 + sum(count for _, count in out[mark:])
                del out[mark:]
                out.append((node, size))
            ran_any = ran_any or ran
        return ran_any

    visit(tree, tree.body)
    return out


def census(root):
    src = os.path.join(os.path.abspath(root), "src")
    package = os.path.join(src, "biharm")
    tracer = LineTracer(package + os.sep)
    sys.path.insert(0, src)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir, tracer.active():
        import biharm
        if not os.path.abspath(biharm.__file__).startswith(package):
            raise SystemExit(f"biharm imported from {biharm.__file__}")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            status = run_inputs(os.path.abspath(root), workdir)
    seconds = time.perf_counter() - start
    for name, code in status:
        if code:
            print(f"input failed ({code}): {name}", file=sys.stderr)
    print(f"{len(status)} inputs traced in {seconds:.1f} s", file=sys.stderr)

    totals = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path) as handle:
            source = handle.read()
        lines = source.splitlines()
        module = os.path.basename(path)
        found = unreached(ast.parse(source, path), tracer.hits.get(path, ()))
        for node, _ in found:
            print(f"{module}:{node.lineno}: {lines[node.lineno - 1].strip()}")
        totals.append(f"{module} {sum(count for _, count in found)}")
    print("unreached statements: " + ", ".join(totals))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout to trace (default: this one)")
    census(parser.parse_args().root)


if __name__ == "__main__":
    main()
