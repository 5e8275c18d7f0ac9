"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces public functions at each module boundary of
``biharm`` with wrappers that record a span (name, start, end, parent,
run id) around the call.  Nothing under ``src/`` changes: the wrappers
are set on the module attributes that callers look up at call time.

* meshing:  ``cli.refine_hierarchy``
* spaces:   ``solvers.stokes_spaces`` and ``solvers.build_space``
* assembly: every ``assemble_*`` name imported by ``solvers``
* kernels:  the ``biharm.kernels`` element functions
* sources:  ``cli.parse_F_spec`` and ``cli.parse_f_spec`` (the force
  construction, whose curl check imports ``scipy.stats`` on first use)
* solvers:  ``solvers.solve_stokes``, ``solvers.solve_poisson``,
  ``scipy.sparse.linalg.splu`` as seen by ``solvers`` (through a module
  proxy) with a counting proxy for ``SuperLU.solve``, and the
  ``cli.run_sp`` / ``cli.run_psp`` chains
* analysis: ``cli.diff_norm``, one span name per norm
* cli:      ``cli._run_column`` (one span per kappa column) and
  ``cli._write_artifacts``; the study itself is the root span

The parent of a span is the innermost open span of its own thread, or
the root when the thread has none; kappa columns run in pool threads,
so the stack is thread-local.  Spans stay in memory until ``dump``.
A name missing from the program is skipped and listed in ``missing``.
"""

import functools
import json
import threading
import time

LAYERS = ("meshing", "spaces", "assembly", "kernels", "sources", "solvers",
          "analysis", "cli")


class Tracer:
    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent, thread]
        self.counters = {}
        self.missing = []
        self.root = None
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    def traced(self, name, func, after=None):
        """``func`` wrapped in a span; ``after(args, result)`` runs outside it.

        ``name`` may be a callable of the call's arguments.
        """
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def wrap(self, owner, attr, name, after=None):
        func = getattr(owner, attr, None)
        if func is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, self.traced(name, func, after))

    # -- wiring into biharm ------------------------------------------------

    def install(self):
        from biharm import cli, kernels, solvers

        self.wrap(cli, "refine_hierarchy", "meshing.refine_hierarchy",
                  lambda args, meshes: self.maximum(
                      "meshing.triangles_finest", len(meshes[-1].triangles)))

        self.wrap(solvers, "stokes_spaces", "spaces.stokes_spaces",
                  lambda args, pair: self.maximum(
                      "spaces.stokes_unknowns_finest",
                      2 * pair[0].ndof + pair[1].ndof))
        self.wrap(solvers, "build_space", "spaces.build_space")

        for attr in sorted(vars(solvers)):
            if attr.startswith("assemble_"):
                self.wrap(solvers, attr, f"assembly.{attr}",
                          lambda args, result: self.count("assembly.calls"))

        for attr, cost in _KERNEL_COSTS.items():
            self.wrap(kernels, attr, f"kernels.{attr}",
                      functools.partial(self._kernel_work, cost))

        for attr in ("parse_F_spec", "parse_f_spec"):
            self.wrap(cli, attr, "sources.build_force")

        self.wrap(solvers, "solve_stokes", "solvers.solve_stokes")
        self.wrap(solvers, "solve_poisson", "solvers.solve_poisson",
                  lambda args, result: self.count(
                      "solvers.solve_poisson_calls"))
        if hasattr(solvers, "spla"):
            solvers.spla = _LinalgProxy(solvers.spla, self)
        else:
            self.missing.append("biharm.solvers.spla")
        for attr in ("run_sp", "run_psp"):
            self.wrap(cli, attr, "solvers.run_chain")

        self.wrap(cli, "diff_norm", _diff_norm_name,
                  lambda args, result: self.count(
                      "analysis.diff_norm_calls"))
        self.wrap(cli, "_run_column", "cli.column")
        self.wrap(cli, "_write_artifacts", "cli.write_artifacts")

    def _kernel_work(self, cost, args, out):
        flops = cost(args)
        nbytes = sum(a.nbytes for a in args if hasattr(a, "nbytes"))
        self.count("kernels.calls")
        self.count("kernels.computed_flops", flops)
        self.count("kernels.computed_bytes", nbytes + out.nbytes)

    def run(self, name, func, *args, **kwargs):
        """Call ``func`` as the root span of this run."""
        self.root = self.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            self.end(self.root)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id, "root": self.root,
                       "spans": self.spans, "counters": self.counters,
                       "missing": self.missing}, handle)


def _diff_norm_name(args, kwargs):
    norm = args[2] if len(args) > 2 else kwargs.get("norm", "L2")
    return f"analysis.diff_norm.{norm}"


class _CountingLU:
    """SuperLU stand-in that counts and times ``solve``."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.traced(
            "solvers.lu_solve", lu.solve,
            lambda args, result: tracer.count("solvers.lu_solves"))

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _LinalgProxy:
    """``scipy.sparse.linalg`` as seen by ``solvers``, with ``splu`` traced."""

    def __init__(self, module, tracer):
        self._module = module

        def after(args, lu):
            tracer.count("solvers.splu_calls")
            tracer.maximum("solvers.factor_nnz_finest", int(lu.nnz))

        splu = tracer.traced("solvers.splu", module.splu, after)
        self.splu = lambda *args, **kwargs: _CountingLU(
            splu(*args, **kwargs), tracer)

    def __getattr__(self, name):
        return getattr(self._module, name)


# Operation counts of the element kernels, computed from the argument
# shapes (not measured): a gradient push-forward is 6 flops per basis
# function and quadrature point, a weighted product-accumulate 5.


def _stiffness_flops(args):
    det, _, gref, _ = args
    nt, (nq, nloc) = len(det), gref.shape[:2]
    return nt * nq * nloc * 6 + nt * nq * nloc * nloc * 5 + nt * nloc * nloc


def _mass_flops(args):
    det, vals, _ = args
    nq, nloc = vals.shape
    return nq * nloc * nloc * 3 + len(det) * nloc * nloc


def _divergence_flops(args):
    det, _, gref_v, vals_p, _ = args
    nt, (nq, nlv), nlp = len(det), gref_v.shape[:2], vals_p.shape[1]
    return nt * nq * nlv * 6 + nt * nq * nlp * nlv * 2 * 3


def _load_flops(args):
    det, vals, _, _ = args
    nq, nloc = vals.shape
    return len(det) * (nq * nloc * 3 + nloc)


def _grads_at_quad_flops(args):
    det, _, gref, _ = args
    nt, (nq, nloc) = len(det), gref.shape[:2]
    return nt * nq * nloc * (6 + 4)


_KERNEL_COSTS = {
    "element_stiffness": _stiffness_flops,
    "element_mass": _mass_flops,
    "element_divergence": _divergence_flops,
    "element_load": _load_flops,
    "field_grads_at_quad": _grads_at_quad_flops,
}


# -- summary ---------------------------------------------------------------


COUNTERS = ("meshing.triangles_finest", "spaces.stokes_unknowns_finest",
            "assembly.calls", "kernels.calls", "kernels.computed_flops",
            "kernels.computed_bytes", "solvers.splu_calls",
            "solvers.factor_nnz_finest", "solvers.lu_solves",
            "solvers.solve_poisson_calls", "analysis.diff_norm_calls")

# Busy-time metrics and the span-name prefix each one sums.
BUSY = {
    "meshing.refine_hierarchy_s": "meshing.",
    "spaces.build_space_s": "spaces.",
    "assembly.s": "assembly.",
    "kernels.element_s": "kernels.",
    "sources.build_force_s": "sources.",
    "solvers.solve_stokes_s": "solvers.solve_stokes",
    "solvers.splu_s": "solvers.splu",
    "solvers.lu_solve_s": "solvers.lu_solve",
    "solvers.solve_poisson_s": "solvers.solve_poisson",
    "solvers.run_chain_s": "solvers.run_chain",
    "analysis.diff_norm_s": "analysis.diff_norm",
    "analysis.diff_norm.H1_s": "analysis.diff_norm.H1",
    "analysis.diff_norm.L2_s": "analysis.diff_norm.L2",
    "analysis.diff_norm.Linf_s": "analysis.diff_norm.Linf",
    "cli.write_artifacts_s": "cli.write_artifacts",
}


def _layer(name):
    return name.split(".", 1)[0]


def _union_length(intervals):
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarise(trace):
    """Per-layer metrics (name -> value) from a dumped trace.

    Layer seconds are busy time summed over threads: the spans whose
    name starts with the metric's prefix, not nested in another of them.
    A span's self time is its duration minus its children on the same
    thread, minus the wall time its children on other threads cover (the
    time the parent thread waits for the pool).  Self times then add up to the
    root's duration plus the concurrent column time, the second value
    returned: column busy time minus the column phase's wall time.
    """
    spans, root = trace["spans"], trace["root"]
    duration = [end - start for _, start, end, _, _ in spans]

    same_thread = [0.0] * len(spans)
    other_thread = [[] for _ in spans]
    for name, start, end, parent, thread in spans:
        if parent is None:
            continue
        if thread == spans[parent][4]:
            same_thread[parent] += end - start
        else:
            other_thread[parent].append((start, end))
    self_s = [duration[i] - same_thread[i] - _union_length(other_thread[i])
              for i in range(len(spans))]

    def ancestors(i):
        parent = spans[i][3]
        while parent is not None:
            yield spans[parent][0]
            parent = spans[parent][3]

    def total(prefix):
        return sum(duration[i] for i, span in enumerate(spans)
                   if span[0].startswith(prefix)
                   and not any(a.startswith(prefix) for a in ancestors(i)))

    # solve_stokes minus its assembly and splu work: ordering,
    # equilibration, refinement, Dirichlet elimination and the gates
    stokes_self = total("solvers.solve_stokes") - sum(
        duration[i] for i, span in enumerate(spans)
        if (_layer(span[0]) == "assembly" or span[0] == "solvers.splu")
        and "solvers.solve_stokes" in ancestors(i))

    columns = [(start, end) for name, start, end, _, _ in spans
               if name == "cli.column"]
    column_phase = (max(e for _, e in columns) - min(s for s, _ in columns)
                    if columns else 0.0)
    column_busy = sum(e - s for s, e in columns)

    metrics = {name: trace["counters"].get(name, 0) for name in COUNTERS}
    for name, prefix in BUSY.items():
        metrics[name] = total(prefix)
    metrics["solvers.solve_stokes_self_s"] = stokes_self
    metrics["cli.column_overlap"] = (column_busy / column_phase
                                     if column_phase else 0.0)
    metrics["cli.column_phase_s"] = column_phase
    metrics["trace.study_s"] = duration[root]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            self_s[i] for i, span in enumerate(spans)
            if _layer(span[0]) == layer)
    order = LAYERS + ("trace",)
    metrics = dict(sorted(metrics.items(),
                          key=lambda item: order.index(_layer(item[0]))))
    return metrics, column_busy - column_phase

