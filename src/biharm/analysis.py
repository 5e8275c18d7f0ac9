"""Norms, inter-level differences, convergence rates, and diagnostics.

The convergence indicator compares solutions on successive nested
meshes: R_j = log2(||v_{j-1} - v_{j-2}|| / ||v_j - v_{j-1}||).  The
difference of two nested fields is taken after prolongating both
exactly into one Lagrange space on the finer mesh (P_k spaces on
refined meshes are nested; the Mini bubble is cubic, so a Mini field
lifts exactly into P3), so no representation error enters.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import kernels
from .assembly import (
    apply_dirichlet,
    assemble_divergence,
    assemble_mass,
    assemble_vector_stiffness,
    poly_degree,
    vector_boundary_dofs,
)
from .quadrature import physical_points, triangle_rule
from .spaces import (
    Field,
    basis_ref_grads,
    basis_values,
    build_space,
    jacobians,
    prolongate,
)

__all__ = [
    "ConvergenceReport",
    "field_norm",
    "lift_pairs",
    "diff_norm",
    "rate_table",
    "manufactured_error",
    "infsup_diagnostic",
    "markdown_table",
]

_NORMS = ("L2", "H1", "Linf")


@dataclass
class ConvergenceReport:
    quantity: str
    norm: str
    levels: list
    diffs: list
    rates: list  # same length as diffs; rates[i] may be None (absent)

    def rows(self):
        for lev, d, r in zip(self.levels, self.diffs, self.rates):
            yield lev, d, r


def _check_norm(norm):
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")


def _quad_order(space, norm):
    """Exact for the squared field (L2) or its squared gradient (H1)."""
    p = poly_degree(space)
    return 2 * p if norm == "L2" else max(1, 2 * (p - 1))


def _lagrange_nodes(space):
    """DOF nodes that carry point values (bubbles excluded)."""
    if space.kind == "lagrange_bubble":
        n = len(space.mesh.points)
        return space.dof_coords[:n], np.arange(n)
    return space.dof_coords, np.arange(space.ndof)


def field_norm(field, norm="L2"):
    """L2 norm, H1 seminorm, or nodal max of a field (components summed)."""
    _check_norm(norm)
    space = field.space
    if norm == "Linf":
        _, idx = _lagrange_nodes(space)
        return max(float(np.max(np.abs(field.component(c)[idx])))
                   for c in range(field.components))
    lam, w = triangle_rule(_quad_order(space, norm))
    _, det, inv_t = jacobians(space.mesh)
    ed = space.element_dofs
    vals = basis_values(space, lam)
    gref = basis_ref_grads(space, lam)
    sq = 0.0  # squared integrand at the quadrature points, (nt, nq)
    for c in range(field.components):
        coef = field.component(c)[ed]
        if norm == "L2":
            sq = sq + (coef @ vals.T) ** 2
        else:
            g = kernels.field_grads_at_quad(det, inv_t, gref, coef)
            sq = sq + g[..., 0] ** 2 + g[..., 1] ** 2
    return math.sqrt(float(np.abs(det) @ (sq @ w)))


def _order_pair(a, b):
    """Return (fine, coarse); fields may live on the same mesh."""
    ma, mb = a.space.mesh, b.space.mesh
    m = ma
    while m is not None:
        if m is mb:
            return a, b
        m = m.coarser
    m = mb
    while m is not None:
        if m is ma:
            return b, a
        m = m.coarser
    raise ValueError("fields do not live on nested meshes")


def _lift(field, space):
    """``field`` represented in ``space``, which must contain it."""
    if (field.space.mesh is space.mesh and field.space.degree == space.degree
            and field.space.kind == space.kind):
        return field
    return prolongate(field, space)


def lift_pairs(a, b, norms):
    """Both fields in the space where each norm of a - b is taken.

    Returns {norm: (fine, coarse)} for fields on nested meshes of one
    hierarchy, with one lift per distinct space: for L2/H1 the Lagrange
    space of the larger polynomial degree on the finer mesh (the Mini
    bubble is cubic, so Mini goes to P3), for Linf the finer field's own
    space.  Lagrange spaces on nested meshes are nested, so the lift is
    exact.  ``diff_norm`` of a returned pair lifts nothing more.
    """
    if a.components != b.components:
        raise ValueError("fields have different component counts")
    fine, coarse = _order_pair(a, b)
    lifted, out = {}, {}
    for norm in norms:
        _check_norm(norm)
        if norm == "Linf":
            spec = (fine.space.degree, fine.space.kind)
        else:
            spec = (max(poly_degree(fine.space), poly_degree(coarse.space)),
                    "lagrange")
        if spec not in lifted:
            space = fine.space
            if (space.degree, space.kind) != spec:
                space = build_space(space.mesh, spec[0])
            lifted[spec] = (_lift(fine, space), _lift(coarse, space))
        out[norm] = lifted[spec]
    return out


def diff_norm(a, b, norm="L2"):
    """Norm of a - b for fields on nested meshes of the same hierarchy.

    Both fields are lifted exactly into one space on the finer mesh (see
    ``lift_pairs``) and the norm of their difference is taken there; for
    Linf that samples the finer field's Lagrange nodes.
    """
    fine, coarse = lift_pairs(a, b, (norm,))[norm]
    delta = fine.coefficients - coarse.coefficients
    return field_norm(Field(fine.space, fine.components, delta), norm)


def rate_table(quantity, norm, levels, diffs):
    """Successive-difference convergence report.

    ``diffs[i]`` is ||v_{levels[i]} - v_{levels[i]-1}||; the rate at row i
    is log2(diffs[i-1] / diffs[i]), absent (None) when either difference
    is zero, negative, or missing.
    """
    levels = list(levels)
    diffs = [None if d is None else float(d) for d in diffs]
    if len(levels) != len(diffs):
        raise ValueError("levels and diffs must have equal length")
    if len(diffs) < 3:
        raise ValueError("need at least three difference values for rates")
    rates = [None]
    for prev, cur in zip(diffs, diffs[1:]):
        ok = prev is not None and cur is not None and prev > 0.0 and cur > 0.0
        rates.append(math.log2(prev / cur) if ok else None)
    return ConvergenceReport(quantity, norm, levels, diffs, rates)


def manufactured_error(field, exact, norm="L2", exact_grad=None):
    """Norm of field - exact for an analytic reference solution."""
    _check_norm(norm)
    if field.components != 1:
        raise ValueError("manufactured_error compares scalar fields")
    space = field.space
    mesh = space.mesh
    if norm == "Linf":
        nodes, idx = _lagrange_nodes(space)
        return float(
            np.max(np.abs(field.coefficients[idx] - exact(nodes[:, 0], nodes[:, 1])))
        )
    order = 2 * poly_degree(space) + 4
    lam, w = triangle_rule(order)
    pts = physical_points(lam, mesh.points[mesh.triangles])
    _, det, inv_t = jacobians(mesh)
    if norm == "L2":
        vals = basis_values(space, lam)
        vq = np.einsum("tl,ql->tq", field.coefficients[space.element_dofs], vals)
        eq = exact(pts[..., 0], pts[..., 1])
        return math.sqrt(
            float(np.einsum("q,tq->", w, np.abs(det)[:, None] * (vq - eq) ** 2))
        )
    if exact_grad is None:
        raise ValueError("H1 comparison needs the exact gradient")
    gref = basis_ref_grads(space, lam)
    g = kernels.field_grads_at_quad(det, inv_t, gref,
                                    field.coefficients[space.element_dofs])
    gx, gy = exact_grad(pts[..., 0], pts[..., 1])
    d = g - np.stack(np.broadcast_arrays(gx, gy), axis=-1)
    return math.sqrt(
        float(np.einsum("q,tq->", w, np.abs(det)[:, None] * np.sum(d**2, axis=2)))
    )


def infsup_diagnostic(vspace, pspace):
    """Discrete inf-sup constant of the velocity/pressure pair.

    Dense eigensolve of the pressure Schur complement B A^-1 B^T against
    the pressure mass matrix; the near-zero eigenvalue of the constant
    pressure mode is discarded and the square root of the next smallest
    is returned.  Guarded to small problems.
    """
    n = 2 * vspace.ndof + pspace.ndof
    if n > 5000:
        raise ValueError(f"problem too large for the dense diagnostic ({n} > 5000)")
    a = assemble_vector_stiffness(vspace)
    bdofs = vector_boundary_dofs(vspace)
    a, _ = apply_dirichlet(a, np.zeros(2 * vspace.ndof), bdofs)
    b = assemble_divergence(vspace, pspace).toarray()
    b[:, bdofs] = 0.0
    m = assemble_mass(pspace).toarray()
    ainv_bt = spla.spsolve(a.tocsc(), b.T)
    if ainv_bt.ndim == 1:
        ainv_bt = ainv_bt[:, None]
    schur = b @ ainv_bt
    schur = 0.5 * (schur + schur.T)
    evals = np.sort(scipy.linalg.eigh(schur, m, eigvals_only=True))
    # drop the constant-pressure nullvector and any spurious pressure
    # modes (exact zeros up to roundoff); keep the smallest nonzero
    tol = 1e-10 * max(float(evals[-1]), 1.0)
    nonzero = evals[evals > tol]
    if nonzero.size == 0:
        return 0.0
    return math.sqrt(float(nonzero[0]))


def markdown_table(reports_by_kappa, title):
    """Markdown rate table: one level per row, one kappa per column pair."""
    kappas = list(reports_by_kappa)
    levels = []
    for rep in reports_by_kappa.values():
        for lev in rep.levels:
            if lev not in levels:
                levels.append(lev)
    levels.sort()
    cols = "".join(f" diff (kappa={k:g}) | rate (kappa={k:g}) |"
                   for k in kappas)
    lines = [f"### {title}", "", f"| j |{cols}",
             "|---|" + "---|" * (2 * len(kappas))]
    for lev in levels:
        cells = []
        for k in kappas:
            rep = reports_by_kappa[k]
            if lev in rep.levels:
                i = rep.levels.index(lev)
                d, r = rep.diffs[i], rep.rates[i]
                cells.append("--" if d is None else f"{d:.5e}")
                cells.append("--" if r is None else f"{r:.2f}")
            else:
                cells.extend(["--", "--"])
        lines.append("| " + str(lev) + " | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
