"""Norms, inter-level differences, convergence rates, and rate tables.

The convergence indicator compares solutions on successive nested
meshes: R_j = log2(||v_{j-1} - v_{j-2}|| / ||v_j - v_{j-1}||).  The
difference of two nested fields is taken after prolongating both
exactly into one Lagrange space on the finer mesh (P_k spaces on
refined meshes are nested; the Mini bubble is cubic, so a Mini field
lifts exactly into P3), so no representation error enters.  Norms
take the ``geometry`` of the mesh they integrate on, the pair
``spaces.jacobians(mesh)``, from their caller, who computes it once for
every norm on that mesh.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .assembly import poly_degree
from .quadrature import triangle_rule
from .spaces import (
    TRANSFER_ROWS,
    Field,
    basis_ref_grads,
    basis_values,
    build_space,
    prolongate,
)

__all__ = [
    "ConvergenceReport",
    "field_norm",
    "lift_pairs",
    "diff_norm",
    "rate_table",
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


def field_norm(field, norm, geometry):
    """L2 norm, H1 seminorm, or nodal max of a field (components summed).

    ``geometry`` is ``jacobians`` of the field's mesh (the nodal max does
    not use it).  The squared integrand is formed TRANSFER_ROWS
    triangles at a time; each block leaves only its per-triangle
    quadrature sums, and one product with |det| adds them up.
    """
    _check_norm(norm)
    space = field.space
    if norm == "Linf":
        # the DOFs that carry point values: all but the Mini bubbles
        n = space.ndof
        if space.kind == "lagrange_bubble":
            n = len(space.mesh.points)
        return max(float(np.max(np.abs(field.component(c)[:n])))
                   for c in range(field.components))
    lam, w = triangle_rule(_quad_order(space, norm))
    det, inv_t = geometry
    ed = space.element_dofs
    vals = basis_values(space, lam)
    gref = basis_ref_grads(space, lam)
    sums = np.empty(len(ed))  # quadrature sum of the squared integrand
    for t0 in range(0, len(ed), TRANSFER_ROWS):
        rows = slice(t0, t0 + TRANSFER_ROWS)
        sq = 0.0  # squared integrand at the quadrature points, (rows, nq)
        for c in range(field.components):
            coef = field.component(c)[ed[rows]]
            if norm == "L2":
                sq = sq + (coef @ vals.T) ** 2
            else:
                g = kernels.field_grads_at_quad(det[rows], inv_t[rows],
                                                gref, coef)
                sq = sq + g[..., 0] ** 2 + g[..., 1] ** 2
        sums[rows] = sq @ w
    return math.sqrt(float(np.abs(det) @ sums))


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


def diff_norm(a, b, norm, geometry):
    """Norm of a - b for fields on nested meshes of the same hierarchy.

    Both fields are lifted exactly into one space on the finer mesh (see
    ``lift_pairs``) and the norm of their difference is taken there, with
    ``geometry`` the ``jacobians`` of that mesh; for Linf that samples the
    finer field's Lagrange nodes.
    """
    fine, coarse = lift_pairs(a, b, (norm,))[norm]
    delta = fine.coefficients - coarse.coefficients
    return field_norm(Field(fine.space, fine.components, delta), norm,
                      geometry)


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
