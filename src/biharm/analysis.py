"""Norms, inter-level differences, convergence rates, and rate tables.

The convergence indicator compares solutions on successive nested
meshes: R_j = log2(||v_{j-1} - v_{j-2}|| / ||v_j - v_{j-1}||).  A pair
of fields is passed in hierarchy order, the finer first; both may live
on one mesh.  Their difference is taken in one space on the finer
mesh that holds both: the finer field's own space when it holds the
coarser field, else the Lagrange space of the larger degree (P_k
spaces on refined meshes are nested; the Mini bubble is cubic, so a
Mini field lifts exactly into P3), so no representation error enters.
Norms take the ``geometry`` of the mesh they integrate on, the pair
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
    point_value_dofs,
    prolongate,
)

__all__ = [
    "NORMS",
    "ConvergenceReport",
    "field_norm",
    "lift_pairs",
    "diff_norm",
    "rate_table",
    "markdown_table",
]

NORMS = ("L2", "H1", "Linf")


@dataclass
class ConvergenceReport:
    """Rates of one quantity in one norm, named by the key it is kept under."""

    levels: list
    diffs: list
    rates: list  # same length as diffs; rates[i] may be None (absent)

    def rows(self):
        for lev, d, r in zip(self.levels, self.diffs, self.rates):
            yield lev, d, r


def _check_norm(norm):
    if norm not in NORMS:
        raise ValueError(f"norm must be one of {NORMS}, got {norm!r}")


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
        n = point_value_dofs(space)
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


def _same_space(a, b):
    return a.mesh is b.mesh and a.degree == b.degree and a.kind == b.kind


def _lift(field, space):
    """``field`` represented in ``space``, which must contain it."""
    if _same_space(field.space, space):
        return field
    return prolongate(field, space)


def lift_pairs(fine, coarse, norms):
    """Both fields in the space where each norm of fine - coarse is taken.

    ``fine`` lives on the same mesh as ``coarse`` or on a descendant of
    it.  Returns {norm: (fine, coarse)}, with one lift per distinct
    space.  For L2/H1 that space is ``fine``'s own when it holds
    ``coarse`` (the same space, or a Lagrange space of at least
    ``coarse``'s polynomial degree), else the Lagrange space of the
    larger degree on the finer mesh (the Mini bubble is cubic, so Mini
    goes to P3); for Linf it is ``fine``'s own space.  Lagrange spaces
    on nested meshes are nested, so the lift is exact; a pair out of
    hierarchy order fails in ``prolongate``.  ``diff_norm`` of a
    returned pair lifts nothing more.
    """
    if fine.components != coarse.components:
        raise ValueError("fields have different component counts")
    own = fine.space
    same = _same_space(own, coarse.space)
    lifted, out = {}, {}
    for norm in norms:
        _check_norm(norm)
        if norm == "Linf" or same:
            spec = (own.degree, own.kind)
        else:
            spec = (max(poly_degree(own), poly_degree(coarse.space)),
                    "lagrange")
        if spec not in lifted:
            space = own
            if (own.degree, own.kind) != spec:
                space = build_space(own.mesh, spec[0])
            lifted[spec] = (_lift(fine, space), _lift(coarse, space))
        out[norm] = lifted[spec]
    return out


def diff_norm(fine, coarse, norm, geometry):
    """Norm of fine - coarse for fields in hierarchy order.

    ``fine`` lives on the same mesh as ``coarse`` or on a descendant of
    it.  Both fields are lifted exactly into one space on the finer mesh
    (see ``lift_pairs``) and the norm of their difference is taken
    there, with ``geometry`` the ``jacobians`` of that mesh; for Linf
    that samples the finer field's Lagrange nodes.
    """
    fine, coarse = lift_pairs(fine, coarse, (norm,))[norm]
    delta = fine.coefficients - coarse.coefficients
    return field_norm(Field(fine.space, fine.components, delta), norm,
                      geometry)


def rate_table(levels, diffs):
    """Successive-difference convergence report of one quantity and norm.

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
    return ConvergenceReport(levels, diffs, rates)


def markdown_table(reports_by_kappa, title):
    """Markdown rate table: one level per row, one kappa per column pair.

    Every report covers the same levels, those of the first.
    """
    kappas = list(reports_by_kappa)
    reports = list(reports_by_kappa.values())
    cols = "".join(f" diff (kappa={k:g}) | rate (kappa={k:g}) |"
                   for k in kappas)
    lines = [f"### {title}", "", f"| j |{cols}",
             "|---|" + "---|" * (2 * len(kappas))]
    for i, lev in enumerate(reports[0].levels):
        cells = []
        for rep in reports:
            d, r = rep.diffs[i], rep.rates[i]
            cells.append("--" if d is None else f"{d:.5e}")
            cells.append("--" if r is None else f"{r:.2f}")
        lines.append("| " + str(lev) + " | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
