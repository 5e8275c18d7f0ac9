"""Sparse matrices and load vectors for the Poisson and Stokes subproblems.

All integrals are evaluated with triangle rules whose exactness degree
covers the integrand: polynomial parts exactly, analytic data with the
order k+2.  Every assembler reads its mesh's per-triangle ``det`` and
``inv_t``, which the mesh computed once when it was made.  Matrices are
summed from per-element blocks into int32-indexed CSR one row block of
``spaces.blocks`` (BLOCK_ROWS rows) at a time; each row takes its
entries in element-index order, as one coo->csr of all triplets would,
so the result is deterministic and the same to the bit.  Every load vector
goes through one quadrature path, ``_loads``: each assembler states
only its integrand (analytic data at the mapped points, or gradients
of a finite element field), which is formed one block of triangles of
``spaces.blocks`` at a time; the element vectors are written into one
(nt, nloc) array and summed in element order with one ``np.bincount``,
so no load depends on the block size.  Velocity vectors use
component-major layout (all x-coefficients, then all y-coefficients).
"""

import numpy as np
import scipy.sparse as sps

from . import kernels
from .quadrature import physical_points, triangle_rule
from .spaces import basis_ref_grads, basis_values, blocks, call_on_points

__all__ = [
    "assemble_stiffness",
    "assemble_mass",
    "assemble_divergence",
    "assemble_load",
    "assemble_stokes_rhs_analytic",
    "assemble_stokes_rhs_discrete_curl",
    "assemble_curl_rhs",
    "apply_dirichlet",
    "vector_boundary_dofs",
]


def _scatter(element_block, rows, cols, shape):
    """CSR sum of ``element_block()``, (nt, nrow, ncol), at (rows, cols).

    The matrix rows are compressed one block of ``blocks`` at a time:
    besides the element blocks, no more than one row block's triplets
    exist.  Calling ``element_block`` here leaves ``_scatter`` its only
    reference, so the element blocks are freed before the row blocks
    are joined.
    """
    local = element_block()
    nt, nr, nc = local.shape
    local = local.reshape(nt * nr, nc)
    order = np.argsort(rows, axis=None, kind="stable")  # element order per row
    cols = cols.astype(np.int32, copy=False)
    starts = np.zeros(shape[0] + 1, dtype=np.int32)
    starts[1:] = np.cumsum(np.bincount(rows.ravel(), minlength=shape[0]) * nc)
    parts = []
    for r in blocks(shape[0]):
        sel = order[starts[r.start] // nc:starts[r.stop] // nc]
        blk = sps.csr_matrix(
            (np.take(local, sel, axis=0).ravel(),
             np.take(cols, sel // nr, axis=0).ravel(),
             starts[r.start:r.stop + 1] - starts[r.start]),
            shape=(r.stop - r.start, shape[1]))
        blk.sum_duplicates()  # scipy's row sort and sums, as in coo->csr
        parts.append(blk.copy())  # compact: drops the triplets' slack
    del local, order, sel, blk
    return sps.vstack(parts, format="csr")


def assemble_stiffness(space, weight=None):
    """A_ij = sum_T weight_T int_T grad(phi_j) . grad(phi_i); symmetric CSR.

    ``weight`` holds one factor per triangle; without it every factor is 1.
    """
    lam, w = triangle_rule(max(1, 2 * (space.poly_degree - 1)))
    gref = basis_ref_grads(space, lam)
    ed = space.element_dofs
    mesh = space.mesh

    def element_block():
        local = kernels.element_stiffness(mesh.det, mesh.inv_t, gref, w)
        if weight is not None:
            local *= weight[:, None, None]
        return local

    return _scatter(element_block, ed, ed, (space.ndof, space.ndof))


def assemble_mass(space):
    """M_ij = int phi_j phi_i; symmetric CSR."""
    lam, w = triangle_rule(2 * space.poly_degree)
    vals = basis_values(space, lam)
    ed = space.element_dofs
    return _scatter(lambda: kernels.element_mass(space.mesh.det, vals, w),
                    ed, ed, (space.ndof, space.ndof))


def assemble_divergence(vspace, pspace):
    """B with B[(q, v)] = -int (div v) q, shape npressure x 2 nvelocity."""
    if vspace.mesh is not pspace.mesh:
        raise ValueError("velocity and pressure spaces live on different meshes")
    if pspace.degree > vspace.degree:
        raise ValueError("pressure degree exceeds velocity degree")
    lam, w = triangle_rule(max(1, vspace.poly_degree - 1 + pspace.poly_degree))
    gref_v = basis_ref_grads(vspace, lam)
    vals_p = basis_values(pspace, lam)
    nv = vspace.ndof
    cols = vspace.element_dofs.astype(np.int32)
    cols = np.hstack([cols, cols + nv])  # component-major velocity columns
    mesh = vspace.mesh
    return _scatter(lambda: kernels.element_divergence(
        mesh.det, mesh.inv_t, gref_v, vals_p, w),
        pspace.element_dofs, cols, (pspace.ndof, 2 * nv))


def _loads(space, order, count, integrands):
    """``count`` load vectors b_i = int g phi_i of ``space``.

    The rule has exactness degree ``order``.  ``integrands(lam, rows)``
    returns ``count`` integrands g at the quadrature points ``lam`` of
    the triangles ``rows``, each (len(rows), nq), for each block of
    ``blocks``.  Their element vectors are written into one
    preallocated (count, nt, nloc) array, and ``np.bincount`` sums each
    load's element vectors in element order.
    """
    lam, w = triangle_rule(order)
    vals = basis_values(space, lam)
    det = space.mesh.det
    ed = space.element_dofs
    local = np.empty((count,) + ed.shape)
    for rows in blocks(len(ed)):
        for out, fq in zip(local, integrands(lam, rows)):
            out[rows] = kernels.element_load(det[rows], vals, fq, w)
        del fq  # not alive while the next block's integrands are formed
    return [np.bincount(ed.ravel(), b.ravel(), minlength=space.ndof)
            for b in local]


def _analytic_loads(space, fs):
    """b_i = int f phi_i for each f of ``fs``, on points mapped once."""
    mesh = space.mesh

    def values(lam, rows):
        pts = physical_points(lam, mesh.points[mesh.triangles[rows]])
        shape = pts.shape[:2]
        pts = pts.reshape(-1, 2)
        return [call_on_points(f, pts).reshape(shape) for f in fs]

    return _loads(space, space.poly_degree + 2, len(fs), values)


def assemble_load(space, f):
    """b_i = int f phi_i with a rule of order k + 2."""
    return _analytic_loads(space, (f,))[0]


def assemble_stokes_rhs_analytic(vspace, F):
    """<F, v> for an analytic pair F = (f1, f2); stacked component blocks."""
    f1, f2 = F
    return np.concatenate(_analytic_loads(vspace, (f1, f2)))


def assemble_stokes_rhs_discrete_curl(vspace, w_field):
    """<curl w, v> = int (dw/dy) v1 - (dw/dx) v2 for a scalar FE field w."""
    if w_field.space.mesh is not vspace.mesh:
        raise ValueError("w lives on a different mesh than the velocity space")
    if w_field.components != 1:
        raise ValueError("w must be a scalar field")
    wspace = w_field.space
    mesh, ed = wspace.mesh, wspace.element_dofs

    def curl(lam, rows):
        gw = kernels.field_grads_at_quad(
            mesh.det[rows], mesh.inv_t[rows], basis_ref_grads(wspace, lam),
            w_field.coefficients[ed[rows]])
        return [gw[:, :, 1], -gw[:, :, 0]]

    order = max(1, wspace.poly_degree - 1 + vspace.poly_degree)
    return np.concatenate(_loads(vspace, order, 2, curl))


def assemble_curl_rhs(space, u_field):
    """b_i = int (du2/dx - du1/dy) psi_i for a vector FE field u."""
    if u_field.space.mesh is not space.mesh:
        raise ValueError("u lives on a different mesh than the scalar space")
    if u_field.components != 2:
        raise ValueError("u must be a vector field")
    uspace = u_field.space
    mesh, ed = uspace.mesh, uspace.element_dofs

    def curl(lam, rows):
        gref = basis_ref_grads(uspace, lam)
        g1, g2 = (kernels.field_grads_at_quad(
            mesh.det[rows], mesh.inv_t[rows], gref,
            u_field.component(c)[ed[rows]]) for c in (0, 1))
        return [g2[:, :, 0] - g1[:, :, 1]]

    order = max(1, uspace.poly_degree - 1 + space.poly_degree)
    return _loads(space, order, 1, curl)[0]


def apply_dirichlet(A, dofs):
    """Symmetric elimination: zero rows/cols of ``dofs``, unit diagonal.

    Works in place on the CSR form of A (A itself when it is CSR) and
    returns it: one-byte masks zero every entry in a row or column of
    ``dofs``, those rows get a unit diagonal, and exact zeros are
    dropped.  The result has the entries of D A D + (I - D), D the 0/1
    diagonal that keeps the free DOFs, without forming either product.
    Loads are eliminated by their users, which zero the rows of
    ``dofs``.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError("apply_dirichlet needs a square system")
    A = A.tocsr()
    pin = np.zeros(A.shape[0], dtype=bool)
    pin[dofs] = True
    zero = np.repeat(pin, np.diff(A.indptr))
    zero |= pin[A.indices]
    A.data[zero] = 0.0
    del zero
    # a pinned diagonal that A does not store is inserted, which scipy
    # warns about (SparseEfficiencyWarning); assembled matrices store it
    rows = np.flatnonzero(pin)
    A[rows, rows] = 1.0
    A.eliminate_zeros()
    return A


def vector_boundary_dofs(space):
    """Boundary DOFs of both components in component-major layout."""
    return np.concatenate([space.boundary_dofs, space.boundary_dofs + space.ndof])
