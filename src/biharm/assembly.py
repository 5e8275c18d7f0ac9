"""Sparse matrices and load vectors for the Poisson and Stokes subproblems.

All integrals are evaluated with triangle rules whose exactness degree
covers the integrand: polynomial parts exactly, analytic data with the
order k+2.  Every assembler reads its mesh's per-triangle ``det`` and
``inv_t``, which the mesh computed once when it was made.  Matrices are
summed from per-element blocks into int32-indexed CSR one block of
SCATTER_ROWS rows at a time; each row takes its entries in
element-index order, as one coo->csr of all triplets would, so the
result is deterministic and the same to the bit.  Load vectors form
their quadrature points, data values, field gradients and element
vectors TRANSFER_ROWS triangles at a time, write the element vectors
into one (nt, nloc) array, and sum it in element order with one
``np.bincount``, so they do not depend on the block size.  Velocity
vectors use component-major layout (all x-coefficients, then all
y-coefficients).
"""

import numpy as np
import scipy.sparse as sps

from . import kernels
from .quadrature import physical_points, triangle_rule
from .spaces import TRANSFER_ROWS, basis_ref_grads, basis_values, call_on_points

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


# Rows that _scatter compresses at once: besides the element blocks, no
# more than one row block's triplets exist.
SCATTER_ROWS = 1 << 12


def _scatter(element_block, rows, cols, shape):
    """CSR sum of ``element_block()``, (nt, nrow, ncol), at (rows, cols).

    Calling ``element_block`` here leaves ``_scatter`` its only reference,
    so the element blocks are freed before the row blocks are joined.
    """
    local = element_block()
    nt, nr, nc = local.shape
    local = local.reshape(nt * nr, nc)
    order = np.argsort(rows, axis=None, kind="stable")  # element order per row
    cols = cols.astype(np.int32, copy=False)
    starts = np.zeros(shape[0] + 1, dtype=np.int32)
    starts[1:] = np.cumsum(np.bincount(rows.ravel(), minlength=shape[0]) * nc)
    blocks = []
    for r0 in range(0, shape[0], SCATTER_ROWS):
        r1 = min(r0 + SCATTER_ROWS, shape[0])
        sel = order[starts[r0] // nc:starts[r1] // nc]
        blk = sps.csr_matrix(
            (np.take(local, sel, axis=0).ravel(),
             np.take(cols, sel // nr, axis=0).ravel(),
             starts[r0:r1 + 1] - starts[r0]), shape=(r1 - r0, shape[1]))
        blk.sum_duplicates()  # scipy's row sort and sums, as in coo->csr
        blocks.append(blk.copy())  # compact: drops the triplets' slack
    del local, order, sel, blk
    return sps.vstack(blocks, format="csr")


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


def _block_loads(space, count, element_loads):
    """``count`` load vectors of ``space`` summed from element vectors.

    ``element_loads(rows)`` returns ``count`` arrays of element vectors,
    (len(rows), nloc), for the triangles ``rows``, a slice of
    TRANSFER_ROWS of them (the last may hold fewer, or one more).  They
    are written into one preallocated (count, nt, nloc) array, and
    ``np.bincount`` sums each load's element vectors in element order.
    A last block of one triangle
    joins the block before it: numpy hands a one-row product to BLAS
    gemv, which rounds differently from the gemm of every other block.
    """
    ed = space.element_dofs
    local = np.empty((count,) + ed.shape)
    starts = list(range(0, len(ed), TRANSFER_ROWS))
    if len(starts) > 1 and len(ed) - starts[-1] == 1:
        starts.pop()
    for t0, t1 in zip(starts, starts[1:] + [len(ed)]):
        rows = slice(t0, t1)
        for out, block in zip(local, element_loads(rows)):
            out[rows] = block
    return [np.bincount(ed.ravel(), b.ravel(), minlength=space.ndof)
            for b in local]


def _analytic_loads(space, fs):
    """b_i = int f phi_i for each f of ``fs``, on points mapped once."""
    lam, w = triangle_rule(space.poly_degree + 2)
    vals = basis_values(space, lam)
    mesh = space.mesh

    def element_loads(rows):
        pts = physical_points(lam, mesh.points[mesh.triangles[rows]])
        shape = pts.shape[:2]
        pts = pts.reshape(-1, 2)
        return [kernels.element_load(
            mesh.det[rows], vals, call_on_points(f, pts).reshape(shape), w)
            for f in fs]

    return _block_loads(space, len(fs), element_loads)


def assemble_load(space, f):
    """b_i = int f phi_i with a rule of order k + 2."""
    return _analytic_loads(space, (f,))[0]


def assemble_stokes_rhs_analytic(vspace, F):
    """<F, v> for an analytic pair F = (f1, f2); stacked component blocks."""
    f1, f2 = F
    return np.concatenate(_analytic_loads(vspace, (f1, f2)))


def _field_grads(field, lam):
    """grads(c, rows): gradients of component c at quad points of ``rows``."""
    space = field.space
    gref = basis_ref_grads(space, lam)
    ed = space.element_dofs
    det, inv_t = space.mesh.det, space.mesh.inv_t

    def grads(c, rows):
        return kernels.field_grads_at_quad(det[rows], inv_t[rows], gref,
                                           field.component(c)[ed[rows]])
    return grads


def assemble_stokes_rhs_discrete_curl(vspace, w_field):
    """<curl w, v> = int (dw/dy) v1 - (dw/dx) v2 for a scalar FE field w."""
    if w_field.space.mesh is not vspace.mesh:
        raise ValueError("w lives on a different mesh than the velocity space")
    if w_field.components != 1:
        raise ValueError("w must be a scalar field")
    order = max(1, w_field.space.poly_degree - 1 + vspace.poly_degree)
    lam, w = triangle_rule(order)
    grads = _field_grads(w_field, lam)
    vals = basis_values(vspace, lam)
    det = vspace.mesh.det

    def element_loads(rows):
        gw = grads(0, rows)
        return [kernels.element_load(det[rows], vals, fq, w) for fq in (
            np.ascontiguousarray(gw[:, :, 1]),
            np.ascontiguousarray(-gw[:, :, 0]))]

    return np.concatenate(_block_loads(vspace, 2, element_loads))


def assemble_curl_rhs(space, u_field):
    """b_i = int (du2/dx - du1/dy) psi_i for a vector FE field u."""
    if u_field.space.mesh is not space.mesh:
        raise ValueError("u lives on a different mesh than the scalar space")
    if u_field.components != 2:
        raise ValueError("u must be a vector field")
    order = max(1, u_field.space.poly_degree - 1 + space.poly_degree)
    lam, w = triangle_rule(order)
    grads = _field_grads(u_field, lam)
    vals = basis_values(space, lam)
    det = space.mesh.det

    def element_loads(rows):
        g1, g2 = grads(0, rows), grads(1, rows)
        curl = np.ascontiguousarray(g2[:, :, 0] - g1[:, :, 1])
        return [kernels.element_load(det[rows], vals, curl, w)]

    return _block_loads(space, 1, element_loads)[0]


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
