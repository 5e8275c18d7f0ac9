"""Sparse matrices and load vectors for the Poisson and Stokes subproblems.

All integrals are evaluated with triangle rules whose exactness degree
covers the integrand: polynomial parts exactly, analytic data with the
order k+2.  Every assembler reads its mesh's per-triangle ``det`` and
``inv_t``, which the mesh computed once when it was made.  Matrices are
summed from per-element blocks into int32-indexed CSR one block of
SCATTER_ROWS rows at a time; each row takes its entries in
element-index order, as one coo->csr of all triplets would, so the
result is deterministic and the same to the bit.  Load vectors sum
their element vectors in element order with ``np.bincount``.  Velocity
vectors use component-major layout (all x-coefficients, then all
y-coefficients).
"""

import numpy as np
import scipy.sparse as sps

from . import kernels
from .quadrature import physical_points, triangle_rule
from .spaces import basis_ref_grads, basis_values, call_on_points

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


def _sum_loads(space, local):
    """Global load vector of the element vectors ``local`` (nt, nlocal)."""
    return np.bincount(space.element_dofs.ravel(), local.ravel(),
                       minlength=space.ndof)


def _analytic_loads(space, fs):
    """b_i = int f phi_i for each f of ``fs``, on points mapped once."""
    lam, w = triangle_rule(space.poly_degree + 2)
    vals = basis_values(space, lam)
    pts = physical_points(lam, space.mesh.points[space.mesh.triangles])
    shape = pts.shape[:2]
    pts = pts.reshape(-1, 2)
    return [_sum_loads(space, kernels.element_load(
        space.mesh.det, vals, call_on_points(f, pts).reshape(shape), w))
        for f in fs]


def assemble_load(space, f):
    """b_i = int f phi_i with a rule of order k + 2."""
    return _analytic_loads(space, (f,))[0]


def assemble_stokes_rhs_analytic(vspace, F):
    """<F, v> for an analytic pair F = (f1, f2); stacked component blocks."""
    f1, f2 = F
    return np.concatenate(_analytic_loads(vspace, (f1, f2)))


def _component_grads_at_quad(field, lam):
    space = field.space
    gref = basis_ref_grads(space, lam)
    ed = space.element_dofs
    return [
        kernels.field_grads_at_quad(space.mesh.det, space.mesh.inv_t, gref,
                                    field.component(c)[ed])
        for c in range(field.components)
    ]


def assemble_stokes_rhs_discrete_curl(vspace, w_field):
    """<curl w, v> = int (dw/dy) v1 - (dw/dx) v2 for a scalar FE field w."""
    if w_field.space.mesh is not vspace.mesh:
        raise ValueError("w lives on a different mesh than the velocity space")
    if w_field.components != 1:
        raise ValueError("w must be a scalar field")
    order = max(1, w_field.space.poly_degree - 1 + vspace.poly_degree)
    lam, w = triangle_rule(order)
    (gw,) = _component_grads_at_quad(w_field, lam)
    vals = basis_values(vspace, lam)
    det = vspace.mesh.det
    b1 = kernels.element_load(det, vals, np.ascontiguousarray(gw[:, :, 1]), w)
    b2 = kernels.element_load(det, vals, np.ascontiguousarray(-gw[:, :, 0]), w)
    return np.concatenate([_sum_loads(vspace, b1), _sum_loads(vspace, b2)])


def assemble_curl_rhs(space, u_field):
    """b_i = int (du2/dx - du1/dy) psi_i for a vector FE field u."""
    if u_field.space.mesh is not space.mesh:
        raise ValueError("u lives on a different mesh than the scalar space")
    if u_field.components != 2:
        raise ValueError("u must be a vector field")
    order = max(1, u_field.space.poly_degree - 1 + space.poly_degree)
    lam, w = triangle_rule(order)
    g1, g2 = _component_grads_at_quad(u_field, lam)
    curl = np.ascontiguousarray(g2[:, :, 0] - g1[:, :, 1])
    vals = basis_values(space, lam)
    return _sum_loads(space, kernels.element_load(space.mesh.det, vals, curl, w))


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
