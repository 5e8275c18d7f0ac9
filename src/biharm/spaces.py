"""Continuous Lagrange spaces P1..P3 and the Mini bubble enrichment.

Scalar spaces on a triangulation, with a deterministic DOF numbering:
vertex DOFs first (same index as the mesh point), then edge DOFs in
lexicographic edge order (nodes on one edge ordered from the lower
endpoint), then per-triangle interior DOFs.  The bubble space adds one
cubic bubble lambda0*lambda1*lambda2 per triangle to P1 (unnormalized,
so its value at the centroid is 1/27); bubble DOFs are never boundary
DOFs.  Vector fields store two stacked component blocks.  The
reference basis is mapped to each triangle by the affine maps that the
space's mesh holds (``Mesh.det``, ``Mesh.inv_t``).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

__all__ = [
    "FeSpace",
    "Field",
    "build_space",
    "prolongate",
]

_D_LAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # d lambda_i / d ref


@dataclass
class FeSpace:
    mesh: object
    degree: int
    kind: str                 # "lagrange" or "lagrange_bubble"
    ndof: int
    dof_coords: np.ndarray    # (ndof, 2); bubbles carry the centroid
    boundary_dofs: np.ndarray # sorted DOF indices on the domain boundary
    element_dofs: np.ndarray  # (ntriangles, nlocal)

    @property
    def poly_degree(self):
        """Actual polynomial degree of the space (the bubble is cubic)."""
        return 3 if self.kind == "lagrange_bubble" else self.degree

    def same_as(self, other):
        """Whether ``other`` is this space: one mesh, degree and kind."""
        return (other.mesh is self.mesh and other.degree == self.degree
                and other.kind == self.kind)


@dataclass
class Field:
    space: FeSpace
    components: int
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.components not in (1, 2):
            raise ValueError("components must be 1 or 2")
        if self.coefficients.shape != (self.components * self.space.ndof,):
            raise ValueError(
                f"expected {self.components * self.space.ndof} coefficients, "
                f"got {self.coefficients.shape}"
            )

    def component(self, c):
        n = self.space.ndof
        return self.coefficients[c * n : (c + 1) * n]


def build_space(mesh, degree, kind="lagrange"):
    """Scalar FE space on a mesh; see module docstring for numbering."""
    if kind not in ("lagrange", "lagrange_bubble"):
        raise ValueError(f"unknown space kind {kind!r}")
    if degree not in (1, 2, 3):
        raise ValueError(f"degree must be 1, 2 or 3, got {degree}")
    if kind == "lagrange_bubble" and degree != 1:
        raise ValueError("bubble enrichment is defined on degree 1 only")

    tri = mesh.triangles
    nv, nt = len(mesh.points), len(tri)
    edges = mesh.edges
    ne = len(edges)
    centroids = mesh.points[tri].mean(axis=1)

    if kind == "lagrange_bubble":
        ndof = nv + nt
        element_dofs = np.column_stack([tri, nv + np.arange(nt)])
        dof_coords = np.vstack([mesh.points, centroids])
    elif degree == 1:
        ndof = nv
        element_dofs = tri.copy()
        dof_coords = mesh.points.copy()
    else:
        local_edges = [(0, 1), (1, 2), (2, 0)]
        eidx = [mesh.edge_index(tri[:, u], tri[:, v]) for u, v in local_edges]
        lo, hi = edges[:, 0], edges[:, 1]
        if degree == 2:
            ndof = nv + ne
            cols = [tri] + [nv + e[:, None] for e in eidx]
            element_dofs = np.column_stack(cols)
            dof_coords = np.vstack(
                [mesh.points, 0.5 * (mesh.points[lo] + mesh.points[hi])]
            )
        else:
            ndof = nv + 2 * ne + nt
            cols = [tri]
            for (u, v), e in zip(local_edges, eidx):
                # global node order on edge (a,b), a<b: first the node at
                # distance 1/3 from a; locally the first node is near u
                u_is_lo = tri[:, u] < tri[:, v]
                near_u = nv + 2 * e + np.where(u_is_lo, 0, 1)
                near_v = nv + 2 * e + np.where(u_is_lo, 1, 0)
                cols.append(np.column_stack([near_u, near_v]))
            cols.append(nv + 2 * ne + np.arange(nt)[:, None])
            element_dofs = np.column_stack(cols)
            enodes = np.empty((2 * ne, 2))
            enodes[0::2] = mesh.points[lo] + (mesh.points[hi] - mesh.points[lo]) / 3.0
            enodes[1::2] = mesh.points[lo] + 2.0 * (mesh.points[hi] - mesh.points[lo]) / 3.0
            dof_coords = np.vstack([mesh.points, enodes, centroids])

    bedges = mesh.boundary_edges
    bdofs = [bedges.ravel()]
    if kind == "lagrange" and degree >= 2:
        per_edge = degree - 1
        e = mesh.edge_index(bedges[:, 0], bedges[:, 1])
        bdofs += [nv + per_edge * e + j for j in range(per_edge)]
    boundary_dofs = np.unique(np.concatenate(bdofs))

    return FeSpace(
        mesh=mesh,
        degree=degree,
        kind=kind,
        ndof=ndof,
        dof_coords=dof_coords,
        boundary_dofs=boundary_dofs,
        element_dofs=element_dofs.astype(np.int64),
    )


def point_value_dofs(space):
    """Number of leading DOFs that are point values: all but Mini bubbles."""
    return len(space.mesh.points) if space.kind == "lagrange_bubble" else space.ndof


# -- reference basis -------------------------------------------------------


def basis_values(space, lam):
    """Local basis at barycentric points; shape (nq, nlocal)."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    if space.kind == "lagrange_bubble":
        return np.column_stack([l0, l1, l2, l0 * l1 * l2])
    k = space.degree
    if k == 1:
        return lam.copy()
    if k == 2:
        return np.column_stack(
            [
                l0 * (2 * l0 - 1),
                l1 * (2 * l1 - 1),
                l2 * (2 * l2 - 1),
                4 * l0 * l1,
                4 * l1 * l2,
                4 * l2 * l0,
            ]
        )
    # k == 3: vertices, two nodes per edge (near the first endpoint of the
    # local edge first), then the interior node
    def vert(li):
        return 0.5 * li * (3 * li - 1) * (3 * li - 2)

    def edge(li, lj):
        return 4.5 * li * lj * (3 * li - 1)

    return np.column_stack(
        [
            vert(l0),
            vert(l1),
            vert(l2),
            edge(l0, l1),
            edge(l1, l0),
            edge(l1, l2),
            edge(l2, l1),
            edge(l2, l0),
            edge(l0, l2),
            27 * l0 * l1 * l2,
        ]
    )


def basis_ref_grads(space, lam):
    """Gradients w.r.t. reference coordinates; shape (nq, nlocal, 2)."""
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    nq = len(lam)
    l = [lam[:, i] for i in range(3)]
    d = [_D_LAM[i] for i in range(3)]

    def outer(coef, grad):
        return coef[:, None] * grad[None, :]

    if space.kind == "lagrange_bubble":
        g = np.empty((nq, 4, 2))
        for i in range(3):
            g[:, i] = np.broadcast_to(d[i], (nq, 2))
        g[:, 3] = (
            outer(l[1] * l[2], d[0]) + outer(l[0] * l[2], d[1]) + outer(l[0] * l[1], d[2])
        )
        return g
    k = space.degree
    if k == 1:
        g = np.empty((nq, 3, 2))
        for i in range(3):
            g[:, i] = np.broadcast_to(d[i], (nq, 2))
        return g
    if k == 2:
        g = np.empty((nq, 6, 2))
        for i in range(3):
            g[:, i] = outer(4 * l[i] - 1, d[i])
        for m, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
            g[:, 3 + m] = 4 * (outer(l[j], d[i]) + outer(l[i], d[j]))
        return g
    g = np.empty((nq, 10, 2))
    for i in range(3):
        g[:, i] = outer(13.5 * l[i] ** 2 - 9 * l[i] + 1, d[i])
    pairs = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]
    for m, (i, j) in enumerate(pairs):
        g[:, 3 + m] = 4.5 * (outer(l[j] * (6 * l[i] - 1), d[i]) + outer(l[i] * (3 * l[i] - 1), d[j]))
    g[:, 9] = 27 * (
        outer(l[1] * l[2], d[0]) + outer(l[0] * l[2], d[1]) + outer(l[0] * l[1], d[2])
    )
    return g


# -- user callables and prolongation ----------------------------------------


def call_on_points(f, pts):
    """f(x, y) at the rows of ``pts``, point by point if f takes no arrays."""
    try:
        v = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
        if v.ndim == 0:
            v = np.full(len(pts), float(v))
        if v.shape != (len(pts),):
            raise ValueError
        return v
    except (TypeError, ValueError):
        return np.array([float(f(x, y)) for x, y in pts])


def _barycentric(mesh, tri, xy):
    """Barycentric coordinates of the points ``xy`` in triangles ``tri``."""
    corner = mesh.points[mesh.triangles[tri, 0]]
    d1 = mesh.points[mesh.triangles[tri, 1]] - corner
    d2 = mesh.points[mesh.triangles[tri, 2]] - corner
    r = xy - corner
    det = mesh.det[tri]
    l1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
    return np.column_stack([1.0 - l1 - l2, l1, l2])


# Rows of one block of work: fine DOFs that prolongate transfers at once
# (one row block of P), triangles whose load or norm integrands are
# formed at once, matrix rows that assembly's ``_scatter`` compresses at
# once.  ``blocks`` is its only reader.
BLOCK_ROWS = 1 << 12


def blocks(n):
    """Slices of BLOCK_ROWS rows that cover range(n), in order.

    The last block may hold fewer rows; a last block of one row joins
    the block before it, because numpy hands a one-row product to BLAS
    gemv, which rounds differently from the gemm of every other block.
    """
    starts = list(range(0, n, BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for r0, r1 in zip(starts, starts[1:] + [n]):
        yield slice(r0, r1)


def prolongate(coarse, fine_space):
    """Represent a coarse field exactly on a space of the same or a finer mesh.

    Each call builds the sparse transfer matrix P (fine DOFs x coarse
    DOFs) one row block of ``blocks`` at a time and applies each block
    to every component.  Row i of P holds the coarse local basis,
    in local order, at fine DOF node i, evaluated in the coarse triangle
    that the refinement ancestry assigns to the lowest-numbered fine
    triangle at that node; rows of fine bubble DOFs are empty, so bubble
    coefficients are 0.  This reproduces the coarse function exactly
    whenever the fine space contains the coarse one elementwise (P_k in
    P_m for k <= m, Mini in P3).  P is not kept between calls: caching
    transfer operators on the meshes raised a Mini study's peak memory
    by about half.  A field already on ``fine_space`` (``same_as``) is
    returned as it is, bubble coefficients included.
    """
    if fine_space.same_as(coarse.space):
        return coarse
    cmesh = coarse.space.mesh
    fmesh = fine_space.mesh
    anc = np.arange(len(fmesh.triangles))
    m = fmesh
    while m is not cmesh:
        if m.coarser is None:
            raise ValueError("fine mesh is not a descendant of the coarse mesh")
        anc = m.parent[anc]
        m = m.coarser

    nt = len(fine_space.element_dofs)
    nodes = point_value_dofs(fine_space)
    rep = np.full(fine_space.ndof, nt, dtype=np.int32)
    for dofs in fine_space.element_dofs.T:
        np.minimum.at(rep, dofs, np.arange(nt, dtype=np.int32))
    out = np.zeros((coarse.components, fine_space.ndof))
    for rows in blocks(nodes):
        ctri = anc[rep[rows]]
        vals = basis_values(coarse.space, _barycentric(
            cmesh, ctri, fine_space.dof_coords[rows]))
        cols = coarse.space.element_dofs[ctri].astype(np.int32)
        p = sps.csr_matrix(
            (vals.ravel(), cols.ravel(),
             np.arange(0, vals.size + 1, vals.shape[1], dtype=np.int32)),
            shape=(len(ctri), coarse.space.ndof))
        for c in range(coarse.components):
            out[c, rows] = p @ coarse.component(c)
    return Field(fine_space, coarse.components, out.ravel())
