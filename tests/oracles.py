"""Reference checks that only the tests use: the geometry each kernel
call reads, nodal interpolation and pointwise evaluation of fields,
errors against an exact solution, an exact corner-singular solution on
the L-shape, the discrete inf-sup constant of a Stokes pair, the
one-shot sparse assembly that row-blocked assembly must reproduce, a
stiffness matrix from a rule of any order, custom level-0 meshes,
corner points and smallest angles of meshes, and the grading
parameters of the paper's theory."""

import inspect
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sps
import scipy.sparse.linalg as spla
import sympy

from biharm import kernels
from biharm.assembly import (
    apply_dirichlet,
    assemble_divergence,
    assemble_mass,
    assemble_stiffness,
    vector_boundary_dofs,
)
from biharm.corners import solve_alpha0
from biharm.meshing import Mesh, PolygonDomain
from biharm.quadrature import physical_points, triangle_rule
from biharm.spaces import (
    Field,
    basis_ref_grads,
    basis_values,
    call_on_points,
)


KERNELS = ("element_stiffness", "element_mass", "element_divergence",
           "element_load", "field_grads_at_quad")


def kernel_geometry(monkeypatch):
    """The ``det`` and ``inv_t`` arguments of every later kernel call.

    Each call adds a dict of the geometry arguments it was given; the
    kernels without ``inv_t`` add ``det`` alone.
    """
    calls = []

    def recording(real):
        params = list(inspect.signature(real).parameters)[:2]

        def wrapper(*args):
            calls.append({name: arg for name, arg in zip(params, args)
                          if name in ("det", "inv_t")})
            return real(*args)
        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(kernels, name, recording(getattr(kernels, name)))
    return calls


def geometry_owner(call, meshes):
    """The one mesh of ``meshes`` whose own arrays a kernel call read.

    Every geometry argument of ``call`` must share memory with that
    mesh's array of the same name, so it is no recomputed copy.
    """
    owners = [mesh for mesh in meshes
              if all(np.shares_memory(arg, getattr(mesh, name))
                     for name, arg in call.items())]
    assert len(owners) == 1, f"{len(owners)} meshes own {sorted(call)}"
    return owners[0]


def interpolate(space, f):
    """Nodal interpolation; bubble coefficients are set to 0."""
    coeffs = call_on_points(f, space.dof_coords)
    if space.kind == "lagrange_bubble":
        coeffs[len(space.mesh.points):] = 0.0
    return Field(space=space, components=1, coefficients=coeffs)


def evaluate(field, triangle, bary):
    """Field value(s) at barycentric points of given triangles.

    ``triangle`` may be a scalar index or an (n,) array matched with an
    (n, 3) array of barycentric coordinates.  Vector fields return the
    trailing axis of length 2.
    """
    scalar_in = np.isscalar(triangle) and np.asarray(bary).ndim == 1
    tri = np.atleast_1d(np.asarray(triangle, dtype=np.int64))
    lam = np.atleast_2d(np.asarray(bary, dtype=float))
    if len(tri) == 1 and len(lam) > 1:
        tri = np.full(len(lam), tri[0])
    vals = basis_values(field.space, lam)  # (n, nloc)
    dofs = field.space.element_dofs[tri]   # (n, nloc)
    out = []
    for c in range(field.components):
        coef = field.component(c)[dofs]
        out.append(np.sum(vals * coef, axis=1))
    res = out[0] if field.components == 1 else np.stack(out, axis=-1)
    return res[0] if scalar_in else res


def gradient(field, triangle, bary):
    """Physical gradient at barycentric points; trailing axis is (d/dx, d/dy)."""
    scalar_in = np.isscalar(triangle) and np.asarray(bary).ndim == 1
    tri = np.atleast_1d(np.asarray(triangle, dtype=np.int64))
    lam = np.atleast_2d(np.asarray(bary, dtype=float))
    if len(tri) == 1 and len(lam) > 1:
        tri = np.full(len(lam), tri[0])
    gref = basis_ref_grads(field.space, lam)  # (n, nloc, 2)
    gphys = np.einsum("nde,nle->nld", field.space.mesh.inv_t[tri], gref)
    dofs = field.space.element_dofs[tri]
    out = []
    for c in range(field.components):
        coef = field.component(c)[dofs]
        out.append(np.einsum("nl,nld->nd", coef, gphys))
    res = out[0] if field.components == 1 else np.stack(out, axis=-2)
    return res[0] if scalar_in else res


def assemble_vector_stiffness(space):
    """Block-diagonal two-component copy of the scalar stiffness."""
    a = assemble_stiffness(space)
    return sps.block_diag([a, a], format="csr")


def stiffness_of_order(space, order):
    """Stiffness matrix integrated by the triangle rule of ``order``."""
    lam, w = triangle_rule(order)
    local = kernels.element_stiffness(space.mesh.det, space.mesh.inv_t,
                                      basis_ref_grads(space, lam), w)
    ed = space.element_dofs
    return one_shot_csr(local, ed, ed, (space.ndof, space.ndof))


def one_shot_csr(local, rows, cols, shape, index_dtype=np.int32):
    """Element blocks summed by one coo->csr of all their triplets.

    ``local`` (nt, nrow, ncol) goes to ``rows`` (nt, nrow) and ``cols``
    (nt, ncol); scipy sorts each row and sums its duplicates.
    """
    i = np.broadcast_to(rows.astype(index_dtype)[:, :, None],
                        local.shape).ravel()
    j = np.broadcast_to(cols.astype(index_dtype)[:, None, :],
                        local.shape).ravel()
    return sps.coo_matrix((local.ravel(), (i, j)), shape=shape).tocsr()


def manufactured_error(field, exact, norm="L2", exact_grad=None):
    """Norm of field - exact for an analytic reference solution."""
    if norm not in ("L2", "H1", "Linf"):
        raise ValueError(f"unknown norm {norm!r}")
    if field.components != 1:
        raise ValueError("manufactured_error compares scalar fields")
    space = field.space
    mesh = space.mesh
    if norm == "Linf":
        n = space.ndof
        if space.kind == "lagrange_bubble":
            n = len(mesh.points)
        nodes = space.dof_coords[:n]
        return float(np.max(np.abs(field.coefficients[:n]
                                   - exact(nodes[:, 0], nodes[:, 1]))))
    order = 2 * space.poly_degree + 4
    lam, w = triangle_rule(order)
    pts = physical_points(lam, mesh.points[mesh.triangles])
    det, inv_t = mesh.det, mesh.inv_t
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


def lshape_corner_solution():
    """Exact clamped solution on the L-shape that carries its corner singularity.

    phi = (x^2-1)^2 (y^2-1)^2 r^(1+z) g_z(theta) with z = alpha0(3pi/2),
    theta in [0, 3pi/2] from the positive x-axis, and g_z the
    clamped-corner eigenfunction of Grisvard (Singularities in Boundary
    Value Problems, 1992): r^(1+z) g_z is biharmonic and vanishes with
    its gradient on theta = 0 and theta = 3pi/2, and the polynomial
    factor clears the outer edges of ``builtin_domain("lshape")``.
    Returns the callables (phi, grad, load) of (x, y), where grad gives
    the pair (d/dx, d/dy) and load = laplace^2 phi, which grows like
    r^(z-1) at the corner.
    """
    z = solve_alpha0(1.5 * math.pi)
    r, t = sympy.symbols("r theta", positive=True)
    w = sympy.Rational(3, 2) * sympy.pi

    def sines(a):
        return sympy.sin((z - 1) * a) / (z - 1) - sympy.sin((z + 1) * a) / (z + 1)

    def cosines(a):
        return sympy.cos((z - 1) * a) - sympy.cos((z + 1) * a)

    d = sympy.diff

    def laplace(u):
        return d(d(u, r), r) + d(u, r) / r + d(d(u, t), t) / r**2

    def dot_grad(u, v):
        return d(u, r) * d(v, r) + d(u, t) * d(v, t) / r**2

    x, y = r * sympy.cos(t), r * sympy.sin(t)
    bubble = (x**2 - 1) ** 2 * (y**2 - 1) ** 2
    corner = r ** (1 + z) * (sines(w) * cosines(t) - sines(t) * cosines(w))
    phi = bubble * corner
    # the inner Laplacian by the product rule, laplace(b c) = b laplace(c)
    # + 2 grad b . grad c + c laplace(b), which halves sympy's time
    load = laplace(bubble * laplace(corner) + 2 * dot_grad(bubble, corner)
                   + corner * laplace(bubble))
    exprs = (phi, sympy.cos(t) * d(phi, r) - sympy.sin(t) * d(phi, t) / r,
             sympy.sin(t) * d(phi, r) + sympy.cos(t) * d(phi, t) / r, load)
    phi_n, dx_n, dy_n, load_n = (sympy.lambdify((r, t), e, "numpy", cse=True)
                                 for e in exprs)

    def polar(xx, yy):
        return np.hypot(xx, yy), np.mod(np.arctan2(yy, xx), 2.0 * math.pi)

    return (lambda xx, yy: phi_n(*polar(xx, yy)),
            lambda xx, yy: (dx_n(*polar(xx, yy)), dy_n(*polar(xx, yy))),
            lambda xx, yy: load_n(*polar(xx, yy)))


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
    a = apply_dirichlet(a, bdofs)
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


def make_domain(vertices, graded_corners, triangles=None):
    """Custom polygon; default level-0 mesh is a fan from vertex 0."""
    domain = PolygonDomain(vertices, graded_corners)
    n = len(domain.vertices)
    if triangles is None:
        triangles = [(0, i, i + 1) for i in range(1, n - 1)]
    tris = np.asarray(triangles, dtype=np.int64)
    mesh = Mesh(
        domain=domain,
        points=domain.vertices.copy(),
        triangles=tris,
        level=0,
        parent=np.full(len(tris), -1),
        corner_vertex=np.arange(n),
    )
    return domain, mesh


def corner_point(mesh, corner):
    """Point index of a domain corner on ``mesh``."""
    hits = np.nonzero(mesh.corner_vertex == corner)[0]
    if len(hits) != 1:
        raise ValueError(f"corner {corner} not present on mesh")
    return int(hits[0])


def min_angle(mesh):
    """Smallest interior angle of the triangles of ``mesh``."""
    p = mesh.points[mesh.triangles]
    angles = []
    for i in range(3):
        a = p[:, (i + 1) % 3] - p[:, i]
        b = p[:, (i + 2) % 3] - p[:, i]
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        dot = np.sum(a * b, axis=1)
        angles.append(np.arctan2(np.abs(cross), dot))
    return float(np.min(angles))


def grading_kappa(theta, a):
    """Contraction factor kappa = 2^(-theta/a) placed at a graded corner.

    Requires 0 < a <= theta; equals 1/2 exactly when theta = a (uniform
    refinement), and decreases as the grading strength theta grows.
    """
    if a <= 0.0:
        raise ValueError(f"regularity index a must be positive, got {a!r}")
    if theta < a:
        raise ValueError(f"grading strength theta={theta!r} must be >= a={a!r}")
    return 2.0 ** (-theta / a)


def theta_for_optimal_h1(k, a, alpha0):
    """Grading strength giving the full H1 rate k for degree-k elements.

    Evaluates max{k-1, min{alpha0, a}} where ``a`` measures the smoothness
    of the load and ``alpha0`` the corner exponent.
    """
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k!r}")
    if a <= 0.0 or alpha0 <= 0.0:
        raise ValueError("a and alpha0 must be positive")
    return max(float(k - 1), min(alpha0, a))


def theta_for_optimal_l2(k, a, alpha0):
    """Grading strength giving the full L2 rate k+1 for degree-k elements.

    Evaluates max{k-1, (k+1)/2, min{alpha0, a}}.
    """
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k!r}")
    if a <= 0.0 or alpha0 <= 0.0:
        raise ValueError("a and alpha0 must be positive")
    return max(float(k - 1), 0.5 * (k + 1), min(alpha0, a))


def theta_prime(theta, alpha0, beta0, k):
    """Effective grading strength seen by the Stokes velocity.

    Evaluates min{(beta0/alpha0) * max{theta, alpha0}, k}: the velocity
    cannot benefit from grading beyond the ratio beta0/alpha0, nor beyond
    the element degree.
    """
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    if alpha0 <= 0.5:
        raise ValueError(f"alpha0 must exceed 1/2, got {alpha0!r}")
    if beta0 <= 0.0:
        raise ValueError(f"beta0 must be positive, got {beta0!r}")
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k!r}")
    return min((beta0 / alpha0) * max(theta, alpha0), float(k))
