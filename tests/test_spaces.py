"""Lagrange/bubble spaces: numbering, reproduction, gradients, prolongation.

DOF-count oracles follow from ndof = V + (k-1) E + (k-1)(k-2)/2 T with the
level-0 square counts V=5, E=8, T=4.  Reproduction oracles are the
polynomials themselves, evaluated at deterministic random points.
"""

import numpy as np
import pytest

from biharm import meshing as msh
from biharm import spaces as sp

from oracles import evaluate, gradient, interpolate


def sample_points(mesh, n, seed=7):
    rng = np.random.default_rng(seed)
    tris = rng.integers(0, len(mesh.triangles), n)
    bary = rng.dirichlet([1.0, 1.0, 1.0], n)
    pts = np.einsum("nj,njd->nd", bary, mesh.points[mesh.triangles[tris]])
    return tris, bary, pts


# -- construction -----------------------------------------------------------


@pytest.mark.parametrize(
    "degree,kind,ndof,nboundary",
    [
        (1, "lagrange", 5, 4),           # vertices only, 4 on the boundary
        (2, "lagrange", 5 + 8, 8),       # one midpoint per edge
        (3, "lagrange", 5 + 16 + 4, 12), # two nodes per edge + centroids
        (1, "lagrange_bubble", 5 + 4, 4),
    ],
)
def test_square_level0_dof_counts(degree, kind, ndof, nboundary):
    _, mesh = msh.builtin_domain("square")
    space = sp.build_space(mesh, degree, kind)
    assert space.ndof == ndof
    assert len(space.boundary_dofs) == nboundary
    assert space.element_dofs.shape == (4, {1: 3, 2: 6, 3: 10}[degree] if kind == "lagrange" else (4, 4)[1])


def test_dof_count_formula_all_levels():
    _, m0 = msh.builtin_domain("lshape")
    for mesh in msh.refine_hierarchy(m0, 2, 0.3):
        v, e, t = len(mesh.points), len(mesh.edges), len(mesh.triangles)
        assert sp.build_space(mesh, 1).ndof == v
        assert sp.build_space(mesh, 2).ndof == v + e
        assert sp.build_space(mesh, 3).ndof == v + 2 * e + t
        assert sp.build_space(mesh, 1, "lagrange_bubble").ndof == v + t


def test_bubble_dofs_never_on_boundary():
    _, mesh = msh.builtin_domain("lshape")
    space = sp.build_space(mesh, 1, "lagrange_bubble")
    assert np.all(space.boundary_dofs < len(mesh.points))
    # bubble coords are the centroids
    assert np.allclose(
        space.dof_coords[len(mesh.points):], mesh.points[mesh.triangles].mean(axis=1)
    )


def test_invalid_spaces_rejected():
    _, mesh = msh.builtin_domain("square")
    with pytest.raises(ValueError):
        sp.build_space(mesh, 4)
    with pytest.raises(ValueError):
        sp.build_space(mesh, 2, "lagrange_bubble")
    with pytest.raises(ValueError):
        sp.build_space(mesh, 1, "hermite")


def test_neighbors_share_edge_dofs():
    _, m0 = msh.builtin_domain("square")
    mesh = msh.graded_refine(m0)
    for degree in (2, 3):
        space = sp.build_space(mesh, degree)
        per = degree - 1
        nv = len(mesh.points)
        seen = {}
        for t, row in enumerate(space.element_dofs):
            for le, (u, v) in enumerate([(0, 1), (1, 2), (2, 0)]):
                a, b = int(mesh.triangles[t, u]), int(mesh.triangles[t, v])
                key = (min(a, b), max(a, b))
                dofs = frozenset(int(d) for d in row[3 + per * le : 3 + per * (le + 1)])
                assert seen.setdefault(key, dofs) == dofs
        # edge nodes of a sorted edge (a,b) are ordered from a
        if degree == 3:
            for (a, b), dofs in seen.items():
                lo = min(dofs)
                expect = mesh.points[a] + (mesh.points[b] - mesh.points[a]) / 3.0
                assert np.allclose(space.dof_coords[lo], expect, atol=1e-15)


# -- interpolation / evaluation ---------------------------------------------


@pytest.mark.parametrize(
    "degree,f,grad",
    [
        (1, lambda x, y: 2 * x - 3 * y + 1, lambda x, y: (2.0, -3.0)),
        (2, lambda x, y: x * y + x**2, lambda x, y: (y + 2 * x, x)),
        (3, lambda x, y: x**3 - 2 * x**2 * y + y**3,
         lambda x, y: (3 * x**2 - 4 * x * y, -2 * x**2 + 3 * y**2)),
    ],
)
def test_polynomial_reproduction(degree, f, grad):
    _, m0 = msh.builtin_domain("lshape")
    mesh = msh.refine_hierarchy(m0, 2, 0.2)[2]
    space = sp.build_space(mesh, degree)
    u = interpolate(space, f)
    tris, bary, pts = sample_points(mesh, 50)
    vals = evaluate(u, tris, bary)
    assert np.allclose(vals, f(pts[:, 0], pts[:, 1]), atol=1e-13)
    g = gradient(u, tris, bary)
    gx, gy = np.broadcast_arrays(*grad(pts[:, 0], pts[:, 1]), pts[:, 0])[:2]
    assert np.allclose(g, np.stack([gx, gy], axis=1), atol=1e-12)


def test_partition_of_unity():
    _, m0 = msh.builtin_domain("convex_11pi12")
    mesh = msh.refine_hierarchy(m0, 1, 0.3)[1]
    rng = np.random.default_rng(11)
    for degree, kind in [(1, "lagrange"), (2, "lagrange"), (3, "lagrange")]:
        space = sp.build_space(mesh, degree, kind)
        for t in range(len(mesh.triangles)):
            bary = rng.dirichlet([1, 1, 1], 20)
            vals = sp.basis_values(space, bary)
            assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)


def test_hat_function_values():
    _, mesh = msh.builtin_domain("square")
    space = sp.build_space(mesh, 1)
    c = np.zeros(space.ndof)
    c[4] = 1.0  # hat at the center vertex
    hat = sp.Field(space, 1, c)
    # triangle 0 = (0, 1, 4): value 1 at vertex 4, 0 at opposite edge midpoint
    assert evaluate(hat, 0, [0.0, 0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(hat, 0, [0.5, 0.5, 0.0]) == pytest.approx(0.0, abs=1e-15)


def test_bubble_value_at_centroid():
    _, mesh = msh.builtin_domain("square")
    space = sp.build_space(mesh, 1, "lagrange_bubble")
    c = np.zeros(space.ndof)
    c[len(mesh.points)] = 1.0  # bubble of triangle 0
    b = sp.Field(space, 1, c)
    assert evaluate(b, 0, [1 / 3, 1 / 3, 1 / 3]) == pytest.approx(1.0 / 27.0, abs=1e-15)
    # bubble vanishes on the element boundary
    assert evaluate(b, 0, [0.5, 0.5, 0.0]) == pytest.approx(0.0, abs=1e-15)


def test_interpolate_matches_nodes_for_smooth_f():
    _, mesh = msh.builtin_domain("square")
    space = sp.build_space(mesh, 2)
    u = interpolate(space, lambda x, y: np.sin(x))
    assert np.allclose(u.coefficients, np.sin(space.dof_coords[:, 0]), atol=1e-15)


def test_vector_field_evaluation_and_curl():
    _, m0 = msh.builtin_domain("square")
    mesh = msh.graded_refine(m0)
    space = sp.build_space(mesh, 2)
    vec = sp.Field(space, 2, np.concatenate(
        [interpolate(space, lambda x, y: y).coefficients,
         interpolate(space, lambda x, y: -x).coefficients]))
    tris, bary, pts = sample_points(mesh, 30)
    vals = evaluate(vec, tris, bary)
    assert np.allclose(vals, np.stack([pts[:, 1], -pts[:, 0]], axis=1), atol=1e-13)
    g = gradient(vec, tris, bary)  # (n, component, 2)
    curl = g[:, 1, 0] - g[:, 0, 1]
    assert np.allclose(curl, -2.0, atol=1e-13)


def test_field_validation():
    _, mesh = msh.builtin_domain("square")
    space = sp.build_space(mesh, 1)
    with pytest.raises(ValueError):
        sp.Field(space, 1, np.zeros(4))
    with pytest.raises(ValueError):
        sp.Field(space, 3, np.zeros(15))


# -- prolongation ------------------------------------------------------------


def test_prolongation_exact_on_coarse_polynomials():
    _, l0 = msh.builtin_domain("lshape")
    hier = msh.refine_hierarchy(l0, 2, 0.2)
    for degree in (1, 2, 3):
        coarse = sp.build_space(hier[0], degree)
        fine = sp.build_space(hier[2], degree)
        f = lambda x, y: (x + y) ** degree
        up = sp.prolongate(interpolate(coarse, f), fine)
        uf = interpolate(fine, f)
        assert np.allclose(up.coefficients, uf.coefficients, atol=1e-13)


def test_prolongation_preserves_h1_seminorm():
    _, l0 = msh.builtin_domain("lshape")
    hier = msh.refine_hierarchy(l0, 2, 0.2)
    coarse = sp.build_space(hier[0], 2)
    rng = np.random.default_rng(3)
    u = sp.Field(coarse, 1, rng.normal(size=coarse.ndof))

    def h1_semi_sq(field):
        from biharm.quadrature import triangle_rule

        mesh = field.space.mesh
        lam, w = triangle_rule(2 * field.space.degree)
        total = 0.0
        det = mesh.det
        for q, wq in zip(lam, w):
            g = gradient(field, np.arange(len(mesh.triangles)),
                            np.tile(q, (len(mesh.triangles), 1)))
            total += wq * np.sum(np.abs(det) * np.sum(g * g, axis=1))
        return total

    fine = sp.build_space(hier[2], 2)
    up = sp.prolongate(u, fine)
    assert h1_semi_sq(up) == pytest.approx(h1_semi_sq(u), rel=1e-12)


def test_prolongate_then_restrict_is_identity():
    _, s0 = msh.builtin_domain("square")
    hier = msh.refine_hierarchy(s0, 2)
    coarse = sp.build_space(hier[0], 2)
    fine = sp.build_space(hier[2], 2)
    u = interpolate(coarse, lambda x, y: x**2 * y + 3.0)
    up = sp.prolongate(u, fine)
    # restrict by reading the fine field at the coarse DOF nodes: point
    # indices are stable across levels, so coarse P2 DOF i is fine point i
    nodes = np.arange(coarse.ndof)
    assert np.array_equal(fine.dof_coords[nodes], coarse.dof_coords)
    assert np.allclose(up.coefficients[nodes], u.coefficients, atol=1e-13)


def test_prolongation_is_linear():
    _, s0 = msh.builtin_domain("square")
    hier = msh.refine_hierarchy(s0, 1)
    coarse = sp.build_space(hier[0], 1)
    fine = sp.build_space(hier[1], 1)
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=coarse.ndof), rng.normal(size=coarse.ndof)
    pa = sp.prolongate(sp.Field(coarse, 1, a), fine).coefficients
    pb = sp.prolongate(sp.Field(coarse, 1, b), fine).coefficients
    pab = sp.prolongate(sp.Field(coarse, 1, 2 * a - 3 * b), fine).coefficients
    assert np.allclose(pab, 2 * pa - 3 * pb, atol=1e-12)


def test_prolongation_requires_nested_meshes():
    _, s0 = msh.builtin_domain("square")
    _, l0 = msh.builtin_domain("lshape")
    u = interpolate(sp.build_space(s0, 1), lambda x, y: x)
    with pytest.raises(ValueError, match="descendant"):
        sp.prolongate(u, sp.build_space(l0, 1))


def _evaluate_at_fine_nodes(coarse, fine_space):
    """Coarse field evaluated at each fine Lagrange node (bubbles 0), in
    the coarse ancestor of the lowest-numbered fine triangle at it."""
    fmesh, cmesh = fine_space.mesh, coarse.space.mesh
    anc, m = np.arange(len(fmesh.triangles)), fmesh
    while m is not cmesh:
        anc, m = m.parent[anc], m.coarser
    first = np.full(fine_space.ndof, len(fmesh.triangles))
    for t, dofs in enumerate(fine_space.element_dofs):
        first[dofs] = np.minimum(first[dofs], t)
    nodes = fine_space.ndof
    if fine_space.kind == "lagrange_bubble":
        nodes = len(fmesh.points)
    ctri = anc[first[:nodes]]
    verts = cmesh.points[cmesh.triangles[ctri]]
    d1, d2 = verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]
    r = fine_space.dof_coords[:nodes] - verts[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    l1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
    lam = np.column_stack([1.0 - l1 - l2, l1, l2])
    out = np.zeros((coarse.components, fine_space.ndof))
    for c in range(coarse.components):
        sub = sp.Field(coarse.space, 1, coarse.component(c))
        out[c, :nodes] = evaluate(sub, ctri, lam)
    return out.ravel()


@pytest.mark.parametrize("same_mesh", [False, True])
@pytest.mark.parametrize("coarse_spec,fine_spec", [
    ((1, "lagrange"), (1, "lagrange")),
    ((2, "lagrange"), (2, "lagrange")),
    ((1, "lagrange_bubble"), (3, "lagrange")),
    ((1, "lagrange_bubble"), (1, "lagrange_bubble")),
    ((3, "lagrange"), (3, "lagrange")),
])
def test_prolongate_is_evaluation_at_fine_nodes(monkeypatch, same_mesh,
                                                coarse_spec, fine_spec):
    _, l0 = msh.builtin_domain("lshape")
    hier = msh.refine_hierarchy(l0, 2, 0.2)
    coarse = sp.build_space(hier[2 if same_mesh else 0], *coarse_spec)
    fine = sp.build_space(hier[2], *fine_spec)
    rng = np.random.default_rng(7)
    u = sp.Field(coarse, 2, rng.normal(size=2 * coarse.ndof))
    calls = []
    basis_values = sp.basis_values

    def counting(space, lam):
        calls.append(space)
        return basis_values(space, lam)

    nodes = fine.ndof
    if fine.kind == "lagrange_bubble":
        nodes = len(fine.mesh.points)
    monkeypatch.setattr(sp, "basis_values", counting)
    monkeypatch.setattr(sp, "BLOCK_ROWS", -(-nodes // 3))
    got = sp.prolongate(u, fine)
    if same_mesh and coarse_spec == fine_spec:
        # a field on another FeSpace object of its own mesh, degree and
        # kind is already on the target space: no transfer, no copy
        assert got is u and calls == []
        return
    got = got.coefficients
    # three row blocks of the transfer, each serving both components
    assert len(calls) == 3
    monkeypatch.undo()
    expect = _evaluate_at_fine_nodes(u, fine)
    if coarse_spec[0] == 3:
        # numpy sums the ten P3 terms pairwise, the matrix row in order
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(got - expect)) <= 1e-15 * scale
    else:
        assert np.array_equal(got, expect)


def test_mini_field_prolongates_with_bubble_evaluation():
    _, s0 = msh.builtin_domain("square")
    hier = msh.refine_hierarchy(s0, 1)
    coarse = sp.build_space(hier[0], 1, "lagrange_bubble")
    # fine P1 nodes all lie on coarse edges, where the bubble vanishes;
    # fine P2 midpoints of interior child edges see the bubble
    fine = sp.build_space(hier[1], 2)
    c = np.zeros(coarse.ndof)
    c[len(hier[0].points)] = 1.0  # pure bubble on triangle 0
    up = sp.prolongate(sp.Field(coarse, 1, c), fine)
    assert np.linalg.norm(up.coefficients) > 0.0
    # largest sample: midpoint of a center-child edge, barycentric
    # (1/4, 1/2, 1/4) in the coarse triangle, bubble value 1/32
    assert np.max(np.abs(up.coefficients)) == pytest.approx(1.0 / 32.0, abs=1e-15)
