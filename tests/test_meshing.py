"""Mesh construction, graded refinement, layers, location, and text IO.

Counting oracles come from Euler's formula for a triangulated disk
(E = V + T - 1) and from hand enumeration of the 4-way split; geometric
oracles (node coordinates, diameter ratios, layer counts) were derived
by hand from the refinement rule and are frozen here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm import meshing as msh
from biharm.cli import main

from oracles import corner_point, make_domain, min_angle


def dist_to_boundary(domain, p):
    """Distance from p to the polygon boundary."""
    verts = domain.vertices
    best = np.inf
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        ab = b - a
        t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(p - (a + t * ab))))
    return best


def check_conforming(mesh):
    raw = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    uniq, counts = np.unique(raw, axis=0, return_counts=True)
    assert set(counts) <= {1, 2}
    # every mesh point is used by some triangle and no two points coincide
    assert set(np.unique(mesh.triangles)) == set(range(len(mesh.points)))
    assert len(np.unique(mesh.points, axis=0)) == len(mesh.points)
    # boundary edges lie on the polygon boundary
    for a, b in mesh.boundary_edges:
        mid = 0.5 * (mesh.points[a] + mesh.points[b])
        assert dist_to_boundary(mesh.domain, mid) < 1e-12


# -- builtin domains -------------------------------------------------------


@pytest.mark.parametrize(
    "name,npts,ntri,nedges,area",
    [
        ("square", 5, 4, 8, 4.0),
        ("lshape", 8, 6, 13, 3.0),
        ("convex_11pi12", 5, 4, 8, None),
    ],
)
def test_builtin_counts(name, npts, ntri, nedges, area):
    domain, mesh = msh.builtin_domain(name)
    assert len(mesh.points) == npts
    assert len(mesh.triangles) == ntri
    assert len(mesh.edges) == nedges
    assert mesh.level == 0
    assert np.all(mesh.parent == -1)
    assert np.all(mesh.det > 0.0)  # counterclockwise
    total = float((0.5 * mesh.det).sum())
    if area is not None:
        assert total == pytest.approx(area, rel=1e-14)
    # triangulation fills the polygon exactly
    poly = msh._signed_area(domain.vertices)
    assert total == pytest.approx(poly, rel=1e-14)
    check_conforming(mesh)


def test_square_domain():
    domain, mesh = msh.builtin_domain("square")
    assert domain.graded_corners == frozenset()
    assert np.allclose(domain.interior_angles, math.pi / 2.0, atol=1e-15)
    assert np.allclose(mesh.points[4], [0.0, 0.0])


def test_lshape_domain():
    domain, mesh = msh.builtin_domain("lshape")
    assert domain.graded_corners == {0}
    assert np.allclose(domain.vertices[0], [0.0, 0.0])
    assert domain.interior_angles[0] == pytest.approx(1.5 * math.pi, abs=1e-14)
    assert np.allclose(domain.interior_angles[1:], math.pi / 2.0, atol=1e-14)
    # all six triangles fan the reentrant corner
    assert np.all(mesh.triangles[:, 0] == 0)
    assert corner_point(mesh, 0) == 0


def test_kite_domain():
    domain, mesh = msh.builtin_domain("convex_11pi12")
    assert domain.graded_corners == {0}
    assert domain.interior_angles[0] == pytest.approx(11.0 * math.pi / 12.0, abs=1e-12)
    # the remaining three corners share the opening 13 pi / 36
    assert np.allclose(domain.interior_angles[1:], 13.0 * math.pi / 36.0, atol=1e-12)
    assert np.allclose(domain.vertices[2], [2.0, 0.0])
    # kite is symmetric about the x axis
    assert np.allclose(domain.vertices[1], domain.vertices[3] * [1.0, -1.0])


def test_unknown_domain():
    with pytest.raises(ValueError):
        msh.builtin_domain("pentagon")


# -- graded refinement -----------------------------------------------------


def test_refine_unit_triangle_node_positions():
    # reference triangle, corner (0,0) graded with kappa = 0.2:
    # edge nodes (0.2,0), (0,0.2) and midpoint (0.5,0.5)
    _, m0 = make_domain([(0, 0), (1, 0), (0, 1)], graded_corners={0})
    m1 = msh.graded_refine(m0, 0.2)
    assert np.array_equal(
        m1.points[3:], np.array([[0.2, 0.0], [0.0, 0.2], [0.5, 0.5]])
    )
    assert np.array_equal(
        m1.triangles, np.array([[0, 3, 4], [1, 5, 3], [2, 4, 5], [3, 5, 4]])
    )
    assert np.array_equal(m1.parent, np.zeros(4, dtype=int))
    assert m1.level == 1
    assert np.array_equal(m1.corner_vertex, [0, 1, 2, -1, -1, -1])


def test_refine_midpoints_without_rules():
    # the square flags no corner, so every kappa refines by midpoints
    _, m0 = msh.builtin_domain("square")
    m1 = msh.graded_refine(m0, 0.2)
    lo, hi = m0.edges[:, 0], m0.edges[:, 1]
    assert np.allclose(m1.points[5:], 0.5 * (m0.points[lo] + m0.points[hi]))


@pytest.mark.parametrize("name", ["square", "lshape", "convex_11pi12"])
def test_refine_counts_and_euler(name):
    _, mesh = msh.builtin_domain(name)
    t0 = len(mesh.triangles)
    for n in range(1, 4):
        v, e = len(mesh.points), len(mesh.edges)
        mesh = msh.graded_refine(mesh, 0.3)
        assert len(mesh.triangles) == t0 * 4**n
        assert len(mesh.points) == v + e  # one new node per edge
        assert len(mesh.edges) == len(mesh.points) + len(mesh.triangles) - 1
        assert mesh.level == n
        check_conforming(mesh)


@pytest.mark.parametrize("name", ["square", "lshape", "convex_11pi12"])
def test_edge_table_matches_row_unique(name):
    # the packed-code sort gives the lexicographic order of the pairs
    _, mesh = msh.builtin_domain(name)
    mesh = msh.refine_hierarchy(mesh, 3, 0.2)[-1]
    raw = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    uniq, counts = np.unique(raw, axis=0, return_counts=True)
    assert mesh.edges.dtype == np.int64
    assert np.array_equal(mesh.edges, uniq)
    assert np.array_equal(mesh.boundary_edges, uniq[counts == 1])


@pytest.mark.parametrize("attr", ["edges", "boundary_edges"])
def test_non_manifold_edge_rejected(attr):
    # three triangles share the edge (0, 1); the edge table is built with
    # the mesh, so the mesh cannot be made and neither table can be read
    _, base = msh.builtin_domain("square")
    with pytest.raises(ValueError, match="non-manifold"):
        mesh = msh.Mesh(
            domain=base.domain,
            points=np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0),
                             (0.5, 2.0)]),
            triangles=np.array([(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
            level=0,
            parent=np.full(3, -1),
            corner_vertex=np.full(5, -1),
        )
        getattr(mesh, attr)


def test_edge_index_finds_every_edge_in_either_direction():
    _, m0 = msh.builtin_domain("lshape")
    mesh = msh.refine_hierarchy(m0, 2, 0.2)[-1]
    rows = np.arange(len(mesh.edges))
    lo, hi = mesh.edges[:, 0], mesh.edges[:, 1]
    assert np.array_equal(mesh.edge_index(lo, hi), rows)
    assert np.array_equal(mesh.edge_index(hi, lo), rows)


@pytest.mark.parametrize("name", ["square", "lshape", "convex_11pi12"])
def test_refine_conserves_area(name):
    domain, mesh = msh.builtin_domain(name)
    exact = msh._signed_area(domain.vertices)
    for _ in range(3):
        mesh = msh.graded_refine(mesh, 0.15)
        assert float((0.5 * mesh.det).sum()) == pytest.approx(exact, rel=1e-12)


def test_corner_triangles_shrink_by_kappa_squared():
    _, m0 = msh.builtin_domain("lshape")
    hier = msh.refine_hierarchy(m0, 2, 0.2)
    m2 = hier[2]
    cp = corner_point(m2, 0)

    def diam(mesh, t):
        p = mesh.points[mesh.triangles[t]]
        return max(
            np.linalg.norm(p[i] - p[j]) for i in range(3) for j in range(i + 1, 3)
        )

    attached = [t for t in range(len(m2.triangles)) if cp in m2.triangles[t]]
    assert len(attached) == 6
    for t in attached:
        root = int(hier[1].parent[m2.parent[t]])
        assert diam(m2, t) / diam(m0, root) == pytest.approx(0.04, rel=1e-12)
    # nearest node sits at distance kappa^2 (shortest corner edge has length 1)
    rest = np.delete(np.arange(len(m2.points)), cp)
    dmin = np.min(np.linalg.norm(m2.points[rest] - m2.points[cp], axis=1))
    assert dmin == pytest.approx(0.04, rel=1e-12)


def test_min_angle_constant_across_levels():
    _, m0 = msh.builtin_domain("lshape")
    hier = msh.refine_hierarchy(m0, 4, 0.2)
    angles = [min_angle(m) for m in hier[1:]]
    assert all(a == pytest.approx(angles[0], abs=1e-12) for a in angles)
    assert angles[0] > 0.19
    # pure midpoint refinement preserves shapes exactly
    _, s0 = msh.builtin_domain("square")
    for m in msh.refine_hierarchy(s0, 3):
        assert min_angle(m) == pytest.approx(math.pi / 4.0, abs=1e-13)


@pytest.mark.parametrize("kappa", [0.0, -0.1, 0.6, 1.0])
def test_kappa_range_enforced(kappa):
    # checked on every call, also where no corner is graded or nothing
    # is refined
    for name in ("lshape", "square"):
        _, m0 = msh.builtin_domain(name)
        with pytest.raises(ValueError, match="kappa"):
            msh.graded_refine(m0, kappa)
        with pytest.raises(ValueError, match="kappa"):
            msh.refine_hierarchy(m0, 0, kappa)


def test_kappa_half_is_allowed():
    _, m0 = msh.builtin_domain("lshape")
    a = msh.graded_refine(m0, 0.5)
    b = msh.graded_refine(m0)
    assert np.array_equal(a.points, b.points)


def test_kappa_grades_every_flagged_corner():
    # the square with two opposite corners flagged: the new nodes on the
    # three edges of a flagged corner (two of length 2, one of length
    # sqrt 2 to the center) lie the fraction kappa along them
    _, s0 = msh.builtin_domain("square")
    domain = msh.PolygonDomain(s0.domain.vertices, {0, 2})
    m0 = msh.Mesh(domain=domain, points=s0.points, triangles=s0.triangles,
                  level=0, parent=s0.parent, corner_vertex=s0.corner_vertex)
    m1 = msh.graded_refine(m0, 0.2)

    def nearest(corner):
        d = np.linalg.norm(m1.points[5:] - m1.points[corner], axis=1)
        return np.sort(d)[:3]

    for corner in (0, 2):
        assert nearest(corner) == pytest.approx([0.2 * math.sqrt(2.0), 0.4,
                                                 0.4], rel=1e-14)
    # an unflagged corner keeps the midpoint toward the center
    assert nearest(1) == pytest.approx([0.5 * math.sqrt(2.0), 1.6, 1.6],
                                       rel=1e-14)


def test_edge_joining_two_graded_corners_rejected():
    _, m0 = make_domain([(0, 0), (1, 0), (0, 1)], graded_corners={0, 1})
    with pytest.raises(ValueError, match="graded corners"):
        msh.graded_refine(m0, 0.3)


def test_refining_a_mesh_with_two_adjacent_graded_corners_rejected():
    # a mesh read from a file reaches graded_refine without a level-0 check
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    mesh = msh.Mesh(domain=msh.PolygonDomain(verts, {0, 1}),
                    points=np.array(verts), triangles=np.array([(0, 1, 2)]),
                    level=0, parent=np.array([-1]),
                    corner_vertex=np.arange(3))
    with pytest.raises(ValueError, match="graded corners"):
        msh.graded_refine(mesh, 0.3)


# -- layers ----------------------------------------------------------------


def mesh_layers(mesh, corner):
    """Layer index per triangle, relative to one graded corner.

    A triangle whose level-0 ancestor touches the corner gets the level
    of its deepest corner-touching ancestor; all others get -1.
    """
    if corner not in mesh.domain.graded_corners:
        raise ValueError(f"corner {corner} is not flagged for grading")
    cp = corner_point(mesh, corner)
    anc = np.arange(len(mesh.triangles))
    layers = np.full(len(anc), -1)
    m = mesh
    while True:
        touch = np.any(m.triangles[anc] == cp, axis=1)
        layers = np.where(touch & (layers < 0), m.level, layers)
        if m.coarser is None:
            break
        anc, m = m.parent[anc], m.coarser
    return np.where(touch, layers, -1)


def test_layers_single_corner_triangle():
    _, m0 = make_domain([(0, 0), (1, 0), (0, 1)], graded_corners={0})
    hier = msh.refine_hierarchy(m0, 2, 0.2)
    lay1 = mesh_layers(hier[1], 0)
    assert {int(k): int((lay1 == k).sum()) for k in set(lay1)} == {0: 3, 1: 1}
    lay2 = mesh_layers(hier[2], 0)
    assert {int(k): int((lay2 == k).sum()) for k in set(lay2)} == {0: 12, 1: 3, 2: 1}


def test_layers_lshape():
    _, m0 = msh.builtin_domain("lshape")
    hier = msh.refine_hierarchy(m0, 2, 0.2)
    lay = mesh_layers(hier[2], 0)
    assert {int(k): int((lay == k).sum()) for k in set(lay)} == {0: 72, 1: 18, 2: 6}
    # the innermost layer is exactly the corner-attached triangles
    cp = corner_point(hier[2], 0)
    attached = np.any(hier[2].triangles == cp, axis=1)
    assert np.array_equal(lay == 2, attached)


def test_layers_partition_only_corner_patch():
    # flag a corner whose initial patch does not cover the whole domain
    _, m0 = make_domain(
        [(0, 0), (1, 0), (1, 1), (0, 1)], graded_corners={1}
    )
    hier = msh.refine_hierarchy(m0, 1, 0.25)
    lay = mesh_layers(hier[1], 1)
    # fan from vertex 0: only triangle (0,1,2) touches corner 1
    assert {int(k): int((lay == k).sum()) for k in set(lay)} == {-1: 4, 0: 3, 1: 1}


def test_layers_require_flagged_corner():
    _, m0 = msh.builtin_domain("lshape")
    m1 = msh.graded_refine(m0, 0.2)
    with pytest.raises(ValueError, match="not flagged"):
        mesh_layers(m1, 1)
    _, s0 = msh.builtin_domain("square")
    with pytest.raises(ValueError):
        mesh_layers(msh.graded_refine(s0), 0)


# -- point location --------------------------------------------------------


def barycentric(mesh, t, p):
    a, b, c = mesh.points[mesh.triangles[t]]
    l1, l2 = np.linalg.solve(np.column_stack([b - a, c - a]), np.asarray(p) - a)
    return np.array([1.0 - l1 - l2, l1, l2])


def locate_point(mesh, p):
    """Triangle holding p, found by descending the refinement tree.

    Level 0 is scanned in index order; each finer level keeps the child
    (by ``parent``) with the largest minimum barycentric coordinate, the
    lowest index on ties.
    """
    chain = [mesh]
    while chain[-1].coarser is not None:
        chain.append(chain[-1].coarser)
    root = chain.pop()
    tri = next((t for t in range(len(root.triangles))
                if barycentric(root, t, p).min() >= -1e-12), None)
    if tri is None:
        raise ValueError(f"point {tuple(p)} lies outside the domain")
    for m in reversed(chain):
        children = np.flatnonzero(m.parent == tri)
        tri = max(children, key=lambda c: barycentric(m, c, p).min())
    return int(tri), barycentric(mesh, tri, p)


def test_locate_reconstructs_points():
    _, m0 = msh.builtin_domain("lshape")
    hier = msh.refine_hierarchy(m0, 3, 0.2)
    mesh = hier[3]
    pts = [(0.3, 0.7), (-0.9, -0.9), (0.01, 0.015), (-0.5, 0.25), (0.999, 0.999)]
    for p in pts:
        t, bary = locate_point(mesh, p)
        assert np.all(bary >= -1e-12)
        assert bary.sum() == pytest.approx(1.0, abs=1e-12)
        rec = bary @ mesh.points[mesh.triangles[t]]
        assert np.allclose(rec, p, atol=1e-13)


def test_locate_vertex_tie_breaks_to_lowest_index():
    _, s0 = msh.builtin_domain("square")
    s1 = msh.graded_refine(s0)
    # the center point is a vertex of several triangles; the walk stays in
    # the children of root triangle 0 and picks the first child containing it
    t, bary = locate_point(s1, (0.0, 0.0))
    assert t == 2  # child (4, m40, m14) of root triangle 0
    assert bary == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)


def test_locate_outside_raises():
    _, s0 = msh.builtin_domain("square")
    with pytest.raises(ValueError, match="outside"):
        locate_point(s0, (2.0, 0.0))
    _, l0 = msh.builtin_domain("lshape")
    # inside the square hull but outside the L
    with pytest.raises(ValueError, match="outside"):
        locate_point(l0, (0.5, -0.5))


# -- determinism and text round-trip ---------------------------------------


def test_refinement_is_deterministic(tmp_path):
    def build():
        _, m0 = msh.builtin_domain("lshape")
        return msh.refine_hierarchy(m0, 2, 0.2)[2]

    a, b = build(), build()
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    da = msh.write_mesh(a, pa)
    db = msh.write_mesh(b, pb)
    assert da == db
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("name", ["square", "lshape", "convex_11pi12"])
def test_roundtrip_bit_exact(name, tmp_path):
    # a written level-2 mesh reads back as a level-0 root of its own
    _, m0 = msh.builtin_domain(name)
    mesh = msh.refine_hierarchy(m0, 2, 0.2)[2]
    p1 = tmp_path / "m.txt"
    d1 = msh.write_mesh(mesh, p1)
    back = msh.read_mesh(p1)
    assert back.level == 0 and back.coarser is None
    assert np.array_equal(back.parent, np.full(len(mesh.triangles), -1))
    assert np.array_equal(back.points, mesh.points)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.corner_vertex, mesh.corner_vertex)
    assert back.domain.graded_corners == mesh.domain.graded_corners
    assert np.array_equal(back.domain.vertices, mesh.domain.vertices)
    p2 = tmp_path / "m2.txt"
    d2 = msh.write_mesh(back, p2)
    assert d1 == d2
    assert p1.read_bytes() == p2.read_bytes()


def test_read_mesh_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("tri 3 1 0\n")
    with pytest.raises(ValueError, match="header"):
        msh.read_mesh(p)
    p.write_text("mesh 3 1\np 0.0 0.0 0\np 1.0 0.0 1\n")
    with pytest.raises(ValueError, match="counts"):
        msh.read_mesh(p)
    p.write_text("mesh 3 1\np 0 0 0\np 1 0 1\np 0 1 2\nt 0 1 3\n")
    with pytest.raises(ValueError, match="point that does not exist"):
        msh.read_mesh(p)
    for value in ("nan", "inf", "-inf"):  # a non-finite coordinate
        p.write_text(f"mesh 3 1\np 0 0 0\np 1 0 1\np 0 {value} 2\n"
                     "t 0 1 2\n")
        with pytest.raises(ValueError, match=f"line 4: .*'p 0 {value} 2'"):
            msh.read_mesh(p)


def square_file(last=3, centre="", extra=""):
    """The builtin level-0 square as a mesh file, with the corner id of
    its last vertex, an id for its centre point and extra lines."""
    return (f"mesh 5 4\np -1.0 -1.0 0\np 1.0 -1.0 1\np 1.0 1.0 2\n"
            f"p -1.0 1.0 {last}\np 0.0 0.0{centre}\n"
            "t 0 1 4\nt 1 2 4\nt 2 3 4\nt 3 0 4\n"
            f"corner 0 0\ncorner 1 0\ncorner 2 0\ncorner {last} 0\n{extra}")


@pytest.mark.parametrize("body,match", [
    (square_file(centre=" 1"), r"corner ids \[0, 1, 1, 2, 3\] are not 0..4"),
    (square_file(last=5), r"corner ids \[0, 1, 2, 5\] are not 0..3"),
    (square_file(extra="corner 7 0\n"), r"name corners \[0, 1, 2, 3, 7\]"),
    (square_file(extra="corner 0 1\n"),
     r"line 15: cannot read 'corner 0 1'"),
    (square_file().replace("corner 1 0", "corner 1 7"),
     r"line 12: cannot read 'corner 1 7'"),
    (square_file().replace("mesh 5 4", "mesh 5 4 0"),
     r"line 1: missing 'mesh <npoints> <ntriangles>' header"),
    (square_file(centre=" -1 junk"),
     r"line 6: cannot read 'p 0.0 0.0 -1 junk'"),
    (square_file(centre=" -7"), r"line 6: cannot read 'p 0.0 0.0 -7'"),
    (square_file().replace("t 0 1 4", "t 0 1 4 9 9"),
     r"line 7: cannot read 't 0 1 4 9 9'"),
], ids=["repeated", "skipped", "unknown-corner-line", "second-corner-line",
        "graded-flag-not-0-or-1", "mesh-line-extra-field",
        "p-line-extra-fields", "negative-corner-id", "t-line-extra-fields"])
def test_read_mesh_rejects_corner_ids_other_than_0_to_n(tmp_path, body,
                                                      match):
    path = tmp_path / "square.mesh"
    path.write_text(square_file())  # read as is: only the ids are at fault
    _, square = msh.builtin_domain("square")
    assert np.array_equal(msh.read_mesh(path).corner_vertex,
                          square.corner_vertex)
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        msh.read_mesh(path)
    assert main(["mesh", "--domain", str(path),
                 "--out", str(tmp_path / "out.mesh")]) == 2


def test_read_mesh_reads_corner_id_minus_one_as_no_corner(tmp_path):
    # -1 is the id write_mesh leaves out; the file reads as without it
    path = tmp_path / "square.mesh"
    path.write_text(square_file(centre=" -1"))
    mesh = msh.read_mesh(path)
    assert mesh.corner_vertex[-1] == -1
    assert msh.write_mesh(mesh, tmp_path / "out.mesh") == square_file()


@pytest.mark.parametrize("name,kappa", [("convex_11pi12", 0.2),
                                        ("lshape", 0.3)])
def test_mesh_geometry_matches_inverse_jacobian(name, kappa):
    _, m0 = msh.builtin_domain(name)
    for mesh in msh.refine_hierarchy(m0, 4, kappa):
        # det J from J = [p1 - p0, p2 - p0], summed in this order: the
        # rates and comparisons depend on its bits
        p = mesh.points[mesh.triangles]
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1]
        assert np.array_equal(mesh.det, det)
        want = np.linalg.inv(np.stack([d1, d2], axis=2)).transpose(0, 2, 1)
        err = np.max(np.abs(mesh.inv_t - want), axis=(1, 2))
        assert np.all(err <= 1e-13 * np.max(np.abs(want), axis=(1, 2)))
    # a zero determinant is refused before anything divides by it
    points = m0.points.copy()
    points[m0.triangles[0, 2]] = points[m0.triangles[0, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="triangle 0 is degenerate"):
            msh.Mesh(domain=m0.domain, points=points, triangles=m0.triangles,
                     level=0, parent=m0.parent,
                     corner_vertex=m0.corner_vertex)


def test_mesh_rejects_nan_area():
    # a NaN area is not positive, so it fails the area check
    _, m0 = msh.builtin_domain("square")
    points = m0.points.copy()
    points[m0.triangles[0, 0], 0] = np.nan
    with pytest.raises(ValueError, match="degenerate"):
        msh.Mesh(domain=m0.domain, points=points, triangles=m0.triangles,
                 level=0, parent=m0.parent, corner_vertex=m0.corner_vertex)


def test_domain_validation():
    with pytest.raises(ValueError):
        msh.PolygonDomain([(0, 0), (1, 0)])  # too few vertices
    with pytest.raises(ValueError):
        msh.PolygonDomain([(0, 0), (0, 1), (1, 0)])  # clockwise
    with pytest.raises(ValueError):
        msh.PolygonDomain([(0, 0), (1, 0), (2, 0), (0, 1)])  # straight angle
    with pytest.raises(ValueError):
        msh.PolygonDomain([(0, 0), (1, 0), (0, 1)], graded_corners={7})


@settings(max_examples=20, deadline=None)
@given(
    kappa=st.floats(min_value=0.05, max_value=0.5),
    levels=st.integers(min_value=1, max_value=2),
)
def test_refinement_invariants_hold_for_any_kappa(kappa, levels):
    _, mesh = msh.builtin_domain("lshape")
    for _ in range(levels):
        mesh = msh.graded_refine(mesh, kappa)
    check_conforming(mesh)
    assert float((0.5 * mesh.det).sum()) == pytest.approx(3.0, rel=1e-12)
    assert min_angle(mesh) > 0.0
