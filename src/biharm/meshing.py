"""Polygonal domains and nested triangulations with corner grading.

A mesh hierarchy is produced by repeated 4-way refinement: every edge
receives one new node and every triangle is split into four.  On edges
emanating from a flagged corner the new node is placed at a fraction
kappa in (0, 1/2] of the edge length from the corner instead of the
midpoint, which grades the mesh geometrically toward the corner while
keeping all triangles shape regular.  Point indices are stable across
levels (refinement only appends points), and each mesh keeps a reference
to the mesh it was refined from and the kappa of that refinement, so
ancestry of any triangle can be walked back to level 0.  Each mesh
computes its triangles' affine maps once, when it is made: ``det`` and
``inv_t``, which every assembler and norm on it reads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PolygonDomain",
    "Mesh",
    "builtin_domain",
    "graded_refine",
    "refine_hierarchy",
    "write_mesh",
    "read_mesh",
]

class PolygonDomain:
    """Simple closed polygon with flagged (graded) corners.

    ``vertices`` are ordered counterclockwise; ``interior_angles[i]`` is
    the interior opening at vertex i, recomputed from coordinates.
    """

    def __init__(self, vertices, graded_corners=()):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2 or len(self.vertices) < 3:
            raise ValueError("vertices must be an (N, 2) array with N >= 3")
        self.graded_corners = frozenset(int(c) for c in graded_corners)
        n = len(self.vertices)
        for c in self.graded_corners:
            if not 0 <= c < n:
                raise ValueError(f"graded corner index {c} out of range")
        if _signed_area(self.vertices) <= 0.0:
            raise ValueError("polygon must be counterclockwise with positive area")
        self.interior_angles = _interior_angles(self.vertices)
        bad = [
            i
            for i, a in enumerate(self.interior_angles)
            if not (0.0 < a < 2.0 * math.pi) or abs(a - math.pi) < 1e-12
        ]
        if bad:
            raise ValueError(f"degenerate interior angle at vertices {bad}")


def _signed_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _interior_angles(pts):
    prev = np.roll(pts, 1, axis=0)
    nxt = np.roll(pts, -1, axis=0)
    a = nxt - pts
    b = prev - pts
    ang = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], np.sum(a * b, axis=1))
    return np.where(ang > 0.0, ang, ang + 2.0 * math.pi)


@dataclass
class Mesh:
    """One level of a nested triangulation."""

    domain: PolygonDomain
    points: np.ndarray        # (npoints, 2)
    triangles: np.ndarray     # (ntriangles, 3) point indices, counterclockwise
    level: int
    parent: np.ndarray        # (ntriangles,) triangle index one level up, -1 at level 0
    corner_vertex: np.ndarray # (npoints,) corner id or -1
    coarser: "Mesh | None" = None
    kappa: float | None = None  # grading factor that refined ``coarser``
    # unique undirected edges as sorted (lo, hi) rows in lexicographic
    # order, and the rows of those with one incident triangle
    edges: np.ndarray = field(init=False, repr=False)
    boundary_edges: np.ndarray = field(init=False, repr=False)
    # affine map of each triangle, J = [p1 - p0, p2 - p0]: det J (twice
    # the signed area) and the transposed inverse invJ^T, (nt, 2, 2)
    det: np.ndarray = field(init=False, repr=False)
    inv_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.parent = np.asarray(self.parent, dtype=np.int64)
        self.corner_vertex = np.asarray(self.corner_vertex, dtype=np.int64)
        p = self.points[self.triangles]
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        self.det = d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1]
        if not np.all(self.det > 0.0):  # a NaN determinant fails too
            bad = int(np.argmin(self.det))
            raise ValueError(f"triangle {bad} is degenerate or clockwise")
        self.inv_t = np.stack([d2[:, 1], -d1[:, 1], -d2[:, 0], d1[:, 0]],
                              axis=1).reshape(-1, 2, 2) / self.det[:, None, None]
        del p, d1, d2
        # both edge arrays from one sort of the codes lo * npoints + hi;
        # an edge with more than two triangles is non-manifold
        raw = self.triangles[:, [0, 1, 1, 2, 2, 0]]
        lo = np.minimum(raw[:, 0::2], raw[:, 1::2]).ravel()
        hi = np.maximum(raw[:, 0::2], raw[:, 1::2]).ravel()
        npts = len(self.points)
        codes, counts = np.unique(lo * npts + hi, return_counts=True)
        if np.any(counts > 2):
            raise ValueError("non-manifold edge: more than two incident triangles")
        self.edges = np.column_stack([codes // npts, codes % npts])
        self.boundary_edges = self.edges[counts == 1]

    def edge_index(self, u, v):
        """Rows of the edges {u, v} in ``edges``.

        Edges are found by binary search on the codes lo * npoints + hi,
        which sort in the lexicographic order of the (lo, hi) rows.
        """
        n = len(self.points)
        codes = self.edges[:, 0] * n + self.edges[:, 1]
        return np.searchsorted(codes, np.minimum(u, v) * n + np.maximum(u, v))


# -- builtin domains ------------------------------------------------------


def builtin_domain(name):
    """The three experiment domains with their deterministic level-0 meshes.

    square        (-1,1)^2, four triangles fanning the center point
    lshape        (-1,1)^2 minus the closed quadrant [0,1]x[-1,0]; six
                  triangles fanning the reentrant corner at the origin
                  (opening 3pi/2, flagged for grading)
    convex_11pi12 kite with largest opening 11pi/12 at the origin
                  (flagged); four triangles fanning the centroid, so the
                  coarsest Stokes system is already solvable
    """
    if name == "square":
        verts = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        domain = PolygonDomain(verts, graded_corners=())
        points = np.array(verts + [(0.0, 0.0)])
        tris = np.array([(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])
        corner = np.array([0, 1, 2, 3, -1])
    elif name == "lshape":
        verts = [
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (-1.0, 1.0),
            (-1.0, -1.0),
            (0.0, -1.0),
        ]
        domain = PolygonDomain(verts, graded_corners={0})
        points = np.array(verts + [(0.0, 1.0), (-1.0, 0.0)])
        tris = np.array(
            [(0, 1, 2), (0, 2, 6), (0, 6, 3), (0, 3, 7), (0, 7, 4), (0, 4, 5)]
        )
        corner = np.array([0, 1, 2, 3, 4, 5, -1, -1])
    elif name == "convex_11pi12":
        c1 = math.tan(11.0 * math.pi / 24.0)
        c2 = math.tan(13.0 * math.pi / 72.0)
        s = c1 / c2 + 1.0
        verts = [
            (0.0, 0.0),
            (2.0 / s, -2.0 * c1 / s),
            (2.0, 0.0),
            (2.0 / s, 2.0 * c1 / s),
        ]
        domain = PolygonDomain(verts, graded_corners={0})
        center = np.mean(verts, axis=0)
        points = np.array(verts + [tuple(center)])
        tris = np.array([(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])
        corner = np.array([0, 1, 2, 3, -1])
    else:
        raise ValueError(f"unknown builtin domain {name!r}")
    mesh = Mesh(
        domain=domain,
        points=points,
        triangles=tris,
        level=0,
        parent=np.full(len(tris), -1),
        corner_vertex=corner,
    )
    return domain, mesh


def _graded_points(mesh, kappa):
    """Mask of the points of ``mesh`` that are flagged corners.

    Raises when kappa is outside (0, 1/2] or when an edge joins two
    flagged corners, on which the grading would be ambiguous.
    """
    if not 0.0 < kappa <= 0.5:
        raise ValueError(f"kappa must lie in (0, 1/2], got {kappa!r}")
    graded = np.isin(mesh.corner_vertex, list(mesh.domain.graded_corners))
    e = mesh.edges
    both = graded[e[:, 0]] & graded[e[:, 1]]
    if np.any(both):
        i = int(np.nonzero(both)[0][0])
        raise ValueError(
            f"edge {tuple(e[i])} joins two graded corners; "
            "grading is ambiguous on such an edge"
        )
    return graded


def graded_refine(mesh, kappa=0.5):
    """One 4-way refinement sweep grading every flagged corner by ``kappa``.

    ``kappa`` lies in (0, 1/2]; 1/2 is uniform refinement.  Every edge
    receives exactly one node, placed at the fraction kappa of its
    length from a graded corner endpoint and at the midpoint otherwise,
    so the refined mesh is conforming by construction.
    """
    graded = _graded_points(mesh, kappa)
    edges = mesh.edges
    npts = len(mesh.points)

    lo, hi = edges[:, 0], edges[:, 1]
    # node measured from the graded endpoint A: D = A + kappa (B - A)
    frac = np.where(graded[lo], kappa, np.where(graded[hi], 1.0 - kappa, 0.5))
    new_pts = mesh.points[lo] + frac[:, None] * (mesh.points[hi] - mesh.points[lo])

    # edge nodes are appended in lexicographic edge order
    tri = mesh.triangles
    mab, mbc, mca = (npts + mesh.edge_index(tri[:, i], tri[:, (i + 1) % 3])
                     for i in range(3))
    kids = np.empty((len(tri), 4, 3), dtype=np.int64)
    kids[:, 0] = np.stack([tri[:, 0], mab, mca], axis=1)
    kids[:, 1] = np.stack([tri[:, 1], mbc, mab], axis=1)
    kids[:, 2] = np.stack([tri[:, 2], mca, mbc], axis=1)
    kids[:, 3] = np.stack([mab, mbc, mca], axis=1)
    tris = kids.reshape(-1, 3)
    parents = np.repeat(np.arange(len(tri)), 4)

    points = np.vstack([mesh.points, new_pts])
    corner = np.concatenate([mesh.corner_vertex, np.full(len(new_pts), -1)])
    fine = Mesh(
        domain=mesh.domain,
        points=points,
        triangles=np.asarray(tris),
        level=mesh.level + 1,
        parent=np.asarray(parents),
        corner_vertex=corner,
        coarser=mesh,
        kappa=kappa,
    )
    # degenerate children would violate the minimum-area contract
    ratio = fine.det.reshape(-1, 4) / mesh.det[:, None]
    if np.any(ratio < 1e-14):
        t = int(np.nonzero(ratio < 1e-14)[0][0])
        raise ValueError(f"refinement produced a degenerate child of triangle {t}")
    return fine


def refine_hierarchy(mesh, levels, kappa=0.5):
    """Meshes at levels 0..levels (index = level), graded by ``kappa``."""
    if levels < 0:
        raise ValueError(f"levels must be non-negative, got {levels!r}")
    _graded_points(mesh, kappa)  # checked also when nothing is refined
    out = [mesh]
    for _ in range(levels):
        out.append(graded_refine(out[-1], kappa))
    return out


# -- text format ----------------------------------------------------------


def write_mesh(mesh, path):
    """Line-oriented text dump of the mesh as a root mesh, without its
    level or ancestry; floats use shortest round-trip decimals."""
    lines = [f"mesh {len(mesh.points)} {len(mesh.triangles)}"]
    for i in range(len(mesh.points)):
        x, y = float(mesh.points[i, 0]), float(mesh.points[i, 1])
        c = int(mesh.corner_vertex[i])
        tail = f" {c}" if c >= 0 else ""
        lines.append(f"p {x!r} {y!r}{tail}")
    for t in range(len(mesh.triangles)):
        a, b, c = (int(v) for v in mesh.triangles[t])
        lines.append(f"t {a} {b} {c}")
    for c in range(len(mesh.domain.vertices)):
        graded = 1 if c in mesh.domain.graded_corners else 0
        lines.append(f"corner {c} {graded}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def read_mesh(path):
    """The level-0 mesh of a file in the text format of write_mesh.

    After the header ``mesh <npoints> <ntriangles>`` come lines ``p <x>
    <y> [<corner id>]``, ``t <a> <b> <c>`` and ``corner <id> <0|1>``,
    each with exactly these fields.  A point without an id, or with the
    id -1, is no corner; any other negative id is refused.  The corner
    ids of the points are 0..n-1, each on exactly one point, and each
    ``corner`` line names one of them, a different one.
    """
    with open(path) as fh:
        lines = [(n, ln.split()) for n, ln in enumerate(fh, 1) if ln.strip()]
    n, head = lines[0] if lines else (1, [])
    try:
        if head[0] != "mesh" or len(head) != 3:
            raise ValueError
        npts, ntri = int(head[1]), int(head[2])
    except (IndexError, ValueError):
        raise ValueError(f"line {n}: missing 'mesh <npoints> <ntriangles>' "
                         "header") from None
    points, corner, tris, graded = [], [], [], {}
    for n, parts in lines[1:]:
        try:
            if parts[0] == "p" and len(parts) in (3, 4):
                points.append((float(parts[1]), float(parts[2])))
                if not np.all(np.isfinite(points[-1])):
                    raise ValueError
                corner.append(int(parts[3]) if len(parts) > 3 else -1)
                if corner[-1] < -1:
                    raise ValueError
            elif parts[0] == "t" and len(parts) == 4:
                tris.append((int(parts[1]), int(parts[2]), int(parts[3])))
            elif (parts[0] == "corner" and len(parts) == 3
                  and parts[2] in ("0", "1") and int(parts[1]) not in graded):
                graded[int(parts[1])] = parts[2] == "1"
            else:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"line {n}: cannot read {' '.join(parts)!r}") from None
    if len(points) != npts or len(tris) != ntri:
        raise ValueError("header counts do not match file body")
    tris = np.asarray(tris)
    if np.any((tris < 0) | (tris >= npts)):
        raise ValueError("a triangle refers to a point that does not exist")
    corner = np.asarray(corner)
    ids = corner[corner >= 0]
    order = np.argsort(ids)
    if not np.array_equal(ids[order], np.arange(len(ids))):
        raise ValueError(f"corner ids {sorted(ids.tolist())} are not "
                         f"0..{len(ids) - 1}, each on exactly one point")
    if not set(graded) <= set(range(len(ids))):
        raise ValueError(f"'corner' lines name corners {sorted(graded)}, "
                         f"but the points carry only 0..{len(ids) - 1}")
    verts = np.asarray(points)[corner >= 0][order]
    domain = PolygonDomain(verts, {c for c, g in graded.items() if g})
    return Mesh(
        domain=domain,
        points=np.asarray(points),
        triangles=tris,
        level=0,
        parent=np.full(len(tris), -1),
        corner_vertex=corner,
    )
