"""Exactness and positivity of the triangle quadrature rules.

Oracle: on the reference triangle {x, y >= 0, x + y <= 1},

    int x^a y^b dx dy = a! b! / (a + b + 2)!

which every rule of degree >= a + b must reproduce (weights sum to
the reference area 1/2, so no extra area factor appears).
"""

import math

import numpy as np
import pytest

from biharm.meshing import builtin_domain, refine_hierarchy
from biharm.quadrature import physical_points, triangle_rule


def monomial_exact(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", list(range(1, 13)) + [16, 20])
def test_rule_is_exact_and_positive(degree):
    lam, w = triangle_rule(degree)
    assert np.all(w > 0.0)
    # weights carry the reference-triangle measure
    assert w.sum() == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(lam > -1e-14)
    x, y = lam[:, 1], lam[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = np.sum(w * x**a * y**b)
            assert got == pytest.approx(monomial_exact(a, b), rel=1e-13, abs=1e-16)


def test_rule_rejects_degree_zero():
    with pytest.raises(ValueError):
        triangle_rule(0)


def test_physical_points_on_scaled_triangle():
    lam, w = triangle_rule(2)
    tri = np.array([[[1.0, 1.0], [3.0, 1.0], [1.0, 2.0]]])
    pts = physical_points(lam, tri)
    assert pts.shape == (1, len(w), 2)
    # integral of x over the triangle (area 1, centroid x = 5/3)
    area = 1.0
    assert 2.0 * area * np.sum(w * pts[0, :, 0]) == pytest.approx(5.0 / 3.0, rel=1e-14)


def test_high_degree_matches_low_on_shared_polynomials():
    lam5, w5 = triangle_rule(5)
    lam9, w9 = triangle_rule(9)
    for a, b in [(2, 3), (1, 4), (0, 5)]:
        v5 = np.sum(w5 * lam5[:, 1] ** a * lam5[:, 2] ** b)
        v9 = np.sum(w9 * lam9[:, 1] ** a * lam9[:, 2] ** b)
        assert v5 == pytest.approx(v9, rel=1e-13)


@pytest.mark.parametrize("domain, kappa", [("convex_11pi12", 0.3),
                                           ("lshape", 0.2)])
def test_physical_points_lie_in_their_triangles(domain, kappa):
    # every rule order an assembler, a norm or the curl check uses
    mesh = refine_hierarchy(builtin_domain(domain)[1], 4, kappa)[-1]
    tri_pts = mesh.points[mesh.triangles]
    v0 = tri_pts[:, 0]
    edges = np.stack([tri_pts[:, 1] - v0, tri_pts[:, 2] - v0], axis=2)
    centroid = tri_pts.mean(axis=1)
    for degree in range(1, 7):
        lam, w = triangle_rule(degree)
        pts = physical_points(lam, tri_pts)
        assert pts.shape == (len(tri_pts), len(w), 2)
        # barycentric coordinates recovered from the affine map
        xy = np.linalg.solve(edges, (pts - v0[:, None]).transpose(0, 2, 1))
        bary = np.concatenate([1.0 - xy.sum(axis=1, keepdims=True), xy],
                              axis=1).transpose(0, 2, 1)
        assert np.all(bary > -1e-12), degree
        assert np.allclose(bary, lam, rtol=0.0, atol=1e-10), degree
        # int_K x = |K| * centroid_x and int_K y = |K| * centroid_y,
        # each side divided by |K|; coordinates are O(1)
        mean = 2.0 * np.einsum("q,tqd->td", w, pts)
        assert np.max(np.abs(mean - centroid)) < 1e-14, degree
