"""Positive-weight quadrature rules on the reference triangle.

Rules are stated in barycentric coordinates with weights summing to the
reference-triangle area 1/2, so an integral over a physical triangle K is

    int_K f = 2 |K| * sum_i w_i f(x_i),   x_i = sum_j lambda_ij V_j.

Low degrees use classical symmetric rules; degrees above five fall back
to a tensor Gauss rule on the collapsed square (the substitution
x = s, y = t (1 - s) maps the unit square onto the reference triangle
with Jacobian 1 - s), which stays positive at every order.
"""

import numpy as np

__all__ = ["triangle_rule", "physical_points"]

# orbit generators: (barycentric triple, weight per point)
_RULES = {
    1: [((1 / 3, 1 / 3, 1 / 3), 1.0)],
    2: [
        ((2 / 3, 1 / 6, 1 / 6), 1 / 3),
        ((1 / 6, 2 / 3, 1 / 6), 1 / 3),
        ((1 / 6, 1 / 6, 2 / 3), 1 / 3),
    ],
}


def _orbit3(a, w):
    b = 1.0 - 2.0 * a
    return [((b, a, a), w), ((a, b, a), w), ((a, a, b), w)]


# 6-point rule exact to degree 4
_RULES[4] = _orbit3(0.445948490915965, 0.223381589678011) + _orbit3(
    0.091576213509771, 0.109951743655322
)
# 7-point rule exact to degree 5
_RULES[5] = (
    [((1 / 3, 1 / 3, 1 / 3), 0.225)]
    + _orbit3(0.470142064105115, 0.132394152788506)
    + _orbit3(0.101286507323456, 0.125939180544827)
)
_RULES[3] = _RULES[4]


def _collapsed_rule(degree):
    # s integrates polynomials of degree <= degree + 1 (Jacobian adds one)
    m = (degree + 3) // 2 + 1
    x, w = np.polynomial.legendre.leggauss(m)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    su, tv = np.meshgrid(s, s, indexing="ij")
    wu, wv = np.meshgrid(ws, ws, indexing="ij")
    xx = su.ravel()
    yy = (tv * (1.0 - su)).ravel()
    wq = (wu * wv * (1.0 - su)).ravel()
    lam = np.column_stack([1.0 - xx - yy, xx, yy])
    return lam, wq


def triangle_rule(degree):
    """Barycentric points (n, 3) and weights (n,) exact to ``degree``."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if degree in _RULES:
        rule = _RULES[degree]
        lam = np.array([p for p, _ in rule])
        w = 0.5 * np.array([w for _, w in rule])
    else:
        lam, w = _collapsed_rule(degree)
    return lam, w


def physical_points(lam, tri_pts):
    """Map barycentric points onto triangles: x_tq = sum_j lam_qj V_tj.

    ``tri_pts`` has shape (nt, 3, 2); the result, one matmul of the
    (nq, 3) points with each triangle's corners, has shape (nt, nq, 2).
    """
    return np.matmul(lam, tri_pts)
