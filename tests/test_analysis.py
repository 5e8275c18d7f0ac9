"""Norms, rate indicator, manufactured errors, and the inf-sup probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm.analysis import (
    ConvergenceReport,
    diff_norm,
    field_norm,
    lift_pairs,
    markdown_table,
    rate_table,
)
from biharm.assembly import assemble_load
from biharm.meshing import builtin_domain, refine_hierarchy
from biharm.quadrature import physical_points, triangle_rule
from biharm.solvers import solve_poisson, stiffness_factor
from biharm.spaces import Field, build_space, jacobians

from oracles import (
    evaluate,
    gradient,
    infsup_diagnostic,
    interpolate,
    manufactured_error,
)


@pytest.fixture(scope="module")
def square_meshes():
    return refine_hierarchy(builtin_domain("square")[1], 3)


# -- rate_table ---------------------------------------------------------------


def test_rate_table_exact_geometric():
    rep = rate_table([1, 2, 3], [0.4, 0.1, 0.025])
    assert rep.rates[0] is None
    np.testing.assert_allclose(rep.rates[1:], [2.0, 2.0], rtol=0, atol=1e-13)
    rep = rate_table([1, 2, 3, 4], [1.0, 0.5, 0.25, 0.125])
    np.testing.assert_allclose(rep.rates[1:], [1.0, 1.0, 1.0], rtol=0,
                               atol=1e-13)


def test_rate_table_published_sequence():
    # successive stream-function H1 differences whose rates print as
    # 3.76 and 3.69
    rep = rate_table([3, 4, 5], [7.97e-9, 5.88e-10, 4.56e-11])
    assert round(rep.rates[1], 2) == 3.76
    assert round(rep.rates[2], 2) == 3.69


def test_rate_table_marks_degenerate_cells_absent():
    rep = rate_table([1, 2, 3, 4], [0.4, 0.0, 0.025, 0.01])
    assert rep.rates == [None, None, None, pytest.approx(math.log2(2.5))]
    rep = rate_table([1, 2, 3], [0.4, None, 0.1])
    assert rep.rates == [None, None, None]


def test_rate_table_validation():
    with pytest.raises(ValueError, match="three"):
        rate_table([1, 2], [0.4, 0.1])
    with pytest.raises(ValueError, match="length"):
        rate_table([1, 2, 3], [0.4, 0.1])


@settings(max_examples=60, deadline=None)
@given(
    base=st.floats(min_value=1e-6, max_value=10.0),
    rate=st.floats(min_value=0.1, max_value=5.0),
)
def test_rate_table_recovers_exponent_of_geometric_decay(base, rate):
    diffs = [base * 2.0 ** (-rate * j) for j in range(4)]
    rep = rate_table([1, 2, 3, 4], diffs)
    for r in rep.rates[1:]:
        assert abs(r - rate) < 1e-11


# -- field_norm / diff_norm ---------------------------------------------------


def test_field_norm_exact_linear(square_meshes):
    f = interpolate(build_space(square_meshes[2], 1), lambda x, y: x + y)
    geo = jacobians(square_meshes[2])
    assert abs(field_norm(f, "L2", geo) - math.sqrt(8.0 / 3.0)) < 1e-13
    assert abs(field_norm(f, "H1", geo) - math.sqrt(8.0)) < 1e-13
    assert abs(field_norm(f, "Linf", geo) - 2.0) < 1e-14
    with pytest.raises(ValueError, match="norm"):
        field_norm(f, "H2", geo)


def test_diff_norm_identical_fields(square_meshes):
    f = interpolate(build_space(square_meshes[2], 2),
                    lambda x, y: np.sin(x) * y)
    geo = jacobians(square_meshes[2])
    for norm in ("L2", "H1", "Linf"):
        assert diff_norm(f, f, norm, geo) == 0.0


def test_diff_norm_prolongation_exactness(square_meshes):
    coarse = interpolate(build_space(square_meshes[1], 2), lambda x, y: x)
    fine = interpolate(build_space(square_meshes[3], 2), lambda x, y: x)
    geo = jacobians(square_meshes[3])
    for norm in ("L2", "H1", "Linf"):
        assert diff_norm(fine, coarse, norm, geo) < 1e-13


def test_diff_norm_exact_linear_pair(square_meshes):
    # (x + y) - 2x = y - x has exactly computable norms on the square
    coarse = interpolate(build_space(square_meshes[1], 1), lambda x, y: x + y)
    fine = interpolate(build_space(square_meshes[2], 1), lambda x, y: 2 * x)
    geo = jacobians(square_meshes[2])
    assert abs(diff_norm(fine, coarse, "L2", geo)
               - math.sqrt(8.0 / 3.0)) < 1e-13
    assert abs(diff_norm(fine, coarse, "H1", geo) - math.sqrt(8.0)) < 1e-13
    assert abs(diff_norm(fine, coarse, "Linf", geo) - 2.0) < 1e-13


def _ancestor(mesh, coarse_mesh, t):
    while mesh is not coarse_mesh:
        t, mesh = mesh.parent[t], mesh.coarser
    return t


@pytest.mark.parametrize(
    "coarse_level,coarse_degree,coarse_kind,fine_level,fine_degree,fine_kind",
    [(1, 2, "lagrange", 2, 2, "lagrange"),
     (1, 1, "lagrange_bubble", 3, 1, "lagrange_bubble"),
     (1, 2, "lagrange", 2, 1, "lagrange")],
    ids=["p2-p2", "mini-mini-two-levels", "coarse-p2-fine-p1"])
def test_diff_norm_matches_independent_quadrature(
        square_meshes, coarse_level, coarse_degree, coarse_kind,
        fine_level, fine_degree, fine_kind):
    # the L2 norm and H1 seminorm of the difference are recomputed here
    # by direct per-element quadrature on the finer mesh, evaluating the
    # coarse field in the ancestor triangle of each fine one
    cspace = build_space(square_meshes[coarse_level], coarse_degree,
                         coarse_kind)
    fspace = build_space(square_meshes[fine_level], fine_degree, fine_kind)
    bump = lambda x, y: x * (1 - x**2) * (1 - y**2)
    base = lambda x, y: np.cos(x + y)
    a = interpolate(fspace, lambda x, y: base(x, y) + bump(x, y))
    b = interpolate(cspace, base)
    rng = np.random.default_rng(3)
    for field in (a, b):
        if field.space.kind == "lagrange_bubble":
            nv = len(field.space.mesh.points)
            field.coefficients[nv:] = rng.normal(size=field.space.ndof - nv)

    lam, w = triangle_rule(10)
    fmesh, cmesh = fspace.mesh, cspace.mesh
    l2 = h1 = 0.0
    for t in range(len(fmesh.triangles)):
        ts = np.full(len(lam), t)
        pts = physical_points(lam, fmesh.points[fmesh.triangles[[t]]])[0]
        parent = _ancestor(fmesh, cmesh, t)
        cp = cmesh.points[cmesh.triangles[parent]]
        mat = np.column_stack([cp[1] - cp[0], cp[2] - cp[0]])
        loc = np.linalg.solve(mat, (pts - cp[0]).T).T
        lam_c = np.column_stack([1 - loc.sum(axis=1), loc])
        ps = np.full(len(lam), parent)
        dv = evaluate(a, ts, lam) - evaluate(b, ps, lam_c)
        dg = gradient(a, ts, lam) - gradient(b, ps, lam_c)
        fp = fmesh.points[fmesh.triangles[t]]
        fine_det = abs(np.linalg.det(np.column_stack([fp[1] - fp[0],
                                                      fp[2] - fp[0]])))
        l2 += fine_det * float(w @ dv**2)
        h1 += fine_det * float(w @ np.sum(dg**2, axis=1))
    geo = jacobians(fmesh)
    assert abs(diff_norm(a, b, "L2", geo) - math.sqrt(l2)) < 1e-10
    assert abs(diff_norm(a, b, "H1", geo) - math.sqrt(h1)) < 1e-10


def test_diff_norm_integrates_the_bubble_exactly(square_meshes):
    # a lone bubble is not representable on the finer mesh; its norm
    # must still come out exact (here against the closed-form value)
    cspace = build_space(square_meshes[1], 1, "lagrange_bubble")
    fspace = build_space(square_meshes[3], 1, "lagrange_bubble")
    cf = Field(cspace, 1, np.zeros(cspace.ndof))
    tri = 5
    cf.coefficients[len(square_meshes[1].points) + tri] = 1.0
    area = square_meshes[1].areas()[tri]
    lam, w = triangle_rule(8)
    hand = math.sqrt(2 * area * float(w @ (lam.prod(axis=1)) ** 2))
    zero = Field(fspace, 1, np.zeros(fspace.ndof))
    assert abs(diff_norm(zero, cf, "L2", jacobians(square_meshes[3]))
               - hand) < 1e-15


def test_diff_norm_vector_component_sum(square_meshes):
    cspace = build_space(square_meshes[1], 2)
    fspace = build_space(square_meshes[2], 2)
    g = lambda x, y: x * y
    zero2 = Field(fspace, 2, np.zeros(2 * fspace.ndof))
    gc = interpolate(cspace, g).coefficients
    geo = jacobians(square_meshes[2])
    scalar = diff_norm(Field(fspace, 1, np.zeros(fspace.ndof)),
                       interpolate(cspace, g), "L2", geo)
    both = diff_norm(zero2, Field(cspace, 2, np.concatenate([gc, gc])), "L2",
                     geo)
    assert abs(both - math.sqrt(2.0) * scalar) < 1e-13
    with pytest.raises(ValueError, match="component"):
        diff_norm(zero2, interpolate(cspace, g), "L2", geo)


def test_diff_norm_triangle_inequality(square_meshes):
    rng = np.random.default_rng(11)
    cspace = build_space(square_meshes[1], 2)
    fspace = build_space(square_meshes[2], 2)
    a = Field(fspace, 1, rng.normal(size=fspace.ndof))
    b = Field(cspace, 1, rng.normal(size=cspace.ndof))
    c = Field(fspace, 1, rng.normal(size=fspace.ndof))
    geo = jacobians(square_meshes[2])
    for norm in ("L2", "H1", "Linf"):
        ab, bc, ac = (diff_norm(a, b, norm, geo), diff_norm(c, b, norm, geo),
                      diff_norm(a, c, norm, geo))
        assert ac <= ab + bc + 1e-12


@pytest.mark.parametrize("kind, shared", [("lagrange", True),
                                          ("lagrange_bubble", False)])
def test_lift_pairs_lifts_once_per_space(square_meshes, kind, shared):
    # L2 and H1 share the P_max lift; Linf shares it unless the finer
    # field is Mini, whose Linf space is its own
    rng = np.random.default_rng(7)
    fspace = build_space(square_meshes[2], 1, kind)
    a = Field(fspace, 2, rng.normal(size=2 * fspace.ndof))
    cspace = build_space(square_meshes[1], 1, kind)
    b = Field(cspace, 2, rng.normal(size=2 * cspace.ndof))
    pairs = lift_pairs(a, b, ("H1", "L2", "Linf"))
    assert pairs["H1"] is pairs["L2"]
    assert (pairs["Linf"] is pairs["L2"]) == shared
    fine, coarse = pairs["L2"]
    assert fine.space.kind == coarse.space.kind == "lagrange"
    assert fine.space.degree == (1 if shared else 3)
    assert pairs["Linf"][0] is a and pairs["Linf"][1].space is fspace
    geo = jacobians(square_meshes[2])
    for norm, (fine, coarse) in pairs.items():
        assert (diff_norm(fine, coarse, norm, geo)
                == diff_norm(a, b, norm, geo))


def test_diff_norm_rejects_unrelated_meshes(square_meshes):
    other = refine_hierarchy(builtin_domain("square")[1], 1)[1]
    f1 = interpolate(build_space(square_meshes[1], 1), lambda x, y: x)
    f2 = interpolate(build_space(other, 1), lambda x, y: x)
    with pytest.raises(ValueError, match="not a descendant"):
        diff_norm(f1, f2, "L2", jacobians(other))


@pytest.mark.parametrize("degrees", [(2, 2), (1, 2), (2, 1)])
def test_diff_norm_rejects_a_pair_out_of_hierarchy_order(square_meshes,
                                                         degrees):
    # the coarser field first: lifting the finer one fails, whichever
    # of the two spaces the norm is taken in
    coarse = interpolate(build_space(square_meshes[1], degrees[0]),
                         lambda x, y: x)
    fine = interpolate(build_space(square_meshes[2], degrees[1]),
                       lambda x, y: x)
    for norm in ("L2", "H1", "Linf"):
        with pytest.raises(ValueError, match="not a descendant"):
            diff_norm(coarse, fine, norm, jacobians(square_meshes[1]))


def test_lift_pairs_lifts_nothing_for_one_shared_space(square_meshes):
    # two Mini fields in one space: that space holds both, so L2 and H1
    # are taken there, not in P3 as for a Mini pair across levels
    space = build_space(square_meshes[2], 1, "lagrange_bubble")
    rng = np.random.default_rng(3)
    a = Field(space, 2, rng.normal(size=2 * space.ndof))
    b = Field(space, 2, rng.normal(size=2 * space.ndof))
    pairs = lift_pairs(a, b, ("H1", "L2", "Linf"))
    assert all(pair[0] is a and pair[1] is b for pair in pairs.values())
    geo = jacobians(square_meshes[2])
    delta = Field(space, 2, a.coefficients - b.coefficients)
    for norm in ("H1", "L2", "Linf"):
        assert diff_norm(a, b, norm, geo) == field_norm(delta, norm, geo)


# -- manufactured_error -------------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_manufactured_error_interpolant_of_polynomial(square_meshes, degree):
    exact = lambda x, y: (x + 0.5 * y) ** degree
    gx = lambda x, y: degree * (x + 0.5 * y) ** (degree - 1) * np.ones_like(x)
    gy = lambda x, y: 0.5 * degree * (x + 0.5 * y) ** (degree - 1)
    f = interpolate(build_space(square_meshes[2], degree), exact)
    assert manufactured_error(f, exact, "L2") < 1e-12
    assert manufactured_error(f, exact, "Linf") < 1e-12
    assert manufactured_error(f, exact, "H1",
                              exact_grad=lambda x, y: (gx(x, y), gy(x, y))) < 1e-11


def test_manufactured_error_needs_gradient_for_h1(square_meshes):
    f = interpolate(build_space(square_meshes[1], 1), lambda x, y: x)
    with pytest.raises(ValueError, match="gradient"):
        manufactured_error(f, lambda x, y: x, "H1")


def test_poisson_manufactured_rate_three(square_meshes):
    # -lap w* = f with w* = (1-x^2)(1-y^2); P2 error decays at rate 3
    # in L2 and tracks the interpolation error closely
    f = lambda x, y: 2 * (1 - x**2) + 2 * (1 - y**2)
    wstar = lambda x, y: (1 - x**2) * (1 - y**2)
    errs, interps = [], []
    for mesh in square_meshes[1:]:
        space = build_space(mesh, 2)
        geo = jacobians(mesh)
        w = solve_poisson(space, assemble_load(space, f, geo),
                          stiffness_factor(space, geo))
        errs.append(manufactured_error(w, wstar, "L2"))
        interps.append(manufactured_error(interpolate(space, wstar), wstar,
                                          "L2"))
    rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(r > 2.7 for r in rates)
    for e, i in zip(errs, interps):
        assert 0.8 < e / i < 1.2


# -- infsup_diagnostic --------------------------------------------------------


def test_infsup_taylor_hood_stable(square_meshes):
    vals = [infsup_diagnostic(build_space(m, 2), build_space(m, 1))
            for m in square_meshes[1:]]
    assert all(v >= 0.2 for v in vals)
    for prev, cur in zip(vals, vals[1:]):
        assert cur >= 0.9 * prev


def test_infsup_mini_stable(square_meshes):
    vals = [infsup_diagnostic(build_space(m, 1, "lagrange_bubble"),
                              build_space(m, 1))
            for m in square_meshes[1:]]
    assert all(v > 0.2 for v in vals)
    for prev, cur in zip(vals, vals[1:]):
        assert cur >= 0.9 * prev


def test_infsup_equal_order_pair_degrades(square_meshes):
    # P1/P1 without the bubble is unstable: the constant sinks with
    # refinement instead of staying bounded below
    vals = [infsup_diagnostic(build_space(m, 1), build_space(m, 1))
            for m in square_meshes[1:]]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.2 * vals[0]


def test_infsup_rejects_large_problems():
    mesh = refine_hierarchy(builtin_domain("square")[1], 5)[-1]
    with pytest.raises(ValueError, match="large"):
        infsup_diagnostic(build_space(mesh, 2), build_space(mesh, 1))


def test_markdown_table_layout():
    reports = {
        0.5: ConvergenceReport([1, 2, 3], [0.4, 0.1, 0.025],
                               [None, 2.0, 2.0]),
        0.1: ConvergenceReport([1, 2, 3], [0.8, 0.2, 0.05],
                               [None, 2.0, 2.0]),
    }
    text = markdown_table(reports, "phi in H1")
    lines = text.strip().split("\n")
    assert lines[0] == "### phi in H1"
    assert lines[2].startswith("| j |")
    assert lines[2].count("|") == 6  # level column + 2 kappa column pairs
    row1 = [c.strip() for c in lines[4].split("|")[1:-1]]
    assert row1 == ["1", "4.00000e-01", "--", "8.00000e-01", "--"]
    row2 = [c.strip() for c in lines[5].split("|")[1:-1]]
    assert row2 == ["2", "1.00000e-01", "2.00", "2.00000e-01", "2.00"]
