"""Analytic force construction and the discrete-curl alternative."""

import math

import numpy as np
import pytest

from biharm.analysis import manufactured_error
from biharm.assembly import assemble_load, assemble_stiffness
from biharm.meshing import builtin_domain, refine_hierarchy
from biharm.solvers import compare_runs, run_sp
from biharm.sources import (
    AnalyticSource,
    build_F_curl_w,
    build_F_integral,
    constant_load,
    parse_F_spec,
    parse_f_spec,
)
from biharm.spaces import build_space

X = np.array([0.3, -0.7, 0.05])
Y = np.array([0.5, 0.2, -0.9])


@pytest.fixture(scope="module")
def unit_load():
    return constant_load(1.0)


# -- build_F_integral ---------------------------------------------------------


def test_integral_x_preset(unit_load):
    f, gx, _ = unit_load
    src = build_F_integral("square", f, "integral_x", antiderivative_x=gx)
    assert src.mode == "integral_x" and src.c1 == 0.0
    np.testing.assert_allclose(src.F[0](X, Y), 0.0, atol=0)
    np.testing.assert_allclose(src.F[1](X, Y), X, atol=0)


def test_integral_y_preset(unit_load):
    f, _, gy = unit_load
    src = build_F_integral("square", f, "integral_y", antiderivative_y=gy)
    np.testing.assert_allclose(src.F[0](X, Y), -Y, atol=0)
    np.testing.assert_allclose(src.F[1](X, Y), 0.0, atol=0)


def test_blend_half_preset(unit_load):
    f, gx, gy = unit_load
    src = build_F_integral("square", f, "blend", antiderivative_x=gx,
                           antiderivative_y=gy, eta=0.5)
    np.testing.assert_allclose(src.F[0](X, Y), -Y / 2, atol=0)
    np.testing.assert_allclose(src.F[1](X, Y), X / 2, atol=0)


def test_anchors_shift_the_running_integrals(unit_load):
    f, gx, gy = unit_load
    src = build_F_integral("square", f, "integral_x", antiderivative_x=gx,
                           c1=0.25)
    np.testing.assert_allclose(src.F[1](X, Y), X - 0.25, atol=0)
    src = build_F_integral("square", f, "integral_y", antiderivative_y=gy,
                           c2=-0.5)
    np.testing.assert_allclose(src.F[0](X, Y), -(Y + 0.5), atol=0)


def test_custom_mode_accepts_explicit_force(unit_load):
    f = unit_load[0]
    src = build_F_integral("lshape", f, "custom",
                           F=(lambda x, y: -np.asarray(y, float),
                              lambda x, y: np.zeros_like(np.asarray(x, float))))
    assert isinstance(src, AnalyticSource) and src.mode == "custom"


def test_polynomial_load_with_supplied_antiderivatives():
    f = lambda x, y: 6.0 * x * y
    gx = lambda x, y: 3.0 * x**2 * y        # d/dx = 6xy
    gy = lambda x, y: 3.0 * x * y**2        # d/dy = 6xy
    src = build_F_integral("square", f, "blend", antiderivative_x=gx,
                           antiderivative_y=gy, eta=0.25)
    np.testing.assert_allclose(src.F[0](X, Y), -0.25 * 3 * X * Y**2)
    np.testing.assert_allclose(src.F[1](X, Y), 0.75 * 3 * X**2 * Y)


def test_inconsistent_antiderivative_rejected(unit_load):
    f = unit_load[0]
    with pytest.raises(ValueError, match="curl"):
        build_F_integral("square", f, "integral_x",
                         antiderivative_x=lambda x, y: 2 * np.asarray(x, float))


def test_argument_validation(unit_load):
    f, gx, gy = unit_load
    with pytest.raises(ValueError, match="mode"):
        build_F_integral("square", f, "diagonal", antiderivative_x=gx)
    with pytest.raises(ValueError, match="antiderivative"):
        build_F_integral("square", f, "integral_x")
    with pytest.raises(ValueError, match="antiderivative"):
        build_F_integral("square", f, "blend", antiderivative_x=gx)
    with pytest.raises(ValueError, match="weight"):
        build_F_integral("square", f, "blend", antiderivative_x=gx,
                         antiderivative_y=gy, eta=1.5)
    with pytest.raises(ValueError, match="force"):
        build_F_integral("square", f, "custom")


def test_anchor_independence_of_velocity(unit_load):
    # anchored forces differ by a gradient; the discrete velocities
    # coincide and the pressures shift by the (linear) potential
    f, gx, _ = unit_load
    meshes = refine_hierarchy(builtin_domain("square")[1], 2)
    src_a = build_F_integral("square", f, "integral_x", antiderivative_x=gx)
    src_b = build_F_integral("square", f, "integral_x", antiderivative_x=gx,
                             c1=0.5)
    run_a = run_sp(meshes, f, src_a.F, 2)
    run_b = run_sp(meshes, f, src_b.F, 2)
    rec_a, rec_b = run_a.records[-1], run_b.records[-1]
    assert np.max(np.abs(rec_a.u.coefficients - rec_b.u.coefficients)) < 1e-9
    assert compare_runs(run_a, run_b, 2)["u_h1"] < 1e-9
    # F_b - F_a = (0, -1/2) = grad(-y/2); mean of y on the square is 0
    shift = -0.5 * rec_a.p.space.dof_coords[:, 1]
    dp = rec_b.p.coefficients - rec_a.p.coefficients
    assert np.max(np.abs(dp - shift)) < 1e-9


# -- build_F_curl_w -----------------------------------------------------------


def test_curl_w_zero_load_gives_zero(unit_load):
    domain, mesh0 = builtin_domain("square")
    mesh = refine_hierarchy(mesh0, 1)[-1]
    w = build_F_curl_w(domain, lambda x, y: np.zeros_like(np.asarray(x, float)),
                       build_space(mesh, 2))
    assert np.max(np.abs(w.coefficients)) == 0.0


def test_curl_w_domain_mismatch_rejected(unit_load):
    mesh = builtin_domain("square")[1]
    with pytest.raises(ValueError, match="domain"):
        build_F_curl_w("lshape", unit_load[0], build_space(mesh, 1))


def test_curl_w_manufactured_convergence():
    # -lap w* = f with w* = (1-x^2)(1-y^2): the w-solve converges at the
    # P2 Lagrange rate (L2 errors drop ~8x per level)
    f = lambda x, y: 2 * (1 - x**2) + 2 * (1 - y**2)
    wstar = lambda x, y: (1 - x**2) * (1 - y**2)
    meshes = refine_hierarchy(builtin_domain("square")[1], 3)
    errs = [manufactured_error(
        build_F_curl_w("square", f, build_space(m, 2)), wstar, "L2")
        for m in meshes[1:]]
    assert errs[0] / errs[1] > 6.0
    assert errs[1] / errs[2] > 6.0


def test_curl_w_unit_load_on_lshape(unit_load):
    # w for f=1: zero trace, positive peak, and exactly equivariant
    # under the L-shape's reflection (x, y) -> (-y, -x)
    domain, mesh0 = builtin_domain("lshape")
    mesh = refine_hierarchy(mesh0, 2)[-1]
    space = build_space(mesh, 2)
    w = build_F_curl_w(domain, unit_load[0], space)
    assert np.all(w.coefficients[space.boundary_dofs] == 0.0)
    assert w.coefficients.max() > 0.1
    coords = space.dof_coords
    mapped = np.column_stack([-coords[:, 1], -coords[:, 0]])
    direct = np.lexsort((coords[:, 1], coords[:, 0]))
    image = np.lexsort((mapped[:, 1], mapped[:, 0]))
    np.testing.assert_allclose(coords[direct], mapped[image], atol=1e-15)
    gap = np.max(np.abs(w.coefficients[direct] - w.coefficients[image]))
    assert gap < 1e-12


def test_curl_w_galerkin_residual_orthogonality(unit_load):
    # interior rows of the stiffness residual vanish: the discrete curl
    # force differs from the analytic one only orthogonally to the space
    domain, mesh0 = builtin_domain("lshape")
    mesh = refine_hierarchy(mesh0, 2)[-1]
    space = build_space(mesh, 2)
    load = assemble_load(space, unit_load[0])
    w = build_F_curl_w(domain, unit_load[0], space)
    resid = assemble_stiffness(space) @ w.coefficients - load
    interior = np.setdiff1d(np.arange(space.ndof), space.boundary_dofs)
    assert np.linalg.norm(resid[interior]) <= 1e-9 * np.linalg.norm(load)


# -- CLI spec strings ---------------------------------------------------------


def test_parse_f_spec_constant():
    f = parse_f_spec("const:2.5")
    np.testing.assert_allclose(f(X, Y), 2.5)
    np.testing.assert_allclose(parse_f_spec("const:")(X, Y), 1.0)
    with pytest.raises(ValueError, match="load spec"):
        parse_f_spec("sin:1")


def test_parse_force_specs():
    src = parse_F_spec("square", "const:1", "int_x")
    np.testing.assert_allclose(src.F[1](X, Y), X, atol=0)
    src = parse_F_spec("square", "const:1", "int_y")
    np.testing.assert_allclose(src.F[0](X, Y), -Y, atol=0)
    src = parse_F_spec("square", "const:1", "blend:0.5")
    np.testing.assert_allclose(src.F[1](X, Y), X / 2, atol=0)
    assert src.eta == 0.5
    assert parse_F_spec("square", "const:1", "curl_w") is None
    with pytest.raises(ValueError, match="force spec"):
        parse_F_spec("square", "const:1", "int_z")
    with pytest.raises(ValueError, match="load spec"):
        parse_F_spec("square", "poly:1", "int_x")


def test_parse_force_scales_with_constant():
    src = parse_F_spec("square", "const:3", "int_x")
    np.testing.assert_allclose(src.F[1](X, Y), 3 * X, atol=1e-15)
    np.testing.assert_allclose(src.f(X, Y), 3.0)
