"""Load and force specs, explicit force pairs, and the psp Poisson solve for w."""

import numpy as np
import pytest

from biharm.assembly import assemble_load, assemble_stiffness
from biharm.cli import parse_F_spec, parse_f_spec
from biharm.meshing import builtin_domain, refine_hierarchy
from biharm.analysis import field_norm
from biharm.solvers import (run_sp, solve_poisson, stiffness_factor,
                            validate_curl)
from biharm.spaces import Field, build_space, jacobians

from oracles import manufactured_error

X = np.array([0.3, -0.7, 0.05])
Y = np.array([0.5, 0.2, -0.9])


def fzero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def unit_load():
    return parse_f_spec("const:1")


# -- force specs for f = const ------------------------------------------------


def test_integral_x_preset():
    F1, F2 = parse_F_spec("const:1", "int_x")
    np.testing.assert_allclose(F1(X, Y), 0.0, atol=0)
    np.testing.assert_allclose(F2(X, Y), X, atol=0)


def test_integral_y_preset():
    F1, F2 = parse_F_spec("const:1", "int_y")
    np.testing.assert_allclose(F1(X, Y), -Y, atol=0)
    np.testing.assert_allclose(F2(X, Y), 0.0, atol=0)


def test_argument_validation():
    # bad specs in a config are covered by test_cli; these reach the parser
    with pytest.raises(ValueError, match="force spec 'int_x:2'"):
        parse_F_spec("const:1", "int_x:2")
    with pytest.raises(ValueError, match="force spec 'blend:0.5'"):
        parse_F_spec("const:1", "blend:0.5")
    with pytest.raises(ValueError, match="'const:abc' needs a number"):
        parse_F_spec("const:abc", "int_x")


# -- explicit force pairs into run_sp -----------------------------------------


def test_custom_mode_accepts_explicit_force(unit_load):
    # a caller-built pair goes straight into run_sp and matches the spec
    meshes = refine_hierarchy(builtin_domain("lshape")[1], 2)
    explicit = (lambda x, y: -np.asarray(y, dtype=float), fzero)
    rec_a = run_sp(meshes, unit_load, explicit, 2)[2]
    rec_b = run_sp(meshes, unit_load, parse_F_spec("const:1", "int_y"), 2)[2]
    for name in ("u", "p", "phi"):
        assert np.array_equal(getattr(rec_a, name).coefficients,
                              getattr(rec_b, name).coefficients)


def test_polynomial_load_with_supplied_antiderivatives():
    # f = 6xy with G = 3x^2 y (dG/dx = f) and H = 3xy^2 (dH/dy = f):
    # the blend (-eta H, (1 - eta) G) passes the curl check
    f = lambda x, y: 6.0 * x * y
    F = (lambda x, y: -0.25 * 3.0 * x * y**2,
         lambda x, y: 0.75 * 3.0 * x**2 * y)
    mesh = refine_hierarchy(builtin_domain("square")[1], 1)[1]
    assert validate_curl(mesh, f, F) < 1e-8 * 7.0


def test_inconsistent_antiderivative_rejected(unit_load):
    meshes = refine_hierarchy(builtin_domain("square")[1], 1)
    with pytest.raises(ValueError, match="curl"):
        run_sp(meshes, unit_load,
               (fzero, lambda x, y: 2 * np.asarray(x, float)), 2)


def test_anchor_independence_of_velocity(unit_load):
    # anchored forces differ by a gradient; the discrete velocities
    # coincide and the pressures shift by the (linear) potential
    meshes = refine_hierarchy(builtin_domain("square")[1], 2)
    force_a = (fzero, lambda x, y: np.asarray(x, float))
    force_b = (fzero, lambda x, y: np.asarray(x, float) - 0.5)
    rec_a = run_sp(meshes, unit_load, force_a, 2)[-1]
    rec_b = run_sp(meshes, unit_load, force_b, 2)[-1]
    du = rec_a.u.coefficients - rec_b.u.coefficients
    assert np.max(np.abs(du)) < 1e-9
    assert field_norm(Field(rec_a.u.space, 2, du), "H1",
                      jacobians(rec_a.u.space.mesh)) < 1e-9
    # F_b - F_a = (0, -1/2) = grad(-y/2); mean of y on the square is 0
    shift = -0.5 * rec_a.p.space.dof_coords[:, 1]
    dp = rec_b.p.coefficients - rec_a.p.coefficients
    assert np.max(np.abs(dp - shift)) < 1e-9


# -- the Poisson solve for w (psp's discrete curl force) ----------------------


def _solve_w(space, f):
    geo = jacobians(space.mesh)
    return solve_poisson(space, assemble_load(space, f, geo),
                         stiffness_factor(space, geo))


def test_curl_w_zero_load_gives_zero():
    mesh = refine_hierarchy(builtin_domain("square")[1], 1)[-1]
    w = _solve_w(build_space(mesh, 2), fzero)
    assert np.max(np.abs(w.coefficients)) == 0.0


def test_curl_w_manufactured_convergence():
    # -lap w* = f with w* = (1-x^2)(1-y^2): the w-solve converges at the
    # P2 Lagrange rate (L2 errors drop ~8x per level)
    f = lambda x, y: 2 * (1 - x**2) + 2 * (1 - y**2)
    wstar = lambda x, y: (1 - x**2) * (1 - y**2)
    meshes = refine_hierarchy(builtin_domain("square")[1], 3)
    errs = [manufactured_error(_solve_w(build_space(m, 2), f), wstar, "L2")
            for m in meshes[1:]]
    assert errs[0] / errs[1] > 6.0
    assert errs[1] / errs[2] > 6.0


def test_curl_w_unit_load_on_lshape(unit_load):
    # w for f=1: zero trace, positive peak, and exactly equivariant
    # under the L-shape's reflection (x, y) -> (-y, -x)
    mesh = refine_hierarchy(builtin_domain("lshape")[1], 2)[-1]
    space = build_space(mesh, 2)
    w = _solve_w(space, unit_load)
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
    mesh = refine_hierarchy(builtin_domain("lshape")[1], 2)[-1]
    space = build_space(mesh, 2)
    geo = jacobians(space.mesh)
    load = assemble_load(space, unit_load, geo)
    w = _solve_w(space, unit_load)
    resid = assemble_stiffness(space, geo) @ w.coefficients - load
    interior = np.setdiff1d(np.arange(space.ndof), space.boundary_dofs)
    assert np.linalg.norm(resid[interior]) <= 1e-9 * np.linalg.norm(load)


# -- CLI spec strings ---------------------------------------------------------


def test_parse_f_spec_constant():
    f = parse_f_spec("const:2.5")
    np.testing.assert_allclose(f(X, Y), 2.5)
    np.testing.assert_allclose(parse_f_spec("const:")(X, Y), 1.0)
    with pytest.raises(ValueError, match="load spec 'sin:1'"):
        parse_f_spec("sin:1")


def test_parse_force_specs():
    assert parse_F_spec("const:1", "curl_w") is None
    with pytest.raises(ValueError, match="force spec"):
        parse_F_spec("const:1", "int_z")
    with pytest.raises(ValueError, match="load spec"):
        parse_F_spec("poly:1", "int_x")


def test_parse_force_scales_with_constant():
    F1, F2 = parse_F_spec("const:3", "int_x")
    np.testing.assert_allclose(F2(X, Y), 3 * X, atol=1e-15)
    np.testing.assert_allclose(parse_f_spec("const:3")(X, Y), 3.0)
    F1, F2 = parse_F_spec("const:-2", "int_y")
    np.testing.assert_allclose(F1(X, Y), 2 * Y, atol=1e-15)
    np.testing.assert_allclose(F2(X, Y), 0.0, atol=0)
