"""Assembly of stiffness/divergence/load/curl forms against hand oracles.

The P1 element stiffness on the unit right triangle is integrated by
hand; the divergence and curl right-hand sides are checked against
quadrature identities and polynomial fields that make them vanish.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sps

from biharm import assembly as asm
from biharm import kernels
from biharm import meshing as msh
from biharm import spaces as sp
from biharm.quadrature import triangle_rule

from oracles import (
    assemble_vector_stiffness,
    interpolate,
    make_domain,
    one_shot_csr,
    stiffness_of_order,
)


def vector_field(space, fx, fy):
    return sp.Field(space, 2, np.concatenate(
        [interpolate(space, fx).coefficients,
         interpolate(space, fy).coefficients]))


@pytest.fixture(scope="module")
def square2():
    _, m0 = msh.builtin_domain("square")
    return msh.refine_hierarchy(m0, 2)[2]


# -- stiffness ----------------------------------------------------------------


def test_p1_stiffness_unit_right_triangle():
    _, mesh = make_domain([(0, 0), (1, 0), (0, 1)], graded_corners=set())
    a = asm.assemble_stiffness(sp.build_space(mesh, 1)).toarray()
    expect = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    assert np.max(np.abs(a - expect)) == 0.0


@pytest.mark.parametrize("degree,kind", [(1, "lagrange"), (2, "lagrange"),
                                         (3, "lagrange"), (1, "lagrange_bubble")])
def test_stiffness_symmetric_with_constant_kernel(square2, degree, kind):
    space = sp.build_space(square2, degree, kind)
    a = asm.assemble_stiffness(space)
    assert abs(a - a.T).max() < 1e-13 * abs(a).max()
    ones = np.ones(space.ndof)
    if kind == "lagrange_bubble":
        ones[len(square2.points):] = 0.0  # constants live in the P1 part
    assert np.max(np.abs(a @ ones)) < 1e-12


def test_stiffness_spd_after_elimination(square2):
    space = sp.build_space(square2, 2)
    a = asm.assemble_stiffness(space)
    a2 = asm.apply_dirichlet(a, space.boundary_dofs)
    evals = scipy.linalg.eigvalsh(a2.toarray())
    assert evals.min() > 0.0


def test_stiffness_quadrature_order_robust(square2):
    space = sp.build_space(square2, 3)
    a = asm.assemble_stiffness(space)
    b = stiffness_of_order(space, 2 * (3 - 1) + 2)
    assert abs(a - b).max() < 1e-12


def test_vector_stiffness_blocks(square2):
    space = sp.build_space(square2, 2)
    a = asm.assemble_stiffness(space)
    av = assemble_vector_stiffness(space)
    n = space.ndof
    assert av.shape == (2 * n, 2 * n)
    assert abs(av[:n, :n] - a).max() == 0.0
    assert abs(av[n:, n:] - a).max() == 0.0
    assert abs(av[:n, n:]).max() == 0.0 if av[:n, n:].nnz else True


# -- int32 triplets ------------------------------------------------------------


def _stiffness(degree, kind):
    return lambda mesh: asm.assemble_stiffness(
        sp.build_space(mesh, degree, kind))


def _mass(degree, kind):
    return lambda mesh: asm.assemble_mass(
        sp.build_space(mesh, degree, kind))


def _divergence(vdegree, vkind):
    return lambda mesh: asm.assemble_divergence(
        sp.build_space(mesh, vdegree, vkind), sp.build_space(mesh, 1))


SCATTERED = {
    **{f"stiffness-{d}-{k}": _stiffness(d, k) for d, k in
       [(1, "lagrange"), (2, "lagrange"), (3, "lagrange"), (1, "lagrange_bubble")]},
    **{f"mass-{d}-{k}": _mass(d, k) for d, k in
       [(1, "lagrange"), (2, "lagrange"), (3, "lagrange"), (1, "lagrange_bubble")]},
    "divergence-mini": _divergence(1, "lagrange_bubble"),
    "divergence-p2p1": _divergence(2, "lagrange"),
}


def _record_blocks(monkeypatch):
    """Element blocks and index maps of every _scatter call, in order."""
    blocks = []
    scatter = asm._scatter

    def recording_scatter(element_block, rows, cols, shape):
        local = element_block()
        blocks.append((local, rows, cols, shape))
        return scatter(lambda: local, rows, cols, shape)

    monkeypatch.setattr(asm, "_scatter", recording_scatter)
    return blocks


def _nblocks(shape):
    # a one-row tail joins the block before it
    return len(list(sp.blocks(shape[0])))


@pytest.mark.parametrize("name", sorted(SCATTERED))
def test_scatter_int32_triplets_match_int64_build(square2, monkeypatch, name):
    blocks = _record_blocks(monkeypatch)
    index_dtypes = []
    csr_matrix = sps.csr_matrix

    def recording_csr(arg, **kwargs):
        index_dtypes.append((arg[1].dtype, arg[2].dtype))
        return csr_matrix(arg, **kwargs)

    monkeypatch.setattr(sps, "csr_matrix", recording_csr)
    monkeypatch.setattr(sp, "BLOCK_ROWS", 4)
    got = SCATTERED[name](square2)
    (local, rows, cols, shape), = blocks
    # int32 triplets in every row block
    assert _nblocks(shape) >= 3
    assert index_dtypes == [(np.int32, np.int32)] * _nblocks(shape)
    monkeypatch.undo()
    assert got.indices.dtype == got.indptr.dtype == np.int32

    ref = one_shot_csr(local, rows, cols, shape, np.int64)
    got.sort_indices()
    ref.sort_indices()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr


@pytest.fixture(scope="module")
def lshape3():
    _, l0 = msh.builtin_domain("lshape")
    return msh.refine_hierarchy(l0, 3, 0.2)[3]


@pytest.mark.parametrize("name", sorted(SCATTERED))
def test_scatter_row_blocks_match_one_shot_build(lshape3, monkeypatch, name):
    blocks = _record_blocks(monkeypatch)
    monkeypatch.setattr(sp, "BLOCK_ROWS", 64)
    got = SCATTERED[name](lshape3)
    (local, rows, cols, shape), = blocks
    assert _nblocks(shape) >= 3
    ref = one_shot_csr(local, rows, cols, shape)
    # same sort and duplicate sums per row: equal to the bit, no slack
    for attr in ("data", "indices", "indptr"):
        mine, theirs = getattr(got, attr), getattr(ref, attr)
        assert mine.dtype == theirs.dtype, attr
        assert mine.tobytes() == theirs.tobytes(), attr


# -- divergence ----------------------------------------------------------------


def test_divergence_row_action_is_minus_pressure_load(square2):
    vspace = sp.build_space(square2, 2)
    pspace = sp.build_space(square2, 1)
    b = asm.assemble_divergence(vspace, pspace)
    v = vector_field(vspace, lambda x, y: x, lambda x, y: 0.0)
    expect = -asm.assemble_load(pspace, lambda x, y: 1.0)
    assert np.allclose(b @ v.coefficients, expect, atol=1e-13)


def test_divergence_free_fields_in_kernel(square2):
    vspace = sp.build_space(square2, 2)
    pspace = sp.build_space(square2, 1)
    b = asm.assemble_divergence(vspace, pspace)
    rigid = vector_field(vspace, lambda x, y: y, lambda x, y: -x)
    assert np.max(np.abs(b @ rigid.coefficients)) < 1e-12
    # curl of a cubic is a quadratic divergence-free field
    curl3 = vector_field(
        vspace, lambda x, y: 3 * y**2, lambda x, y: -3 * x**2
    )
    assert np.max(np.abs(b @ curl3.coefficients)) < 1e-12


def test_divergence_validates_spaces(square2):
    v1 = sp.build_space(square2, 1)
    p2 = sp.build_space(square2, 2)
    with pytest.raises(ValueError, match="degree"):
        asm.assemble_divergence(v1, p2)
    _, other = msh.builtin_domain("lshape")
    with pytest.raises(ValueError, match="mesh"):
        asm.assemble_divergence(p2, sp.build_space(other, 1))


# -- loads ----------------------------------------------------------------------


@pytest.mark.parametrize("assembler,components,kind", [
    (asm.assemble_stokes_rhs_discrete_curl, 1, "scalar"),
    (asm.assemble_curl_rhs, 2, "vector")])
def test_field_loads_validate_their_field(square2, assembler, components,
                                          kind):
    space = sp.build_space(square2, 1)
    _, other = msh.builtin_domain("lshape")
    elsewhere = sp.build_space(other, 1)
    with pytest.raises(ValueError, match="different mesh"):
        assembler(space, sp.Field(elsewhere, components,
                                  np.zeros(components * elsewhere.ndof)))
    wrong = 3 - components
    with pytest.raises(ValueError, match=f"must be a {kind} field"):
        assembler(space, sp.Field(space, wrong, np.zeros(wrong * space.ndof)))


def test_load_zero_and_area(square2):
    space = sp.build_space(square2, 1)
    assert np.all(asm.assemble_load(space, lambda x, y: 0.0) == 0.0)
    b = asm.assemble_load(space, lambda x, y: 1.0)
    assert b.sum() == pytest.approx(4.0, rel=1e-13)  # area of (-1,1)^2


def test_load_f1_p1_is_patch_area_over_three(square2):
    space = sp.build_space(square2, 1)
    b = asm.assemble_load(space, lambda x, y: 1.0)
    areas = 0.5 * square2.det
    patch = np.zeros(space.ndof)
    np.add.at(patch, square2.triangles.ravel(), np.repeat(areas, 3))
    assert np.allclose(b, patch / 3.0, atol=1e-14)


@pytest.mark.parametrize("domain, kappa", [("lshape", 0.2),
                                           ("convex_11pi12", 0.3)])
@pytest.mark.parametrize("degree", [1, 2])
def test_mass_row_sums_are_the_load_of_one(domain, kappa, degree):
    # the Lagrange basis sums to 1, so M 1 = (int phi_i)_i, the vector
    # the Stokes solve takes the pressure mean against
    _, m0 = msh.builtin_domain(domain)
    mesh = msh.refine_hierarchy(m0, 3, kappa)[3]
    space = sp.build_space(mesh, degree)
    rows = asm.assemble_mass(space) @ np.ones(space.ndof)
    load = asm.assemble_load(space, lambda x, y: 1.0)
    assert np.max(np.abs(rows - load)) <= 1e-14 * np.max(np.abs(load))


def test_stokes_rhs_analytic_blocks(square2):
    vspace = sp.build_space(square2, 2)
    n = vspace.ndof
    rhs = asm.assemble_stokes_rhs_analytic(
        vspace, (lambda x, y: 0.0, lambda x, y: x))
    assert np.all(rhs[:n] == 0.0)
    assert np.allclose(rhs[n:], asm.assemble_load(vspace, lambda x, y: x),
                       atol=0)
    rhs2 = asm.assemble_stokes_rhs_analytic(
        vspace, (lambda x, y: -y, lambda x, y: 0.0))
    assert np.allclose(rhs2[:n],
                       asm.assemble_load(vspace, lambda x, y: -y), atol=0)
    assert np.all(rhs2[n:] == 0.0)


# -- curl right-hand sides --------------------------------------------------------


def test_discrete_curl_matches_analytic(square2):
    vspace = sp.build_space(square2, 2)
    w = interpolate(vspace, lambda x, y: x)
    got = asm.assemble_stokes_rhs_discrete_curl(vspace, w)
    expect = asm.assemble_stokes_rhs_analytic(
        vspace, (lambda x, y: 0.0, lambda x, y: -1.0))
    assert np.allclose(got, expect, atol=1e-13)
    w2 = interpolate(vspace, lambda x, y: x**2 + y**2)
    got2 = asm.assemble_stokes_rhs_discrete_curl(vspace, w2)
    expect2 = asm.assemble_stokes_rhs_analytic(
        vspace, (lambda x, y: 2 * y, lambda x, y: -2 * x))
    assert np.allclose(got2, expect2, atol=1e-12)
    zero = sp.Field(vspace, 1, np.zeros(vspace.ndof))
    assert np.all(asm.assemble_stokes_rhs_discrete_curl(vspace, zero)
                  == 0.0)


def test_curl_rhs_constant_and_gradient_fields(square2):
    space = sp.build_space(square2, 1)
    vspace = sp.build_space(square2, 2)
    u = vector_field(vspace, lambda x, y: y, lambda x, y: -x)
    got = asm.assemble_curl_rhs(space, u)
    load1 = asm.assemble_load(space, lambda x, y: 1.0)
    assert np.allclose(got, -2.0 * load1, atol=1e-13)
    grad = vector_field(vspace, lambda x, y: 2 * x, lambda x, y: 2 * y)
    assert np.max(np.abs(asm.assemble_curl_rhs(space, grad))) < 1e-12
    assert np.all(asm.assemble_curl_rhs(
        space, sp.Field(vspace, 2, np.zeros(2 * vspace.ndof))) == 0.0)


def test_curl_integration_by_parts(square2):
    """(curl u, psi) = (u, curl psi) for u with zero boundary trace."""
    vspace = sp.build_space(square2, 2)
    space = sp.build_space(square2, 2)
    rng = np.random.default_rng(42)
    coeffs = rng.normal(size=2 * vspace.ndof)
    coeffs[asm.vector_boundary_dofs(vspace)] = 0.0
    u = sp.Field(vspace, 2, coeffs)
    lhs = asm.assemble_curl_rhs(space, u)

    lam, w = triangle_rule(2 * vspace.degree)
    vals_u = sp.basis_values(vspace, lam)
    gref = sp.basis_ref_grads(space, lam)
    det, inv_t = square2.det, square2.inv_t
    gphys = np.einsum("tde,qle->tqld", inv_t, gref)
    ed_v, ed_s = vspace.element_dofs, space.element_dofs
    u1q = np.einsum("tl,ql->tq", u.component(0)[ed_v], vals_u)
    u2q = np.einsum("tl,ql->tq", u.component(1)[ed_v], vals_u)
    local = np.einsum(
        "q,t,tqi->ti", w, np.abs(det), u1q[:, :, None] * gphys[:, :, :, 1]
    ) - np.einsum(
        "q,t,tqi->ti", w, np.abs(det), u2q[:, :, None] * gphys[:, :, :, 0]
    )
    rhs = np.zeros(space.ndof)
    np.add.at(rhs, ed_s.ravel(), local.ravel())
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_curl_rhs_includes_mini_bubbles(square2):
    space = sp.build_space(square2, 1)
    vb = sp.build_space(square2, 1, "lagrange_bubble")
    nv = len(square2.points)
    c = np.zeros(2 * vb.ndof)
    c[vb.ndof + nv] = 1.0  # bubble in the y-component of triangle 0
    u = sp.Field(vb, 2, c)
    got = asm.assemble_curl_rhs(space, u)
    # curl u = d(bubble)/dx is odd around the triangle, but weighted by
    # the P1 hats it must not vanish identically
    assert np.max(np.abs(got)) > 1e-10


@pytest.fixture(scope="module")
def kite5():
    _, k0 = msh.builtin_domain("convex_11pi12")
    return msh.refine_hierarchy(k0, 5, 0.3)[5]


def _all_loads(space):
    rng = np.random.default_rng(11)
    w = sp.Field(space, 1, rng.normal(size=space.ndof))
    u = sp.Field(space, 2, rng.normal(size=2 * space.ndof))
    return [asm.assemble_load(space, lambda x, y: np.sin(3 * x) * y),
            asm.assemble_stokes_rhs_analytic(
                space, (lambda x, y: np.exp(x) - y, lambda x, y: x * y)),
            asm.assemble_stokes_rhs_discrete_curl(space, w),
            asm.assemble_curl_rhs(space, u)]


# 4,096 = 7 * 585 + 1: blocks of 7 leave a one-triangle tail, which
# joins the block before it, and so does the tail that 4,095 leaves
@pytest.mark.parametrize("rows", [7, 4095])
@pytest.mark.parametrize("degree,kind", [(1, "lagrange_bubble"), (1, "lagrange"),
                                         (2, "lagrange"), (3, "lagrange")])
def test_loads_do_not_depend_on_the_block_size(kite5, monkeypatch, rows,
                                               degree, kind):
    space = sp.build_space(kite5, degree, kind)
    assert len(kite5.triangles) == 4096
    ref = _all_loads(space)
    monkeypatch.setattr(sp, "BLOCK_ROWS", rows)
    for got, want in zip(_all_loads(space), ref):
        assert np.array_equal(got, want)


# -- boundary conditions -----------------------------------------------------------


def test_apply_dirichlet_unit_rows(square2):
    space = sp.build_space(square2, 1)
    a = asm.assemble_stiffness(space)
    b = asm.assemble_load(space, lambda x, y: 1.0)
    a2 = asm.apply_dirichlet(a, space.boundary_dofs)
    assert abs(a2 - a2.T).max() < 1e-13 * abs(a2).max()
    dense = a2.toarray()
    for d in space.boundary_dofs:
        assert dense[d, d] == 1.0
        row, col = dense[d].copy(), dense[:, d].copy()
        row[d] = col[d] = 0.0
        assert np.all(row == 0.0) and np.all(col == 0.0)
    b[space.boundary_dofs] = 0.0
    x = scipy.linalg.solve(dense, b)
    assert np.all(x[space.boundary_dofs] == 0.0)


def test_apply_dirichlet_masks_in_place_like_diagonal_products(square2):
    space = sp.build_space(square2, 2)
    a = asm.assemble_stiffness(space)
    dofs = space.boundary_dofs
    # one pinned DOF whose diagonal is not in the pattern, and one kept
    # row with a stored exact zero
    a[dofs[3], dofs[3]] = 0.0
    a.eliminate_zeros()
    free = np.setdiff1d(np.arange(space.ndof), dofs)[0]
    a[free, free] = 0.0
    assert a[dofs[3], dofs[3]] == 0.0 and a.has_canonical_format
    keep = np.ones(space.ndof)
    keep[dofs] = 0.0
    d = sps.diags(keep)
    expect = (d @ a @ d + sps.diags(1.0 - keep)).tocsr()
    with pytest.warns(sps.SparseEfficiencyWarning):
        got = asm.apply_dirichlet(a, dofs)
    assert got is a  # the CSR argument itself is eliminated in place
    got.sort_indices()
    expect.sort_indices()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(expect, attr)), attr


def test_apply_dirichlet_requires_square():
    a = sps.csr_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        asm.apply_dirichlet(a, [0])


def test_single_interior_dof_system():
    # level-1 fan of the kite: exactly one interior vertex patch? use square
    _, m0 = msh.builtin_domain("square")
    space = sp.build_space(m0, 1)
    a = asm.assemble_stiffness(space)
    a2 = asm.apply_dirichlet(a, space.boundary_dofs)
    b2 = asm.assemble_load(space, lambda x, y: 1.0)
    b2[space.boundary_dofs] = 0.0
    x = scipy.sparse.linalg.spsolve(a2.tocsc(), b2)
    free = np.setdiff1d(np.arange(space.ndof), space.boundary_dofs)
    assert len(free) == 1
    # 1x1 effective system: a_ii x_i = b_i
    i = free[0]
    assert x[i] == pytest.approx(b2[i] / a.toarray()[i, i], rel=1e-14)


# -- element kernels -----------------------------------------------------------------


def _random_kernel_inputs(seed=0, nq=6, nloc=10, nt=7):
    rng = np.random.default_rng(seed)
    det = rng.uniform(0.5, 2.0, nt) * np.sign(rng.normal(size=nt))
    inv_t = rng.normal(size=(nt, 2, 2))
    gref = rng.normal(size=(nq, nloc, 2))
    vals = rng.normal(size=(nq, nloc))
    vals_p = rng.normal(size=(nq, 3))
    w = rng.uniform(0.01, 0.2, nq)
    fq = rng.normal(size=(nt, nq))
    coeffs = rng.normal(size=(nt, nloc))
    return det, inv_t, gref, vals, vals_p, w, fq, coeffs


def _loop_kernels(det, inv_t, gref, vals, vals_p, w, fq, coeffs):
    """The five kernels as a plain loop over elements and quadrature points."""
    nt = len(det)
    nq, nloc = vals.shape
    nloc_p = vals_p.shape[1]
    stiff = np.zeros((nt, nloc, nloc))
    mass = np.zeros((nt, nloc, nloc))
    div = np.zeros((nt, nloc_p, 2 * nloc))
    load = np.zeros((nt, nloc))
    grads = np.zeros((nt, nq, 2))
    for t in range(nt):
        scale = abs(det[t])
        for q in range(nq):
            g = gref[q] @ inv_t[t].T  # (nloc, 2) physical gradients
            wq = scale * w[q]
            stiff[t] += wq * g @ g.T
            mass[t] += wq * np.outer(vals[q], vals[q])
            div[t, :, :nloc] -= wq * np.outer(vals_p[q], g[:, 0])
            div[t, :, nloc:] -= wq * np.outer(vals_p[q], g[:, 1])
            load[t] += wq * fq[t, q] * vals[q]
            grads[t, q] = coeffs[t] @ g
    return stiff, mass, div, load, grads


def test_kernels_match_per_point_loop():
    det, inv_t, gref, vals, vals_p, w, fq, coeffs = _random_kernel_inputs()
    got = (
        kernels.element_stiffness(det, inv_t, gref, w),
        kernels.element_mass(det, vals, w),
        kernels.element_divergence(det, inv_t, gref, vals_p, w),
        kernels.element_load(det, vals, fq, w),
        kernels.field_grads_at_quad(det, inv_t, gref, coeffs),
    )
    want = _loop_kernels(det, inv_t, gref, vals, vals_p, w, fq, coeffs)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=1e-13, atol=1e-13)
