"""Factor-once direct solver, Schur-complement Stokes solve, and pipelines."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

import biharm.cli
import biharm.solvers
from biharm.assembly import (
    apply_dirichlet,
    assemble_curl_rhs,
    assemble_divergence,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_stokes_rhs_analytic,
    assemble_stokes_rhs_discrete_curl,
    vector_boundary_dofs,
)
from biharm.cli import ExperimentConfig, run_comparison
from biharm.meshing import builtin_domain, refine_hierarchy
from biharm.solvers import (
    _level_factors,
    CHEBYSHEV_STEPS,
    chebyshev_mass_inverse,
    mass_bounds,
    run_chains,
    run_psp,
    run_sp,
    SpdFactor,
    solve_poisson,
    solve_stokes,
    stiffness_factor,
    stokes_spaces,
    validate_curl,
)
from biharm.quadrature import triangle_rule
from biharm.spaces import (Field, basis_values, build_space, jacobians,
                           prolongate)

from oracles import assemble_vector_stiffness, count_jacobians


def fzero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def fone(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def fx(x, y):
    return np.asarray(x, dtype=float)


def fy(x, y):
    return np.asarray(y, dtype=float)


FORCE_INT_X = (fzero, fx)                            # curl = 1
FORCE_INT_Y = (lambda x, y: -fy(x, y), fzero)        # curl = 1
FORCE_BLEND = (lambda x, y: -0.5 * fy(x, y), lambda x, y: 0.5 * fx(x, y))


def stokes(vspace, pspace, rhs, p0=None):
    """solve_stokes on the velocity factor the pipelines build for vspace:
    its own LU for Taylor-Hood, the P1 LU and the bubble diagonal for
    Mini."""
    geometry = jacobians(vspace.mesh)
    factor = _level_factors(vspace, pspace, geometry)[2]
    return solve_stokes(vspace, pspace, rhs, factor, geometry, p0)


def poisson(space, rhs):
    return solve_poisson(space, rhs,
                         stiffness_factor(space, jacobians(space.mesh)))


@pytest.fixture(scope="module")
def square_meshes():
    return refine_hierarchy(builtin_domain("square")[1], 3)


@pytest.fixture(scope="module")
def lshape_meshes():
    return refine_hierarchy(builtin_domain("lshape")[1], 3, 0.2)


# -- SpdFactor ----------------------------------------------------------------


def test_solve_spd_identity():
    b = np.array([3.0, -1.0, 0.5])
    x = SpdFactor(sps.identity(3, format="csr")).solve(b)
    np.testing.assert_allclose(x, b, rtol=0, atol=1e-14)


def test_solve_spd_tridiagonal_hand_solution():
    a = sps.csr_matrix(np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    x = SpdFactor(a).solve(np.ones(3))
    np.testing.assert_allclose(x, [1.5, 2.0, 1.5], rtol=0, atol=1e-12)


def test_solve_spd_random_spd_residual():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(10, 10))
    a = sps.csr_matrix(m.T @ m + np.eye(10))
    b = rng.normal(size=10)
    x = SpdFactor(a).solve(b)
    assert np.linalg.norm(a @ x - b) < 1e-10 * np.linalg.norm(b)


def test_solve_spd_singular_rejected():
    a = sps.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ArithmeticError):
        SpdFactor(a).solve(np.ones(2))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_spd_gate_rejects_non_finite_rhs(bad):
    # a NaN residual fails the gate; the finite entries alone solve fine
    factor = SpdFactor(2.0 * sps.identity(3, format="csr"))
    with pytest.raises(ArithmeticError, match="residual"):
        factor.solve(np.array([bad, 1.0, 1.0]))
    assert factor.solves == 1


def test_solve_spd_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        SpdFactor(sps.identity(3, format="csr")).solve(np.ones(4))


def test_mini_stiffness_is_p1_block_plus_bubble_diagonal(lshape_meshes):
    # on every triangle the bubble gradient is orthogonal to the P1 ones
    mesh = lshape_meshes[3]
    nv = len(mesh.points)
    a = assemble_stiffness(build_space(mesh, 1, "lagrange_bubble"),
                           jacobians(mesh)).tocoo()
    coupled = (a.row >= nv) != (a.col >= nv)
    bubble_off = (a.row >= nv) & (a.col >= nv) & (a.row != a.col)
    assert np.all(a.data[coupled | bubble_off] == 0.0)
    p1 = assemble_stiffness(build_space(mesh, 1), jacobians(mesh))
    block = a.tocsr()[:nv, :nv]
    assert abs(block - p1).max() < 1e-13 * abs(p1).max()


def test_factor_matrix_stores_no_zeros(lshape_meshes):
    # the assembled Mini stiffness stores its zero bubble-vertex entries,
    # but the sparse products of the Dirichlet elimination drop exact
    # zeros, so the matrix every gate multiplies holds none of them
    mesh = lshape_meshes[3]
    vspace = build_space(mesh, 1, "lagrange_bubble")
    geo = jacobians(mesh)
    assert np.any(assemble_stiffness(vspace, geo).data == 0.0)
    p1 = stiffness_factor(build_space(mesh, 1), geo)
    mini = stiffness_factor(vspace, geo, p1)
    nv = len(mesh.points)
    assert mini.matrix[nv:, :nv].nnz == 0
    assert mini.matrix[nv:, nv:].nnz == len(mesh.triangles)
    for factor in (p1, mini, stiffness_factor(build_space(mesh, 2), geo)):
        assert np.all(factor.matrix.data != 0.0)


@pytest.mark.parametrize("domain, kappa, level, degree", [
    ("lshape", 0.2, 3, 3),
    ("convex_11pi12", 0.3, 5, 1),
])
def test_factor_stores_less_than_relaxed_supernodes(domain, kappa, level,
                                                    degree):
    # SuperLU's default relaxed supernodes pad L+U with explicit zeros;
    # the factor without them stores fewer entries, in the same order,
    # and solves to the same digits
    root = builtin_domain(domain)[1]
    space = build_space(refine_hierarchy(root, level, kappa)[-1], degree)
    factor = stiffness_factor(space, jacobians(space.mesh))
    relaxed = spla.splu(factor.matrix, permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
    assert factor.nnz < relaxed.nnz
    b = np.random.default_rng(11).normal(size=space.ndof)
    b[space.boundary_dofs] = 0.0
    x, ref = factor.solve(b), relaxed.solve(b)
    assert np.linalg.norm(x - ref) < 1e-12 * np.linalg.norm(ref)
    assert 0.0 < factor.residual_max < 1e-10


@pytest.mark.parametrize("columns", [1, 2])
def test_mini_velocity_solve_reuses_p1_factor(lshape_meshes, columns):
    mesh = lshape_meshes[3]
    p1 = stiffness_factor(build_space(mesh, 1), jacobians(mesh))
    vspace = build_space(mesh, 1, "lagrange_bubble")
    mini = stiffness_factor(vspace, jacobians(vspace.mesh), p1)
    rng = np.random.default_rng(5)
    b = rng.normal(size=(vspace.ndof, columns)).squeeze()
    b[vspace.boundary_dofs] = 0.0
    exact = spla.spsolve(mini.matrix, b)
    x = mini.solve(b)
    assert np.max(np.abs(x - exact)) < 1e-12 * np.max(np.abs(exact))


def test_lead_factor_gate_rejects_coupling():
    # a trailing row that is not decoupled breaks the solve's residual gate
    a = sps.csr_matrix(np.array([[2.0, 0.0, 0.5], [0.0, 2.0, 0.0],
                                 [0.5, 0.0, 1.0]]))
    lead = SpdFactor(a[:2, :2])
    with pytest.raises(ArithmeticError, match="residual"):
        SpdFactor(a, lead).solve(np.ones(3))


def test_factor_is_freed_without_cyclic_collection():
    # a level's LU must go when its last name does, before the next level
    # is factored; a reference cycle would hold it until gc runs
    a = sps.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0],
                                 [0.0, 0.0, 4.0]]))
    gc.disable()
    try:
        lead = SpdFactor(a[:2, :2])
        mini = SpdFactor(a, lead)
        mini.solve(np.ones(3))
        lead.solve(np.ones(2))
        assert lead.solves == 2 and mini.solves == 0
        assert 0.0 <= lead.residual_max < 1e-10 and mini.residual_max == 0.0
        refs = [weakref.ref(lead), weakref.ref(mini)]
        del lead, mini
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


# -- solve_stokes -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_force_gives_zero_velocity(square_meshes, k):
    # F = grad(x) is balanced entirely by the pressure: u = 0, p = x - mean
    mesh = square_meshes[2]
    vspace, pspace = stokes_spaces(mesh, k)
    rhs = assemble_stokes_rhs_analytic(vspace, (fone, fzero), jacobians(mesh))
    sol = stokes(vspace, pspace, rhs)
    assert np.max(np.abs(sol.u.coefficients)) < 1e-10
    assert np.max(np.abs(sol.p.coefficients - pspace.dof_coords[:, 0])) < 1e-9


def test_zero_force_gives_zero_solution(square_meshes):
    vspace, pspace = stokes_spaces(square_meshes[2], 2)
    sol = stokes(vspace, pspace, np.zeros(2 * vspace.ndof))
    assert np.max(np.abs(sol.u.coefficients)) == 0.0
    assert np.max(np.abs(sol.p.coefficients)) == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_stokes_solution_invariants(lshape_meshes, k):
    mesh = lshape_meshes[2]
    vspace, pspace = stokes_spaces(mesh, k)
    geo = jacobians(mesh)
    rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X, geo)
    sol = stokes(vspace, pspace, rhs)

    xp = sol.p.coefficients
    mass_p = assemble_mass(pspace, geo)
    pnorm = np.sqrt(xp @ (mass_p @ xp))
    mean = assemble_load(pspace, fone, geo) @ xp
    assert abs(mean) <= 1e-10 * pnorm

    xu = sol.u.coefficients
    a = assemble_vector_stiffness(vspace)
    unorm = np.sqrt(xu @ (a @ xu))
    div = np.max(np.abs(assemble_divergence(vspace, pspace, geo) @ xu))
    assert div <= 1e-9 * unorm

    assert np.all(xu[vector_boundary_dofs(vspace)] == 0.0)
    assert sol.residual_norm < 1e-10 * (1 + np.linalg.norm(rhs))


@pytest.mark.parametrize("k", [1, 2])
def test_stokes_non_finite_rhs_fails_its_first_back_solve(square_meshes, k):
    # the Schur right-hand side's back-solve raises; no CG step runs
    vspace, pspace = stokes_spaces(square_meshes[2], k)
    geometry = jacobians(vspace.mesh)
    sfactor, vfactor = _level_factors(vspace, pspace, geometry)[1:]
    rhs = np.zeros(2 * vspace.ndof)
    rhs[np.setdiff1d(np.arange(vspace.ndof),
                     vspace.boundary_dofs)[0]] = np.nan
    with pytest.raises(ArithmeticError, match="direct solve residual"):
        solve_stokes(vspace, pspace, rhs, vfactor, geometry)
    assert sfactor.solves == 1


def test_stokes_mesh_mismatch_rejected(square_meshes):
    v1, _ = stokes_spaces(square_meshes[1], 2)
    _, p2 = stokes_spaces(square_meshes[2], 2)
    with pytest.raises(ValueError, match="mesh"):
        stokes(v1, p2, np.zeros(2 * v1.ndof))
    v2, p2b = stokes_spaces(square_meshes[2], 2)
    with pytest.raises(ValueError, match="rhs"):
        stokes(v2, p2b, np.zeros(7))


@pytest.mark.parametrize("degree", [1, 2])
def test_mass_bounds_are_reference_element_eigenvalues(square_meshes, degree):
    # the closed forms agree with LAPACK on the element matrix
    space = build_space(square_meshes[0], degree)
    lam, w = triangle_rule(2 * degree)
    vals = basis_values(space, lam)
    m = vals.T @ (w[:, None] * vals)
    d = np.sqrt(np.diag(m))
    eig = np.linalg.eigvalsh(m / np.outer(d, d))
    assert mass_bounds(space) == pytest.approx((eig[0], eig[-1]), rel=1e-13)
    with pytest.raises(ValueError, match="degree-3"):
        mass_bounds(build_space(square_meshes[0], 3))


@pytest.mark.parametrize("degree", [1, 2])
def test_mass_bounds_enclose_jacobi_scaled_mass_spectrum(lshape_meshes,
                                                         degree):
    # the reference element bounds D^-1 M of the assembled mass matrix
    # on the graded mesh; for P1 both ends are attained
    space = build_space(lshape_meshes[3], degree)
    lo, hi = mass_bounds(space)
    assert (lo, hi) == pytest.approx({1: (0.5, 2.0),
                                      2: (0.3924, 2.0598)}[degree], abs=1e-4)
    m = assemble_mass(space, jacobians(space.mesh)).toarray()
    scale = 1.0 / np.sqrt(np.diag(m))
    eig = np.linalg.eigvalsh(m * np.outer(scale, scale))
    assert lo - 1e-12 <= eig[0] and eig[-1] <= hi + 1e-12
    if degree == 1:
        assert eig[0] == pytest.approx(lo) and eig[-1] == pytest.approx(hi)


def _dense(operator):
    return np.column_stack([operator.matvec(e)
                            for e in np.eye(operator.shape[0])])


@pytest.mark.parametrize("degree", [1, 2])
def test_chebyshev_mass_inverse_is_spd(lshape_meshes, degree):
    space = build_space(lshape_meshes[3], degree)
    mass = assemble_mass(space, jacobians(space.mesh))
    p = _dense(chebyshev_mass_inverse(mass, mass_bounds(space)))
    assert np.max(np.abs(p - p.T)) <= 1e-13 * np.max(np.abs(p))
    assert np.linalg.eigvalsh(0.5 * (p + p.T))[0] > 0.0


@pytest.mark.parametrize("degree", [1, 2])
def test_chebyshev_mass_inverse_within_error_bound(lshape_meshes, degree):
    # eigenvalues of P M lie within 1 / T_3(sigma) of 1
    space = build_space(lshape_meshes[3], degree)
    mass = assemble_mass(space, jacobians(space.mesh))
    lo, hi = mass_bounds(space)
    p = _dense(chebyshev_mass_inverse(mass, (lo, hi)))
    eig = np.linalg.eigvals(p @ mass.toarray())
    assert np.max(np.abs(eig.imag)) < 1e-10
    eps = 1.0 / np.cosh(CHEBYSHEV_STEPS * np.arccosh((hi + lo) / (hi - lo)))
    assert eps < 0.13
    assert np.max(np.abs(eig.real - 1.0)) <= eps + 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_coarse_start_matches_cold_and_bordered_solves(lshape_meshes, k):
    vcoarse, pcoarse = stokes_spaces(lshape_meshes[2], k)
    coarse = stokes(vcoarse, pcoarse, assemble_stokes_rhs_analytic(
        vcoarse, FORCE_INT_X, jacobians(vcoarse.mesh)))
    vspace, pspace = stokes_spaces(lshape_meshes[3], k)
    geo = jacobians(lshape_meshes[3])
    rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X, geo)
    # the exact lift keeps the coarse pressure's zero mean
    lift = prolongate(coarse.p, pspace).coefficients
    assert abs(assemble_load(pspace, fone, geo) @ lift) < 1e-14
    warm = stokes(vspace, pspace, rhs, p0=coarse.p)
    cold = stokes(vspace, pspace, rhs)
    u_ref, p_ref = _bordered_reference(vspace, pspace, rhs)
    for sol in (warm, cold):
        np.testing.assert_allclose(sol.u.coefficients, u_ref, rtol=0,
                                   atol=1e-10)
        np.testing.assert_allclose(sol.p.coefficients, p_ref, rtol=0,
                                   atol=1e-10)
    np.testing.assert_allclose(warm.p.coefficients, cold.p.coefficients,
                               rtol=0, atol=1e-10)
    assert warm.iterations < cold.iterations


def test_coarse_start_must_come_from_a_coarser_level(lshape_meshes):
    vspace, pspace = stokes_spaces(lshape_meshes[2], 2)
    _, finer = stokes_spaces(lshape_meshes[3], 2)
    rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X,
                                       jacobians(lshape_meshes[2]))
    with pytest.raises(ValueError, match="descendant"):
        stokes(vspace, pspace, rhs,
                     p0=Field(finer, 1, np.zeros(finer.ndof)))


def _bordered_reference(vspace, pspace, rhs):
    """u, p from the multiplier-bordered saddle system, solved directly."""
    nv2 = 2 * vspace.ndof
    geo = jacobians(vspace.mesh)
    mcol = sps.csr_matrix(assemble_load(pspace, fone, geo)[:, None])
    b = assemble_divergence(vspace, pspace, geo)
    k = sps.bmat([[assemble_vector_stiffness(vspace), b.T, None],
                  [b, None, mcol], [None, mcol.T, None]], format="csr")
    full = np.concatenate([rhs, np.zeros(pspace.ndof + 1)])
    pinned = vector_boundary_dofs(vspace)
    full[pinned] = 0.0
    x = spla.spsolve(apply_dirichlet(k, pinned).tocsc(), full)
    return x[:nv2], x[nv2:nv2 + pspace.ndof]


@pytest.mark.parametrize("load", ["analytic", "discrete_curl"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain", ["lshape", "square"])
def test_schur_solve_matches_bordered_direct_solve(lshape_meshes,
                                                   square_meshes, domain, k,
                                                   load):
    # the discrete-curl load is psp's Stokes right-hand side, for which
    # B A^-1 f is nearly zero (on the symmetric level-1 square, to
    # rounding): CG must stop on the divergence of u relative to f, not
    # relative to its own starting residual
    mesh = lshape_meshes[2] if domain == "lshape" else square_meshes[1]
    vspace, pspace = stokes_spaces(mesh, k)
    geo = jacobians(mesh)
    if load == "analytic":
        rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X, geo)
    else:
        sspace = build_space(mesh, k)
        w = poisson(sspace, assemble_load(sspace, fone, geo))
        rhs = assemble_stokes_rhs_discrete_curl(vspace, w, geo)
    u_ref, p_ref = _bordered_reference(vspace, pspace, rhs)
    sol = stokes(vspace, pspace, rhs)
    np.testing.assert_allclose(sol.u.coefficients, u_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(sol.p.coefficients, p_ref, rtol=0, atol=1e-10)


def test_taylor_hood_iterations_do_not_grow_with_level():
    # inf-sup stability on the graded mesh bounds the mass-preconditioned
    # Schur complement's condition number independently of the level
    meshes = refine_hierarchy(builtin_domain("lshape")[1], 6, 0.2)
    counts, solutions = [], {}
    for level in (4, 5, 6):
        vspace, pspace = stokes_spaces(meshes[level], 2)
        rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X,
                                           jacobians(meshes[level]))
        solutions[level] = stokes(vspace, pspace, rhs)
        counts.append(solutions[level].iterations)
    assert 0 < counts[2] <= counts[0]
    # the consistent-mass Chebyshev preconditioner takes 34 steps at
    # level 6 and 24 from the level-5 pressure; the mass diagonal took 40
    assert counts[2] <= 36
    warm = stokes(vspace, pspace, rhs, p0=solutions[5].p)
    assert warm.iterations <= 28


class _CountingLinalg:
    """scipy.sparse.linalg with a counter on splu."""

    def __init__(self):
        self.splu_calls = 0

    def splu(self, *args, **kwargs):
        self.splu_calls += 1
        return spla.splu(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(spla, name)


@pytest.mark.parametrize("k, per_level", [(1, 1), (2, 1)])
@pytest.mark.parametrize("algorithm", ["sp", "psp"])
def test_one_scalar_factor_per_level(monkeypatch, square_meshes, algorithm,
                                     k, per_level):
    # Taylor-Hood factors the P_k stiffness once per level for all three
    # solves; Mini factors only its P1 stiffness, which the P1+bubble
    # velocity solves reuse
    counting = _CountingLinalg()
    monkeypatch.setattr(biharm.solvers, "spla", counting)
    if algorithm == "sp":
        run_sp(square_meshes, fone, FORCE_INT_X, k)
    else:
        run_psp(square_meshes, fone, k)
    assert counting.splu_calls == per_level * len(square_meshes)


@pytest.mark.parametrize("k", [1, 2])
def test_comparison_factors_each_level_once(monkeypatch, k):
    # sp and psp solve on each level's one factor, and each chain's
    # records equal those of a run of it alone, bit for bit: a warm
    # start shared between the chains would move the CG iterates
    calls = []

    def recording(meshes, k, chains):
        runs = run_chains(meshes, k, chains)
        calls.append((meshes, runs))
        return runs

    monkeypatch.setattr(biharm.cli, "run_chains", recording)
    counting = _CountingLinalg()
    monkeypatch.setattr(biharm.solvers, "spla", counting)
    config = dict(domain="square", k=k, levels=3, out="")
    run_comparison(ExperimentConfig(algorithm="sp", **config),
                   ExperimentConfig(algorithm="psp", **config))
    [(meshes, runs)] = calls
    shared = counting.splu_calls
    alone = [run_sp(meshes, fone, FORCE_INT_X, k)]
    assert shared == counting.splu_calls - shared == len(meshes)
    alone.append(run_psp(meshes, fone, k))
    for run, ref in zip(runs, alone):
        assert len(run) == len(ref)
        for rec, want in zip(run, ref):
            assert rec.iterations == want.iterations
            for name in ("u", "p", "phi", "w"):
                got, exp = getattr(rec, name), getattr(want, name)
                assert (got is None) == (exp is None)
                if exp is not None:
                    np.testing.assert_array_equal(got.coefficients,
                                                  exp.coefficients)
    # both chains' records of a level report the one shared factor: its
    # entries, and its back-solves and their largest residual over both
    for rec_a, rec_b, ref_a, ref_b in zip(*runs, *alone):
        for name in ("lu_solves", "lu_residual_max", "factor_nnz",
                     "maxrss_mb"):
            assert getattr(rec_a, name) == getattr(rec_b, name)
        assert rec_a.lu_solves == ref_a.lu_solves + ref_b.lu_solves
        assert rec_a.lu_residual_max == max(ref_a.lu_residual_max,
                                            ref_b.lu_residual_max)
        assert rec_a.factor_nnz == ref_a.factor_nnz == ref_b.factor_nnz


@pytest.mark.parametrize("k", [1, 2])
def test_one_geometry_per_level(monkeypatch, lshape_meshes, k):
    # every assembly of a level, for both chains, runs on one jacobians
    # call; Mini's Poisson space is its P1 pressure space
    calls = count_jacobians(monkeypatch)
    runs = run_chains(lshape_meshes, k, [(fone, FORCE_INT_X), (fone, None)])
    assert [id(mesh) for mesh in calls] == [id(mesh) for mesh in lshape_meshes]
    for run in runs:
        for rec in run:
            assert rec.phi.space is (rec.p.space if k == 1 else rec.u.space)


def test_stokes_solution_carries_its_gate_values(lshape_meshes):
    vspace, pspace = stokes_spaces(lshape_meshes[2], 1)
    geo = jacobians(lshape_meshes[2])
    sol = stokes(vspace, pspace,
                 assemble_stokes_rhs_analytic(vspace, FORCE_INT_X, geo))
    mean = assemble_load(pspace, fone, geo) @ sol.p.coefficients
    div = assemble_divergence(vspace, pspace, geo) @ sol.u.coefficients
    assert sol.pressure_mean == pytest.approx(mean, abs=1e-16)
    assert sol.divergence_max == pytest.approx(np.max(np.abs(div)),
                                               abs=1e-16)
    assert abs(sol.pressure_mean) < 1e-12 and sol.divergence_max < 1e-12


def test_force_shift_by_pressure_gradient(lshape_meshes):
    # forces differing by grad(x) with x in the pressure space leave the
    # velocity untouched and shift the pressure by x minus its mean
    mesh = lshape_meshes[2]
    vspace, pspace = stokes_spaces(mesh, 2)
    geo = jacobians(mesh)
    sol_a = stokes(vspace, pspace,
                   assemble_stokes_rhs_analytic(vspace, FORCE_INT_X, geo))
    sol_b = stokes(vspace, pspace,
                   assemble_stokes_rhs_analytic(vspace, (fone, fx), geo))
    assert np.max(np.abs(sol_a.u.coefficients - sol_b.u.coefficients)) < 1e-9
    # mean of x over the L-shape of area 3 is -1/6
    shift = pspace.dof_coords[:, 0] + 1.0 / 6.0
    dp = sol_b.p.coefficients - sol_a.p.coefficients
    assert np.max(np.abs(dp - shift)) < 1e-8


# -- pipelines ----------------------------------------------------------------


def test_run_sp_zero_force(square_meshes):
    run = run_sp(square_meshes[:3], fzero, (fzero, fzero), 2)
    for rec in run:
        assert np.max(np.abs(rec.phi.coefficients)) == 0.0
        assert np.max(np.abs(rec.u.coefficients)) == 0.0


def test_run_sp_accepts_scalar_only_force(square_meshes):
    # callables that take only floats are called point by point, in the
    # curl check as in assembly, and give the vectorized force's solution
    scalar = run_sp(square_meshes[:3], lambda x, y: 1.0,
                    (lambda x, y: 0.0, lambda x, y: float(x)), 2)
    vector = run_sp(square_meshes[:3], fone, FORCE_INT_X, 2)
    for a, b in zip(scalar, vector):
        assert a.iterations == b.iterations
        for name in ("u", "p", "phi"):
            assert np.array_equal(getattr(a, name).coefficients,
                                  getattr(b, name).coefficients)


def test_run_psp_zero_load(square_meshes):
    run = run_psp(square_meshes[:3], fzero, 2)
    for rec in run:
        assert np.max(np.abs(rec.w.coefficients)) == 0.0
        assert np.max(np.abs(rec.u.coefficients)) == 0.0
        assert np.max(np.abs(rec.phi.coefficients)) == 0.0


def test_run_sp_rejects_inconsistent_force(square_meshes):
    with pytest.raises(ValueError, match="curl"):
        run_sp(square_meshes[:2], fone, (fzero, lambda x, y: 2 * fx(x, y)),
               2)


def test_run_records_structure(square_meshes):
    run = run_psp(square_meshes, fone, 2)
    assert [rec.level for rec in run] == [0, 1, 2, 3]
    for rec in run:
        assert set(rec.seconds) == {"factor", "poisson_w", "stokes_assembly",
                                    "stokes", "poisson_phi"}
        assert all(t >= 0.0 for t in rec.seconds.values())
        sspace = rec.phi.space
        assert np.all(rec.phi.coefficients[sspace.boundary_dofs] == 0.0)
    # strictly nested hierarchy: each mesh points back to the previous
    meshes = [rec.phi.space.mesh for rec in run]
    for coarse, fine in zip(meshes, meshes[1:]):
        assert fine.coarser is coarse
    run2 = run_sp(square_meshes[:2], fone, FORCE_INT_X, 2)
    assert set(run2[0].seconds) == {"factor", "stokes_assembly", "stokes",
                                    "poisson_phi"}
    assert run2[0].w is None


def test_one_progress_line_per_level_on_stderr(capsys, lshape_meshes):
    # each line leads with the kappa that graded the hierarchy
    runs = run_chains(lshape_meshes, 2, [(fone, None), (fone, FORCE_INT_X)])
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == len(lshape_meshes)
    for line, mesh, psp, sp in zip(lines, lshape_meshes, runs[0], runs[1]):
        assert line.startswith(f"kappa=0.2 level {mesh.level}: "
                               f"{len(mesh.triangles)} triangles, "
                               f"factor_nnz {psp.factor_nnz}, "
                               f"cg {psp.iterations}/{sp.iterations} steps, ")
        assert line.endswith(f" s, maxrss_mb {psp.maxrss_mb:.1f}")


def test_solver_error_carries_level(monkeypatch, square_meshes):
    def boom(*args, **kwargs):
        raise ArithmeticError("synthetic failure")

    monkeypatch.setattr(biharm.solvers, "solve_stokes", boom)
    with pytest.raises(ArithmeticError, match="level 0"):
        run_sp(square_meshes[:2], fone, FORCE_INT_X, 2)


def test_galerkin_orthogonality_of_poisson_steps(square_meshes):
    rec = run_psp(square_meshes[:3], fone, 2)[-1]
    sspace = rec.phi.space
    geo = jacobians(sspace.mesh)
    a = assemble_stiffness(sspace, geo)
    b = assemble_curl_rhs(sspace, rec.u, geo)
    a2 = apply_dirichlet(a, sspace.boundary_dofs)
    b2 = b.copy()
    b2[sspace.boundary_dofs] = 0.0
    resid = np.linalg.norm(a2 @ rec.phi.coefficients - b2)
    assert resid <= 1e-9 * np.linalg.norm(b2)


def test_pressure_mean_zero_at_every_level(square_meshes):
    for rec in run_psp(square_meshes, fone, 2):
        pspace = rec.p.space
        geo = jacobians(pspace.mesh)
        mass_p = assemble_mass(pspace, geo)
        xp = rec.p.coefficients
        mean = assemble_load(pspace, fone, geo) @ xp
        assert abs(mean) <= 1e-10 * np.sqrt(xp @ (mass_p @ xp)) + 1e-14


@pytest.mark.parametrize("k", [1, 2])
def test_square_symmetry_under_coordinate_swap(square_meshes, k):
    # f = 1 is invariant under (x, y) -> (y, x); so is the mesh, so the
    # discrete stream function must be symmetric to solver accuracy
    runs = [
        run_psp(square_meshes, fone, k),
        run_sp(square_meshes, fone, FORCE_BLEND, k),
    ]
    for run in runs:
        rec = run[-1]
        coords = rec.phi.space.dof_coords
        direct = np.lexsort((coords[:, 1], coords[:, 0]))
        swapped = np.lexsort((coords[:, 0], coords[:, 1]))
        gap = np.max(np.abs(rec.phi.coefficients[direct]
                            - rec.phi.coefficients[swapped]))
        assert gap < 1e-10


# -- run_comparison -----------------------------------------------------------


def _comparison(algorithm_b, F_b=""):
    """run_comparison's rows of sp (F = int_x) against another square
    chain, levels 1..3."""
    config = dict(domain="square", k=2, levels=3, out="")
    result = run_comparison(ExperimentConfig(algorithm="sp", **config),
                            ExperimentConfig(algorithm=algorithm_b, F=F_b,
                                             **config))
    assert result.failures == {}
    return [diffs for _, diffs in result.rows[0.5]]


def test_compare_run_with_itself_is_zero():
    # both chains of one run_chains call repeat the same arithmetic
    for diffs in _comparison("sp"):
        assert all(v == 0.0 for v in diffs.values())


def test_sp_vs_psp_differences_shrink():
    diffs = [row["phi_h1"] for row in _comparison("psp")]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-4


def test_force_construction_independence_properties():
    # int_x vs int_y forces differ by grad(xy); the velocity gap is pure
    # discretization error and shrinks fast, while the pressure gap
    # converges to ||xy - mean(xy)|| = 2/3, a constant
    d = _comparison("sp", "int_y")
    assert d[0]["u_l2"] / d[1]["u_l2"] > 4.0
    assert d[1]["u_l2"] / d[2]["u_l2"] > 4.0
    p = [row["p_l2"] for row in d]
    assert abs(p[2] - 2.0 / 3.0) < 5e-4
    assert abs(p[2] - p[1]) < 0.01 * p[1]


def test_validate_curl_accepts_blend(lshape_meshes):
    resid = validate_curl(lshape_meshes[1], fone, FORCE_BLEND)
    assert resid < 1e-8 * 2.0


def test_mini_pipeline_on_graded_lshape(lshape_meshes):
    rec = run_sp(lshape_meshes[:3], fone, FORCE_INT_X, 1)[-1]
    assert rec.u.space.kind == "lagrange_bubble"
    assert rec.p.space.degree == 1
    assert np.max(np.abs(rec.phi.coefficients)) > 0.0


def test_solve_poisson_polynomial_load(square_meshes):
    # -lap(w) = 2 with w = (1 - x^2)/... hand check on u = (1 - x^2):
    # not in H^1_0 of the square in y, so use the tensor bubble instead
    space = build_space(square_meshes[2], 2)
    f = lambda x, y: 2 * (1 - x**2) + 2 * (1 - y**2)
    w = poisson(space, assemble_load(space, f, jacobians(space.mesh)))
    # exact solution (1-x^2)(1-y^2) equals 1 at the center
    center = np.where((space.dof_coords == 0.0).all(axis=1))[0][0]
    assert abs(w.coefficients[center] - 1.0) < 5e-3
