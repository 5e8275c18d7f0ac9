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
    StokesOperator,
    stokes_spaces,
    validate_curl,
)
from biharm.quadrature import triangle_rule
from biharm.spaces import Field, basis_values, build_space, prolongate

from oracles import assemble_vector_stiffness, geometry_owner, kernel_geometry


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


def level_factor(vspace, pspace):
    """The one factor the pipelines build for the level: the velocity
    stiffness's for Taylor-Hood, the P1 stiffness's for Mini."""
    return stiffness_factor(vspace if vspace.kind == "lagrange" else pspace)


def stokes(vspace, pspace, rhs, p0=None):
    """solve_stokes on the level's one factor."""
    factor = level_factor(vspace, pspace)
    return solve_stokes(StokesOperator(vspace, pspace, factor),
                        rhs, p0)


def poisson(space, rhs):
    return solve_poisson(space, rhs,
                         stiffness_factor(space))


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
    # what the condensed Mini Stokes solve relies on, on graded meshes:
    # on every triangle the bubble gradient is orthogonal to the P1 ones,
    # and the bubble divergence entries are (det / 120) grad lambda_i
    kite = refine_hierarchy(builtin_domain("convex_11pi12")[1], 3, 0.3)
    for mesh in (lshape_meshes[3], kite[3]):
        nv, nt = len(mesh.points), len(mesh.triangles)
        vspace, pspace = stokes_spaces(mesh, 1)
        a = assemble_stiffness(vspace).tocoo()
        coupled = (a.row >= nv) != (a.col >= nv)
        bubble_off = (a.row >= nv) & (a.col >= nv) & (a.row != a.col)
        assert np.all(a.data[coupled | bubble_off] == 0.0)
        a = a.tocsr()
        p1 = assemble_stiffness(pspace)
        assert abs(a[:nv, :nv] - p1).max() < 1e-13 * abs(p1).max()
        bubbles = biharm.solvers._Bubbles(pspace)
        d = bubbles.diag
        np.testing.assert_allclose(a.diagonal()[nv:], d, rtol=1e-13, atol=0)
        bbt = np.column_stack([bubbles.grad(e).ravel()
                               for e in np.eye(pspace.ndof)])  # Bb^T
        rng = np.random.default_rng(7)
        ub, q = rng.normal(size=(2, nt)), rng.normal(size=pspace.ndof)
        assert bubbles.div(ub) @ q == pytest.approx(ub.ravel() @ (bbt @ q),
                                                    rel=1e-13)
        mini = assemble_divergence(vspace, pspace).toarray()
        b1 = assemble_divergence(pspace, pspace).toarray()
        cols = np.arange(2 * vspace.ndof).reshape(2, -1)
        scale = np.abs(mini).max()
        assert np.abs(mini[:, cols[:, :nv].ravel()] - b1).max() < 1e-13 * scale
        assert np.abs(mini[:, cols[:, nv:].ravel()] - bbt.T).max() < (
            1e-13 * scale)
        c = bbt.T @ (bbt / np.tile(d, 2)[:, None])  # Bb D^-1 Bb^T
        assert np.abs(bubbles.c.toarray() - c).max() < 1e-13 * np.abs(c).max()


def test_factor_matrix_stores_no_zeros(lshape_meshes):
    # the assembled P1 stiffness stores exact zeros (on edges whose
    # opposite angles' cotangents cancel), but the Dirichlet elimination
    # drops them, so the matrix every gate multiplies holds none
    mesh = lshape_meshes[3]
    assert np.any(assemble_stiffness(build_space(mesh, 1)).data == 0.0)
    for degree in (1, 2):
        factor = stiffness_factor(build_space(mesh, degree))
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
    factor = stiffness_factor(space)
    relaxed = spla.splu(factor.matrix, permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
    assert factor.nnz < relaxed.nnz
    b = np.random.default_rng(11).normal(size=space.ndof)
    b[space.boundary_dofs] = 0.0
    x, ref = factor.solve(b), relaxed.solve(b)
    assert np.linalg.norm(x - ref) < 1e-12 * np.linalg.norm(ref)
    assert 0.0 < factor.residual_max < 1e-10


def test_factor_is_freed_without_cyclic_collection():
    # a level's LU must go when its last name does, before the next level
    # is factored; a reference cycle would hold it until gc runs
    a = sps.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, 0.0],
                                 [0.0, 0.0, 4.0]]))
    gc.disable()
    try:
        factor = SpdFactor(a)
        factor.solve(np.ones(3))
        factor.solve(np.ones((3, 2)))
        assert factor.solves == 2 and 0.0 <= factor.residual_max < 1e-10
        ref = weakref.ref(factor)
        del factor
        assert ref() is None
    finally:
        gc.enable()


# -- solve_stokes -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_force_gives_zero_velocity(square_meshes, k):
    # F = grad(x) is balanced entirely by the pressure: u = 0, p = x - mean
    mesh = square_meshes[2]
    vspace, pspace = stokes_spaces(mesh, k)
    rhs = assemble_stokes_rhs_analytic(vspace, (fone, fzero))
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
    rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X)
    sol = stokes(vspace, pspace, rhs)

    xp = sol.p.coefficients
    mass_p = assemble_mass(pspace)
    pnorm = np.sqrt(xp @ (mass_p @ xp))
    mean = assemble_load(pspace, fone) @ xp
    assert abs(mean) <= 1e-10 * pnorm

    xu = sol.u.coefficients
    a = assemble_vector_stiffness(vspace)
    unorm = np.sqrt(xu @ (a @ xu))
    div = np.max(np.abs(assemble_divergence(vspace, pspace) @ xu))
    assert div <= 1e-9 * unorm

    assert np.all(xu[vector_boundary_dofs(vspace)] == 0.0)
    assert sol.residual_norm < 1e-10 * (1 + np.linalg.norm(rhs))


@pytest.mark.parametrize("k", [1, 2])
def test_stokes_non_finite_rhs_fails_its_first_back_solve(square_meshes, k):
    # the Schur right-hand side's back-solve raises; no CG step runs
    vspace, pspace = stokes_spaces(square_meshes[2], k)
    sfactor = level_factor(vspace, pspace)
    rhs = np.zeros(2 * vspace.ndof)
    rhs[np.setdiff1d(np.arange(vspace.ndof),
                     vspace.boundary_dofs)[0]] = np.nan
    with pytest.raises(ArithmeticError, match="direct solve residual"):
        solve_stokes(StokesOperator(vspace, pspace, sfactor), rhs)
    assert sfactor.solves == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stokes_non_finite_bubble_load_rejected(square_meshes, bad):
    # no LU solve sees the Mini bubble loads, so they are checked first
    vspace, pspace = stokes_spaces(square_meshes[2], 1)
    sfactor = level_factor(vspace, pspace)
    rhs = np.zeros(2 * vspace.ndof)
    rhs[-1] = bad  # the last triangle's bubble, second component
    with pytest.raises(ArithmeticError, match="bubble load"):
        solve_stokes(StokesOperator(vspace, pspace, sfactor), rhs)
    assert sfactor.solves == 0


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
    m = assemble_mass(space).toarray()
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
    mass = assemble_mass(space)
    p = _dense(chebyshev_mass_inverse(mass, mass_bounds(space)))
    assert np.max(np.abs(p - p.T)) <= 1e-13 * np.max(np.abs(p))
    assert np.linalg.eigvalsh(0.5 * (p + p.T))[0] > 0.0


@pytest.mark.parametrize("degree", [1, 2])
def test_chebyshev_mass_inverse_within_error_bound(lshape_meshes, degree):
    # eigenvalues of P M lie within 1 / T_3(sigma) of 1
    space = build_space(lshape_meshes[3], degree)
    mass = assemble_mass(space)
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
        vcoarse, FORCE_INT_X))
    vspace, pspace = stokes_spaces(lshape_meshes[3], k)
    rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X)
    # the exact lift keeps the coarse pressure's zero mean
    lift = prolongate(coarse.p, pspace).coefficients
    assert abs(assemble_load(pspace, fone) @ lift) < 1e-14
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
    rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X)
    with pytest.raises(ValueError, match="descendant"):
        stokes(vspace, pspace, rhs,
                     p0=Field(finer, 1, np.zeros(finer.ndof)))


def _bordered_reference(vspace, pspace, rhs):
    """u, p from the multiplier-bordered saddle system, solved directly."""
    nv2 = 2 * vspace.ndof
    mcol = sps.csr_matrix(assemble_load(pspace, fone)[:, None])
    b = assemble_divergence(vspace, pspace)
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
    if load == "analytic":
        rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X)
    else:
        sspace = build_space(mesh, k)
        w = poisson(sspace, assemble_load(sspace, fone))
        rhs = assemble_stokes_rhs_discrete_curl(vspace, w)
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
        rhs = assemble_stokes_rhs_analytic(vspace, FORCE_INT_X)
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
    # solves; Mini factors only its P1 stiffness, on which its Stokes
    # solve runs once the bubbles are eliminated: no Mini stiffness or
    # Mini divergence is assembled
    counting = _CountingLinalg()
    monkeypatch.setattr(biharm.solvers, "spla", counting)
    calls = {name: _count_calls(monkeypatch, name)
             for name in ("assemble_stiffness", "assemble_divergence")}
    if algorithm == "sp":
        run = run_sp(square_meshes, fone, FORCE_INT_X, k)
    else:
        run = run_psp(square_meshes, fone, k)
    assert counting.splu_calls == per_level * len(square_meshes)
    assert run[-1].u.space.kind == ("lagrange_bubble" if k == 1
                                    else "lagrange")
    assert len(calls["assemble_divergence"]) == len(square_meshes)
    spaces = [args[0] for args in calls["assemble_stiffness"]]
    spaces += [space for args in calls["assemble_divergence"]
               for space in args]
    assert spaces and all(space.kind == "lagrange" for space in spaces)


def _count_calls(monkeypatch, name):
    """The arguments of each call of solvers' ``name`` from now on."""
    calls, real = [], getattr(biharm.solvers, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(biharm.solvers, name, counting)
    return calls


@pytest.mark.parametrize("k", [1, 2])
def test_comparison_factors_each_level_once(monkeypatch, k):
    # sp and psp solve on each level's one factor and one Stokes
    # operator, and each chain's records equal those of a run of it
    # alone, bit for bit: a warm start shared between the chains would
    # move the CG iterates
    calls = []
    built = {name: _count_calls(monkeypatch, name)
             for name in ("assemble_divergence", "assemble_mass",
                          "chebyshev_mass_inverse")}

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
    # B, the pressure mass and its preconditioner once per level
    pspaces = [id(rec.p.space) for rec in runs[0]]
    assert [id(rec.p.space) for rec in runs[1]] == pspaces
    assert [id(args[1]) for args in built["assemble_divergence"]] == pspaces
    assert [id(args[0]) for args in built["assemble_mass"]] == pspaces
    assert len(built["chebyshev_mass_inverse"]) == len(meshes)
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
                     "maxrss_mb", "peak_step"):
            assert getattr(rec_a, name) == getattr(rec_b, name)
        assert rec_a.lu_solves == ref_a.lu_solves + ref_b.lu_solves
        assert rec_a.lu_residual_max == max(ref_a.lu_residual_max,
                                            ref_b.lu_residual_max)
        assert rec_a.factor_nnz == ref_a.factor_nnz == ref_b.factor_nnz


@pytest.mark.parametrize("k", [1, 2])
def test_stokes_operator_lives_from_first_rhs_to_last_stokes_solve(
        monkeypatch, lshape_meshes, k):
    # B is assembled after the level's first Stokes right-hand side and
    # is freed, without a cyclic collection, once the last chain's
    # Stokes solve returns: before that chain's phi right-hand side
    events, refs = [], []

    def spy(name):
        real = getattr(biharm.solvers, name)

        def wrapper(*args):
            events.append((name, bool(refs) and refs[-1]() is not None))
            result = real(*args)
            if name == "assemble_divergence":
                refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(biharm.solvers, name, wrapper)

    for name in ("assemble_stokes_rhs_analytic",
                 "assemble_stokes_rhs_discrete_curl", "assemble_divergence",
                 "assemble_curl_rhs"):
        spy(name)
    gc.disable()
    try:
        run_chains(lshape_meshes, k, [(fone, FORCE_INT_X), (fone, None)])
    finally:
        gc.enable()
    # each pair is (call, whether the latest B was alive when it began)
    level = [("assemble_stokes_rhs_analytic", False),
             ("assemble_divergence", False),
             ("assemble_curl_rhs", True),
             ("assemble_stokes_rhs_discrete_curl", True),
             ("assemble_curl_rhs", False)]
    assert events == level * len(lshape_meshes)


@pytest.mark.parametrize("k", [1, 2])
def test_one_geometry_per_level(monkeypatch, lshape_meshes, k):
    # every kernel call of a level, for both chains, reads the level
    # mesh's own det and inv_t, never a recomputed copy, and the levels
    # run in order; Mini's Poisson space is its P1 pressure space
    calls = kernel_geometry(monkeypatch)
    runs = run_chains(lshape_meshes, k, [(fone, FORCE_INT_X), (fone, None)])
    levels = [geometry_owner(call, lshape_meshes).level for call in calls]
    assert levels == sorted(levels)
    assert set(levels) == {mesh.level for mesh in lshape_meshes}
    for run in runs:
        for rec in run:
            assert rec.phi.space is (rec.p.space if k == 1 else rec.u.space)


def test_stokes_solution_carries_its_gate_values(lshape_meshes):
    vspace, pspace = stokes_spaces(lshape_meshes[2], 1)
    sol = stokes(vspace, pspace,
                 assemble_stokes_rhs_analytic(vspace, FORCE_INT_X))
    mean = assemble_load(pspace, fone) @ sol.p.coefficients
    div = assemble_divergence(vspace, pspace) @ sol.u.coefficients
    assert sol.pressure_mean == pytest.approx(mean, abs=1e-16)
    assert sol.divergence_max == pytest.approx(np.max(np.abs(div)),
                                               abs=1e-16)
    assert abs(sol.pressure_mean) < 1e-12 and sol.divergence_max < 1e-12


def test_force_shift_by_pressure_gradient(lshape_meshes):
    # forces differing by grad(x) with x in the pressure space leave the
    # velocity untouched and shift the pressure by x minus its mean
    mesh = lshape_meshes[2]
    vspace, pspace = stokes_spaces(mesh, 2)
    sol_a = stokes(vspace, pspace,
                   assemble_stokes_rhs_analytic(vspace, FORCE_INT_X))
    sol_b = stokes(vspace, pspace,
                   assemble_stokes_rhs_analytic(vspace, (fone, fx)))
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
        assert list(rec.seconds) == ["spaces", "factor", "stokes_operator",
                                     "poisson_w", "stokes_assembly",
                                     "stokes", "poisson_phi"]
        assert all(t >= 0.0 for t in rec.seconds.values())
        sspace = rec.phi.space
        assert np.all(rec.phi.coefficients[sspace.boundary_dofs] == 0.0)
    # strictly nested hierarchy: each mesh points back to the previous
    meshes = [rec.phi.space.mesh for rec in run]
    for coarse, fine in zip(meshes, meshes[1:]):
        assert fine.coarser is coarse
    run2 = run_sp(square_meshes[:2], fone, FORCE_INT_X, 2)
    assert list(run2[0].seconds) == ["spaces", "factor", "stokes_operator",
                                     "stokes_assembly", "stokes",
                                     "poisson_phi"]
    assert run2[0].w is None


# the step functions that run_chains looks up on the solvers module
STEP_FUNCTIONS = ("stokes_spaces", "stiffness_factor", "StokesOperator",
                  "assemble_load", "assemble_stokes_rhs_analytic",
                  "assemble_stokes_rhs_discrete_curl", "assemble_curl_rhs",
                  "solve_stokes", "solve_poisson")
LEVEL_STEPS = ("spaces", "factor", "stokes_operator")


def test_step_seconds_count_each_step_in_its_records(monkeypatch, capsys,
                                                     lshape_meshes):
    # each step function advances a fake clock by its own power of two,
    # so every record's seconds are exact sums however often the clock
    # is read: the spaces, the factor and the Stokes operator's build
    # count to both chains, every other step to its own chain only
    now = [0.0]
    monkeypatch.setattr(biharm.solvers.time, "perf_counter", lambda: now[0])
    tick = {name: 2.0 ** i for i, name in enumerate(STEP_FUNCTIONS)}
    for name in STEP_FUNCTIONS:
        def advancing(*args, func=getattr(biharm.solvers, name),
                      seconds=tick[name], **kwargs):
            result = func(*args, **kwargs)
            now[0] += seconds
            return result

        monkeypatch.setattr(biharm.solvers, name, advancing)
    runs = run_chains(lshape_meshes[:2], 2,
                      [(fone, None), (fone, FORCE_INT_X)])
    level = {"spaces": tick["stokes_spaces"],
             "factor": tick["stiffness_factor"],
             "stokes_operator": tick["StokesOperator"]}
    psp = {**level,
           "poisson_w": tick["assemble_load"] + tick["solve_poisson"],
           "stokes_assembly": tick["assemble_stokes_rhs_discrete_curl"],
           "stokes": tick["solve_stokes"],
           "poisson_phi": tick["assemble_curl_rhs"] + tick["solve_poisson"]}
    sp = {**level,
          "stokes_assembly": tick["assemble_stokes_rhs_analytic"],
          "stokes": tick["solve_stokes"],
          "poisson_phi": tick["assemble_curl_rhs"] + tick["solve_poisson"]}
    for run, want in zip(runs, (psp, sp)):
        assert len(run) == 2
        for rec in run:
            assert list(rec.seconds.items()) == list(want.items())
    # the level's steps once and each chain's own steps cover exactly
    # the seconds of the level's progress line
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    for line, psp_rec, sp_rec in zip(lines, *runs):
        total = sum(psp_rec.seconds[name] for name in LEVEL_STEPS) + sum(
            seconds for rec in (psp_rec, sp_rec)
            for name, seconds in rec.seconds.items()
            if name not in LEVEL_STEPS)
        assert f" steps, {total:.2f} s, maxrss_mb " in line


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


def test_peak_step_is_the_step_that_last_raised_maxrss(monkeypatch,
                                                       lshape_meshes):
    # one ru_maxrss reading as a level begins and one as each step ends:
    # spaces, factor, the psp chain's poisson_w, stokes_assembly, then
    # stokes_operator, the psp chain's stokes and poisson_phi, then the
    # sp chain's stokes_assembly, stokes and poisson_phi
    readings = iter([
        10, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,  # spaces
        11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,  # no rise
        11, 11, 14, 14, 14, 15, 15, 15, 15, 15, 15,  # stokes_operator
        15, 15, 15, 16, 16, 16, 16, 16, 16, 17, 17])  # sp's stokes
    monkeypatch.setattr(biharm.solvers, "_maxrss_mb", lambda: next(readings))
    runs = run_chains(lshape_meshes, 2, [(fone, None), (fone, FORCE_INT_X)])
    assert next(readings, None) is None
    for run in runs:
        assert [rec.peak_step for rec in run] == [
            "spaces", None, "stokes_operator", "stokes"]
        assert [rec.maxrss_mb for rec in run] == [11, 11, 15, 17]


def test_solver_error_carries_level(monkeypatch, square_meshes):
    def boom(*args, **kwargs):
        raise ArithmeticError("synthetic failure")

    monkeypatch.setattr(biharm.solvers, "solve_stokes", boom)
    with pytest.raises(ArithmeticError, match="level 0"):
        run_sp(square_meshes[:2], fone, FORCE_INT_X, 2)


def test_galerkin_orthogonality_of_poisson_steps(square_meshes):
    rec = run_psp(square_meshes[:3], fone, 2)[-1]
    sspace = rec.phi.space
    a = assemble_stiffness(sspace)
    b = assemble_curl_rhs(sspace, rec.u)
    a2 = apply_dirichlet(a, sspace.boundary_dofs)
    b2 = b.copy()
    b2[sspace.boundary_dofs] = 0.0
    resid = np.linalg.norm(a2 @ rec.phi.coefficients - b2)
    assert resid <= 1e-9 * np.linalg.norm(b2)


def test_pressure_mean_zero_at_every_level(square_meshes):
    for rec in run_psp(square_meshes, fone, 2):
        pspace = rec.p.space
        mass_p = assemble_mass(pspace)
        xp = rec.p.coefficients
        mean = assemble_load(pspace, fone) @ xp
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
    w = poisson(space, assemble_load(space, f))
    # exact solution (1-x^2)(1-y^2) equals 1 at the center
    center = np.where((space.dof_coords == 0.0).all(axis=1))[0][0]
    assert abs(w.coefficients[center] - 1.0) < 5e-3
