"""Sparse solvers and the decoupled biharmonic pipelines.

The clamped biharmonic problem for the stream function phi is split
into standard second-order solves:

* ``sp``  : Stokes with analytic body force F (curl F = f), then a
  Poisson solve (grad phi, grad psi) = (curl u, psi).
* ``psp`` : Poisson solve for w with load f, Stokes with right-hand
  side (w, curl v) assembled from the discrete w, then the same final
  Poisson solve.

``run_chains`` runs any number of such chains level by level on shared
meshes and returns, per chain, its list of LevelRecords (solutions and
solver health), indexed by level; ``run_sp`` and ``run_psp`` run one.

Every solve on a level runs on one sparse LU of the scalar stiffness
matrix.  The Stokes system (Mini for k = 1, Taylor-Hood P_k / P_{k-1}
for k >= 2) applies it to both velocity components and solves for the
pressure by conjugate gradients on the Schur complement.  For k >= 2
the Poisson space is the velocity space; for Mini the P1+bubble
stiffness is the P1 stiffness plus a diagonal bubble block, so the
velocity solves reuse the P1 factor.  Either way one factorization
serves every solve of the level, for every chain run on it.

The pressure CG is preconditioned by a fixed Chebyshev semi-iteration
on the consistent pressure mass matrix, whose Jacobi-scaled spectrum is
bounded by that of one reference element, so it needs no factorization
of its own.  Each level after the first starts the CG from the coarser
level's pressure, prolongated exactly onto the finer mesh, and stops at
1e-13 |f|.
"""

import resource
import sys
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import (
    apply_dirichlet,
    assemble_curl_rhs,
    assemble_divergence,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_stokes_rhs_analytic,
    assemble_stokes_rhs_discrete_curl,
    poly_degree,
    vector_boundary_dofs,
)
from .quadrature import physical_points, triangle_rule
from .spaces import Field, build_space, call_on_points, jacobians, prolongate

__all__ = [
    "StokesSolution",
    "LevelRecord",
    "SpdFactor",
    "stiffness_factor",
    "stokes_spaces",
    "mass_bounds",
    "chebyshev_mass_inverse",
    "solve_stokes",
    "solve_poisson",
    "validate_curl",
    "run_chains",
    "run_sp",
    "run_psp",
]


@dataclass
class StokesSolution:
    u: Field
    p: Field
    iterations: int
    residual_norm: float
    pressure_mean: float     # m . p, bounded by the mean gate
    divergence_max: float    # largest |B u| entry, bounded by its gate
    assembly_seconds: float  # assembling B, pressure mass and load


@dataclass
class LevelRecord:
    level: int
    u: Field
    p: Field
    phi: Field
    w: Field = None
    iterations: int = 0           # Stokes pressure CG steps
    residual_norm: float = 0.0    # Stokes full-system gate residual
    pressure_mean: float = 0.0    # Stokes pressure mean m . p
    divergence_max: float = 0.0   # Stokes largest |B u| entry
    lu_solves: int = 0            # back-solves with the level's LU
    lu_residual_max: float = 0.0  # largest relative residual of those
    factor_nnz: int = 0           # stored L+U entries of that LU
    maxrss_mb: float = 0.0        # process peak RSS (MiB) when it ended
    seconds: dict = dc_field(default_factory=dict)


def _factor(a, **options):
    """Sparse LU; SuperLU rejects an exactly zero pivot itself."""
    try:
        return spla.splu(a, **options)
    except SystemError as exc:
        # seen when SuperLU ran out of L/U storage ("Can't expand MemType 0")
        raise MemoryError(f"sparse factorization failed ({exc})") from exc
    except RuntimeError as exc:
        diag = a.diagonal()
        idx = int(np.argmin(np.abs(diag)))
        raise ArithmeticError(
            f"sparse factorization failed ({exc}); "
            f"smallest diagonal magnitude at dof {idx}"
        ) from exc


class SpdFactor:
    """One sparse LU of a symmetric positive definite matrix, solved often.

    The matrix is factored once in minimum-degree order on A + A^T with
    diagonal pivots, which an SPD matrix never needs to exchange, and
    without relaxed supernodes (``relax=1``): on these finite-element
    stiffnesses SuperLU's default relaxation mostly stores explicit
    zeros (51 % more L+U entries on the graded level-7 kite P1
    stiffness), which cost more to factor and back-solve than its dense
    blocks save.  Given ``lead``, the SpdFactor of the leading block of
    ``a``, nothing new is factored: the trailing rows are taken as
    decoupled and diagonal (the Mini bubbles, whose gradients are
    orthogonal to those of P1 on every triangle), solved by that factor
    and a division.  Each ``solve`` takes one right-hand side or a block
    of columns and raises when the relative residual against ``a``
    reaches 1e-10 or is NaN, so coupling that ``lead`` ignores, or a
    non-finite right-hand side, fails loudly.
    ``solves`` counts the LU back-solves, one per call, and
    ``residual_max`` keeps the largest relative residual the gate
    measured; a factor built on ``lead`` records its calls on ``lead``,
    so the owner of an LU holds all of them.  No factor refers to
    itself, so dropping the last name frees its LU at once rather than
    at the next cyclic garbage collection.
    """

    def __init__(self, a, lead=None):
        self.matrix = sps.csc_matrix(a)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix is not square")
        self._lead = lead
        if lead is None:
            self._lu = _factor(self.matrix, permc_spec="MMD_AT_PLUS_A",
                               diag_pivot_thresh=0.0, relax=1,
                               options={"SymmetricMode": True})
            self._nlead = self.matrix.shape[0]
        else:
            self._lu = lead._lu
            self._nlead = lead.matrix.shape[0]
        self._tail = self.matrix.diagonal()[self._nlead:]
        self.solves = 0
        self.residual_max = 0.0

    @property
    def nnz(self):
        """Stored L+U entries of the LU (shared with ``lead``)."""
        return int(self._lu.nnz)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.matrix.shape[0]:
            raise ValueError("matrix/vector sizes do not match")
        n = self._nlead
        x = np.empty_like(b)
        owner = self._lead or self
        owner.solves += 1
        x[:n] = self._lu.solve(b[:n])
        x[n:] = b[n:] / self._tail.reshape((-1,) + (1,) * (b.ndim - 1))
        bnorm = float(np.linalg.norm(b))
        rel = (float(np.linalg.norm(self.matrix @ x - b))
               / (bnorm if bnorm > 0.0 else 1.0))
        owner.residual_max = max(owner.residual_max, rel)
        if not rel < 1e-10:  # a NaN residual fails too
            raise ArithmeticError(f"direct solve residual too large: {rel:.3e}")
        return x


def stiffness_factor(space, geometry, lead=None):
    """SpdFactor of the stiffness matrix with Dirichlet rows eliminated.

    ``geometry`` is ``jacobians`` of the space's mesh.  ``lead`` is
    passed on to SpdFactor: for a Mini space, the P1 stiffness factor of
    the same mesh.
    """
    # the CSR is dropped before SpdFactor factors its CSC copy
    return SpdFactor(apply_dirichlet(assemble_stiffness(space, geometry),
                                     space.boundary_dofs).tocsc(), lead)


def stokes_spaces(mesh, k):
    """Velocity/pressure pair: Mini for k=1, Taylor-Hood for k>=2."""
    if k == 1:
        return build_space(mesh, 1, "lagrange_bubble"), build_space(mesh, 1)
    if k in (2, 3):
        return build_space(mesh, k), build_space(mesh, k - 1)
    raise ValueError(f"unsupported polynomial order k={k}")


# Steps of the Chebyshev semi-iteration that applies the inverse
# pressure mass matrix inside the Stokes CG preconditioner.
CHEBYSHEV_STEPS = 3


def mass_bounds(space):
    """Extreme eigenvalues of D^-1 M on one reference element.

    M is the element mass matrix of ``space`` and D its diagonal.  The
    assembled mass matrix is a sum of element matrices that are each a
    multiple of the reference one, so its Jacobi-scaled spectrum lies in
    the same interval: [1/2, 2] for P1 and [(5 - sqrt 7) / 6,
    (8 + sqrt 19) / 6] for P2 (Wathen, IMA J. Numer. Anal. 7, 1987).
    """
    degree = poly_degree(space)
    if degree == 1:
        return 0.5, 2.0
    if degree == 2:
        return (5.0 - np.sqrt(7.0)) / 6.0, (8.0 + np.sqrt(19.0)) / 6.0
    raise ValueError(f"no mass bounds for a degree-{degree} pressure space")


def chebyshev_mass_inverse(mass, bounds):
    """Approximate M^-1 as a fixed Jacobi-preconditioned Chebyshev polynomial.

    ``bounds`` enclose the spectrum of D^-1 M (D = diag M).  The result
    is the operator r -> x after CHEBYSHEV_STEPS steps of the Chebyshev
    semi-iteration for M x = r from x = 0 (Saad, *Iterative Methods for
    Sparse Linear Systems*, Alg. 12.1), which is D^-1/2 p(S) D^-1/2 for
    S = D^-1/2 M D^-1/2 and one polynomial p positive on the bounds:
    symmetric positive definite, so it is a valid CG preconditioner.
    Its product with M has eigenvalues within 1/T(sigma) of 1, where T
    is the Chebyshev polynomial of degree CHEBYSHEV_STEPS and sigma is
    (hi + lo) / (hi - lo) (Wathen & Rees, ETNA 34, 2009).
    """
    dinv = 1.0 / mass.diagonal()
    lo, hi = bounds
    theta, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
    sigma = theta / delta

    def apply(r):
        rho = 1.0 / sigma
        d = dinv * r / theta
        x = d.copy()
        for _ in range(CHEBYSHEV_STEPS - 1):
            r = r - mass @ d
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = rho_next * rho * d + (2.0 * rho_next / delta) * (dinv * r)
            rho = rho_next
            x += d
        return x

    return spla.LinearOperator(mass.shape, matvec=apply, dtype=float)


def solve_stokes(vspace, pspace, rhs, factor, geometry, p0=None):
    """Solve the Stokes system with zero-mean pressure.

    With A the scalar stiffness of ``vspace`` (Dirichlet rows
    eliminated; ``factor`` is its SpdFactor, for Mini one built on the
    P1 factor) acting on both velocity components, and B the divergence
    with its boundary-velocity columns zeroed in place (their entries
    stay stored, as zeros), the pressure solves
    B A^-1 B^T p = B A^-1 f by conjugate gradients.  The preconditioner
    is ``chebyshev_mass_inverse`` of the pressure mass matrix, with the
    ``mass_bounds`` of ``pspace``; B A^-1 B^T is spectrally equivalent
    to that matrix, so the step count stays flat under refinement.  CG
    starts from zero, or from the exact prolongation onto ``pspace`` of
    ``p0``, a pressure Field on the same or a coarser mesh of the
    hierarchy (the pipelines pass the coarser level's pressure).  The CG
    residual is B u for the velocity u = A^-1 (f - B^T p), and CG stops
    once it falls below 1e-13 |f| (not relative to B A^-1 f, which psp's
    discrete curl load makes nearly zero).  The Schur complement is
    singular on constants only, so p is shifted to zero mean against
    m_i = integral of q_i before u is recovered; the pressure basis sums
    to 1, so m is M 1, the row sums of the pressure mass M.
    The result must meet the gates of the multiplier-bordered system
    [[A, B^T, 0], [B, 0, m], [0, m^T, 0]], whose multiplier is zero:
    a 1e-10 relative residual, zero pressure mean and zero divergence.
    The solution carries the mean m . p and the largest entry of |B u|
    that the last two gates bound.  ``geometry`` is ``jacobians`` of the
    spaces' mesh.
    """
    if vspace.mesh is not pspace.mesh:
        raise ValueError("velocity and pressure spaces use different meshes")
    nv = vspace.ndof
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (2 * nv,):
        raise ValueError("rhs length does not match the vector velocity space")
    t0 = time.perf_counter()
    keep = np.ones(2 * nv)
    keep[vector_boundary_dofs(vspace)] = 0.0
    b = assemble_divergence(vspace, pspace, geometry)
    b.data *= keep[b.indices]  # boundary-velocity columns, stored as zeros
    bt = b.T  # a CSC view: its matvec sums each row of B^T in column order
    f = rhs * keep
    mass_p = assemble_mass(pspace, geometry)
    mvec = mass_p @ np.ones(pspace.ndof)  # m_i = int q_i: the basis sums to 1
    assembly_seconds = time.perf_counter() - t0

    # velocity vectors are component-major; the factor solves both
    # components at once as the two columns of an (nv, 2) block
    def a_inv(v):
        return factor.solve(v.reshape(2, nv).T).T.ravel()

    def a_mul(v):
        return (factor.matrix @ v.reshape(2, nv).T).T.ravel()

    npres = pspace.ndof
    schur = spla.LinearOperator((npres, npres), dtype=float,
                                matvec=lambda q: b @ a_inv(bt @ q))
    steps = []
    fnorm = float(np.linalg.norm(f))
    x0 = None if p0 is None else prolongate(p0, pspace).coefficients
    precond = chebyshev_mass_inverse(mass_p, mass_bounds(pspace))
    xp, info = spla.cg(schur, b @ a_inv(f), x0=x0, rtol=0.0,
                       atol=1e-13 * fnorm, maxiter=1000, M=precond,
                       callback=steps.append)
    if info > 0:
        raise ArithmeticError(
            f"pressure CG did not converge in {info} iterations")
    xp = xp - float(mvec @ xp) / float(mvec.sum())
    xu = a_inv(f - bt @ xp)

    div = b @ xu
    mean = float(mvec @ xp)
    residual = float(np.sqrt(np.sum((a_mul(xu) + bt @ xp - f) ** 2)
                             + div @ div + mean ** 2))
    # each gate is written so that a NaN measurement fails it
    if not residual < 1e-10 * (fnorm if fnorm > 0.0 else 1.0):
        raise ArithmeticError(
            f"stokes solve residual too large: {residual:.3e}")
    pnorm = float(np.sqrt(xp @ (mass_p @ xp)))
    floor = 1e-13 * (1.0 + float(np.linalg.norm(rhs)))
    if not abs(mean) <= 1e-10 * pnorm + floor:
        raise ArithmeticError(f"pressure mean {abs(mean):.3e} not zero")
    unorm = float(np.sqrt(xu @ a_mul(xu)))
    divmax = float(np.max(np.abs(div))) if npres else 0.0
    if not divmax <= 1e-9 * unorm + floor:
        raise ArithmeticError(f"divergence residual {divmax:.3e} too large")
    return StokesSolution(Field(vspace, 2, xu), Field(pspace, 1, xp),
                          len(steps), residual, mean, divmax,
                          assembly_seconds)


def solve_poisson(space, rhs, factor):
    """Homogeneous-Dirichlet Poisson solve for an assembled load vector.

    ``factor`` is the space's stiffness_factor.
    """
    b = np.array(rhs, dtype=float)
    b[space.boundary_dofs] = 0.0
    x = factor.solve(b)
    x[space.boundary_dofs] = 0.0
    return Field(space, 1, x)


def validate_curl(mesh, f, F):
    """Check curl F = f by central differences at quadrature points.

    Samples the seven points of the degree-5 rule in every triangle of
    ``mesh`` (step 1e-6); raises when the residual exceeds
    1e-8 * (1 + max|f|).
    """
    lam, _ = triangle_rule(5)
    pts = physical_points(lam, mesh.points[mesh.triangles]).reshape(-1, 2)
    h = 1e-6
    dx, dy = np.array([h, 0.0]), np.array([0.0, h])
    f1, f2 = F
    curl = (call_on_points(f2, pts + dx)
            - call_on_points(f2, pts - dx)) / (2 * h)
    curl -= (call_on_points(f1, pts + dy)
             - call_on_points(f1, pts - dy)) / (2 * h)
    fv = call_on_points(f, pts)
    resid = float(np.max(np.abs(curl - fv)))
    tol = 1e-8 * (1.0 + float(np.max(np.abs(fv))))
    if not resid < tol:  # a NaN residual fails too
        raise ValueError(
            f"curl F does not match f: residual {resid:.3e} exceeds {tol:.3e}"
        )
    return resid


def _level_factors(vspace, pspace, geometry):
    """The level's P_k Poisson space, its factor and the velocity factor.

    One splu serves the level: for k >= 2 the Poisson space is the
    velocity space, and for Mini it is the P1 pressure space, whose
    factor the velocity factor reuses before dividing by the bubble
    diagonal.
    """
    if vspace.kind == "lagrange":
        factor = stiffness_factor(vspace, geometry)
        return vspace, factor, factor
    sfactor = stiffness_factor(pspace, geometry)
    return pspace, sfactor, stiffness_factor(vspace, geometry, sfactor)


def run_chains(meshes, k, chains):
    """Run every chain on ``meshes`` with one factorization per level.

    Each chain is ``(f, F)``: sp with the analytic force F, whose curl
    F = f is checked on the first refinement before any level is
    solved, or psp when F is None.  On each level every chain in turn
    runs its w (psp), Stokes and phi solves and ends as one LevelRecord.
    Each chain's CG starts from its own coarser pressure, so each
    chain's returned list of LevelRecords, one per mesh, equals a run of
    that chain alone, except that the records report the shared factor:
    its ``factor_nnz``, and ``lu_solves``, ``lu_residual_max`` and
    ``seconds["factor"]`` over all chains.  The level's geometry
    (``jacobians``) is computed once and serves every assembly on it.
    Each finished level writes one progress line to stderr, led by the
    kappa that graded the hierarchy's refinements.
    """
    for f, F in chains:
        if F is not None:
            validate_curl(meshes[min(1, len(meshes) - 1)], f, F)
    runs = [[] for _ in chains]
    kappa = meshes[-1].kappa  # None when nothing was refined
    label = "" if kappa is None else f"kappa={kappa:g} "
    for mesh in meshes:
        start = time.perf_counter()
        geometry = jacobians(mesh)
        vspace, pspace = stokes_spaces(mesh, k)
        try:
            t0 = time.perf_counter()
            sspace, sfactor, vfactor = _level_factors(vspace, pspace,
                                                      geometry)
            factor_s = time.perf_counter() - t0
            for (f, F), run in zip(chains, runs):
                secs = {"factor": factor_s}
                w = None
                if F is None:
                    t0 = time.perf_counter()
                    w = solve_poisson(
                        sspace, assemble_load(sspace, f, geometry), sfactor)
                    secs["poisson_w"] = time.perf_counter() - t0
                t0 = time.perf_counter()
                rhs = (assemble_stokes_rhs_analytic(vspace, F, geometry)
                       if w is None else
                       assemble_stokes_rhs_discrete_curl(vspace, w, geometry))
                rhs_s = time.perf_counter() - t0
                sol = solve_stokes(vspace, pspace, rhs, vfactor, geometry,
                                   run[-1].p if run else None)
                secs["stokes_assembly"] = rhs_s + sol.assembly_seconds
                secs["stokes"] = (time.perf_counter() - t0
                                  - secs["stokes_assembly"])
                t0 = time.perf_counter()
                phi = solve_poisson(
                    sspace, assemble_curl_rhs(sspace, sol.u, geometry),
                    sfactor)
                secs["poisson_phi"] = time.perf_counter() - t0
                run.append(LevelRecord(
                    mesh.level, sol.u, sol.p, phi, w=w,
                    iterations=sol.iterations,
                    residual_norm=sol.residual_norm,
                    pressure_mean=sol.pressure_mean,
                    divergence_max=sol.divergence_max, seconds=secs))
        except ArithmeticError as exc:
            raise ArithmeticError(f"level {mesh.level}: {exc}") from exc
        # ru_maxrss is in KiB on Linux, for the whole process
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        level = [run[-1] for run in runs]
        for rec in level:  # totals of the factor every chain solved on
            rec.lu_solves = sfactor.solves
            rec.lu_residual_max = sfactor.residual_max
            rec.factor_nnz = sfactor.nnz
            rec.maxrss_mb = maxrss_mb
        steps = "/".join(str(rec.iterations) for rec in level)
        sys.stderr.write(
            f"{label}level {mesh.level}: {len(mesh.triangles)} triangles, "
            f"factor_nnz {sfactor.nnz}, cg {steps} steps, "
            f"{time.perf_counter() - start:.2f} s, maxrss_mb {maxrss_mb:.1f}\n")
        del sfactor, vfactor, geometry
    return runs


def run_sp(meshes, f, F, k):
    """Stokes-Poisson pipeline: ``run_chains`` with the one chain (f, F).

    ``F`` is the analytic Stokes body force, a pair of callables with
    curl F = f.
    """
    return run_chains(meshes, k, [(f, F)])[0]


def run_psp(meshes, f, k):
    """Poisson-Stokes-Poisson pipeline for the biharmonic load ``f(x, y)``."""
    return run_chains(meshes, k, [(f, None)])[0]
