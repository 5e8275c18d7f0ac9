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
the Poisson space is the velocity space.  For Mini it is the P1
pressure space: on affine triangles each bubble's gradient is
orthogonal to every P1 gradient, so the bubbles are eliminated triangle
by triangle and the Stokes solve runs on P1 objects only, the P1
factor among them.  Either way one factorization serves every solve of
the level, for every chain run on it, as one StokesOperator (B, pressure
mass, preconditioner) serves its Stokes solves.

The pressure CG is preconditioned by a fixed Chebyshev semi-iteration
on the consistent pressure mass matrix, whose Jacobi-scaled spectrum is
bounded by that of one reference element, so it needs no factorization
of its own.  Each level after the first starts the CG from the coarser
level's pressure, prolongated exactly onto the finer mesh, and stops at
1e-13 |f|.
"""

import contextlib
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
    vector_boundary_dofs,
)
from .quadrature import physical_points, triangle_rule
from .spaces import (Field, basis_ref_grads, build_space, call_on_points,
                     prolongate)

__all__ = [
    "LevelRecord",
    "SpdFactor",
    "stiffness_factor",
    "stokes_spaces",
    "mass_bounds",
    "chebyshev_mass_inverse",
    "StokesOperator",
    "solve_stokes",
    "solve_poisson",
    "validate_curl",
    "run_chains",
    "run_sp",
    "run_psp",
]


@dataclass
class LevelRecord:
    level: int
    u: Field
    p: Field
    phi: Field = None
    w: Field = None
    iterations: int = 0           # Stokes pressure CG steps
    residual_norm: float = 0.0    # Stokes full-system gate residual
    pressure_mean: float = 0.0    # Stokes pressure mean m . p
    divergence_max: float = 0.0   # Stokes largest |B u| entry
    lu_solves: int = 0            # back-solves with the level's LU
    lu_residual_max: float = 0.0  # largest relative residual of those
    factor_nnz: int = 0           # stored L+U entries of that LU
    maxrss_mb: float = 0.0        # process peak RSS (MiB) when it ended
    peak_step: str = None         # the step during which that last rose
    seconds: dict = dc_field(default_factory=dict)


class SpdFactor:
    """One sparse LU of a symmetric positive definite matrix, solved often.

    The matrix is factored once in minimum-degree order on A + A^T with
    diagonal pivots, which an SPD matrix never needs to exchange, and
    without relaxed supernodes (``relax=1``): on these finite-element
    stiffnesses SuperLU's default relaxation mostly stores explicit
    zeros (51 % more L+U entries on the graded level-7 kite P1
    stiffness), which cost more to factor and back-solve than its dense
    blocks save.  Each ``solve`` takes one right-hand side or a block
    of columns and raises when the relative residual against the matrix
    reaches 1e-10 or is NaN, so a non-finite right-hand side fails
    loudly.  ``solves`` counts the LU back-solves, one per call, and
    ``residual_max`` keeps the largest relative residual the gate
    measured.  No factor refers to itself, so dropping the last name
    frees its LU at once rather than at the next cyclic garbage
    collection.
    """

    def __init__(self, a):
        self.matrix = sps.csc_matrix(a)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix is not square")
        try:  # SuperLU rejects an exactly zero pivot itself
            self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0, relax=1,
                                 options={"SymmetricMode": True})
        except SystemError as exc:
            # SuperLU out of L/U storage ("Can't expand MemType 0")
            raise MemoryError(f"sparse factorization failed ({exc})") from exc
        except RuntimeError as exc:
            idx = int(np.argmin(np.abs(self.matrix.diagonal())))
            raise ArithmeticError(
                f"sparse factorization failed ({exc}); "
                f"smallest diagonal magnitude at dof {idx}"
            ) from exc
        self.solves = 0
        self.residual_max = 0.0

    @property
    def nnz(self):
        """Stored L+U entries of the LU."""
        return int(self._lu.nnz)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if b.shape[0] != self.matrix.shape[0]:
            raise ValueError("matrix/vector sizes do not match")
        self.solves += 1
        x = self._lu.solve(b)
        bnorm = float(np.linalg.norm(b))
        rel = (float(np.linalg.norm(self.matrix @ x - b))
               / (bnorm if bnorm > 0.0 else 1.0))
        self.residual_max = max(self.residual_max, rel)
        if not rel < 1e-10:  # a NaN residual fails too
            raise ArithmeticError(f"direct solve residual too large: {rel:.3e}")
        return x


def stiffness_factor(space):
    """SpdFactor of the stiffness matrix with Dirichlet rows eliminated."""
    # the CSR is dropped before SpdFactor factors its CSC copy
    return SpdFactor(apply_dirichlet(assemble_stiffness(space),
                                     space.boundary_dofs).tocsc())


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
    degree = space.poly_degree
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


class StokesOperator:
    """A level's Stokes matrices, assembled once for every right-hand side.

    ``factor`` is the SpdFactor of A, the scalar stiffness (Dirichlet
    rows eliminated) of the velocity's Lagrange part: the velocity space
    for Taylor-Hood, the P1 space ``pspace`` for Mini.  It acts on both
    velocity components.  ``keep`` is False on the boundary velocities
    of that Lagrange part and True elsewhere; ``b`` is its divergence B
    against ``pspace`` with those columns zeroed in place (stored as
    zeros), ``mass`` the pressure mass M, ``mvec`` m = M 1 (m_i = int
    q_i: the basis sums to 1) and ``precond`` ``chebyshev_mass_inverse``
    of M on the ``mass_bounds`` of ``pspace``.  ``bubbles`` is the Mini
    velocity's bubble block, ``_Bubbles``, or None for Taylor-Hood.
    """

    def __init__(self, vspace, pspace, factor):
        self.vspace, self.pspace, self.factor = vspace, pspace, factor
        mini = vspace.kind == "lagrange_bubble"
        lagrange = pspace if mini else vspace
        self.keep = np.ones(2 * lagrange.ndof, dtype=bool)
        self.keep[vector_boundary_dofs(lagrange)] = False
        self.b = assemble_divergence(lagrange, pspace)
        self.b.data *= self.keep[self.b.indices]
        self.bubbles = _Bubbles(pspace) if mini else None
        self.mass = assemble_mass(pspace)
        self.mvec = self.mass @ np.ones(pspace.ndof)
        self.precond = chebyshev_mass_inverse(self.mass, mass_bounds(pspace))


class _Bubbles:
    """The bubble block of a Mini Stokes system, eliminated per triangle.

    On an affine triangle T the gradient of the bubble b_T is orthogonal
    to every P1 gradient, so the Mini stiffness is the P1 stiffness
    beside the diagonal ``diag``, D_T = int_T |grad b_T|^2 (Arnold,
    Brezzi & Fortin, Calcolo 21, 1984).  Integrating by parts, b_T's
    divergence entries are -int_T q_i div(b_T e_d) = (det_T / 120)
    d lambda_i / dx_d, so the divergence block Bb is applied triangle by
    triangle (``div``, ``grad``) and never assembled.  Eliminating the
    bubbles adds ``c``, C = Bb D^-1 Bb^T, to the pressure block: a P1
    stiffness whose triangle T carries the weight (det_T / 120)^2 / D_T.
    """

    def __init__(self, pspace):
        self.mesh = mesh = pspace.mesh
        self.npres = pspace.ndof
        self.gref = basis_ref_grads(pspace, np.full((1, 3), 1.0 / 3.0))[0]
        # grad b_T = sum_i lambda_j lambda_k grad lambda_i ({i, j, k} =
        # {0, 1, 2}) and sum_i grad lambda_i = 0 give
        # D_T = (det_T / 360) sum_i |grad lambda_i|^2
        grads = self.gref @ mesh.inv_t.transpose(0, 2, 1)
        self.diag = mesh.det / 360.0 * np.einsum("tid,tid->t", grads, grads)
        del grads
        # assemble_stiffness weights int_T, which is (det_T / 2) grad.grad
        self.c = assemble_stiffness(pspace, mesh.det / (7200.0 * self.diag))

    def grad(self, p):
        """Bb^T p: (det_T / 120) grad p on every triangle, shape (2, nt)."""
        mesh = self.mesh
        g = np.einsum("tde,te->dt", mesh.inv_t, p[mesh.triangles] @ self.gref)
        return g * (mesh.det / 120.0)

    def div(self, ub):
        """Bb ub for bubble coefficients ``ub`` of shape (2, nt)."""
        mesh = self.mesh
        v = np.einsum("tde,dt->te", mesh.inv_t, ub * (mesh.det / 120.0))
        return np.bincount(mesh.triangles.ravel(), (v @ self.gref.T).ravel(),
                           minlength=self.npres)


def solve_stokes(op, rhs, p0=None):
    """Solve the Stokes system of the StokesOperator ``op``, zero-mean pressure.

    The pressure solves S p = B A^-1 f by conjugate gradients,
    preconditioned by ``op.precond``, with S = B A^-1 B^T; S is
    spectrally equivalent to the pressure mass, so the step count stays
    flat under refinement.  For Mini, f is the right-hand side's P1
    part, and the bubble part f_b adds C to S and Bb D^-1 f_b to the
    right-hand side (``_Bubbles``).  CG starts from zero, or from the
    exact prolongation onto the pressure space of ``p0``, a pressure
    Field on the same or a coarser mesh of the hierarchy (the pipelines
    pass the coarser level's pressure).  The CG residual is the
    divergence of the velocity u = A^-1 (f - B^T p) (with the bubbles
    u_b = D^-1 (f_b - Bb^T p)), and CG stops once it falls below
    1e-13 |f| (not relative to the starting residual, which psp's
    discrete curl load makes nearly zero).  The Schur complement is
    singular on constants only, so p is shifted to zero mean against m
    before u is recovered.  The result must meet the gates of the
    multiplier-bordered system [[A, B^T, 0], [B, 0, m], [0, m^T, 0]]
    (for Mini, A and B with their bubble blocks), whose multiplier is
    zero: a 1e-10 relative residual, zero pressure mean and zero
    divergence.  It returns the level's LevelRecord without ``phi``,
    ``w`` or timings.
    """
    vspace, pspace, factor, b = op.vspace, op.pspace, op.factor, op.b
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (2 * vspace.ndof,):
        raise ValueError("rhs length does not match the vector velocity space")
    nv = len(op.keep) // 2
    bt = b.T  # a CSC view: its matvec sums each row of B^T in column order
    loads = rhs.reshape(2, vspace.ndof)
    f = loads[:, :nv].reshape(-1) * op.keep
    fb, bub = loads[:, nv:], op.bubbles  # no bubble loads for Taylor-Hood
    fnorm = float(np.hypot(np.linalg.norm(f), np.linalg.norm(fb)))

    # velocity vectors are component-major; the factor solves both
    # components at once as the two columns of an (nv, 2) block
    def a_inv(v):
        return factor.solve(v.reshape(2, nv).T).T.ravel()

    npres = pspace.ndof
    if bub is None:
        schur = spla.LinearOperator((npres, npres), dtype=float,
                                    matvec=lambda q: b @ a_inv(bt @ q))
        schur_rhs = b @ a_inv(f)
    else:
        if not np.isfinite(fb).all():
            raise ArithmeticError("bubble load is not finite")
        schur = spla.LinearOperator(
            (npres, npres), dtype=float,
            matvec=lambda q: b @ a_inv(bt @ q) + bub.c @ q)
        schur_rhs = b @ a_inv(f) + bub.div(fb / bub.diag)
    steps = []
    x0 = None if p0 is None else prolongate(p0, pspace).coefficients
    xp, info = spla.cg(schur, schur_rhs, x0=x0, rtol=0.0,
                       atol=1e-13 * fnorm, maxiter=1000, M=op.precond,
                       callback=steps.append)
    if info > 0:
        raise ArithmeticError(
            f"pressure CG did not converge in {info} iterations")
    xp = xp - float(op.mvec @ xp) / float(op.mvec.sum())
    xu = a_inv(f - bt @ xp)

    div = b @ xu
    mean = float(op.mvec @ xp)
    au = (factor.matrix @ xu.reshape(2, nv).T).T.ravel()
    squares = np.sum((au + bt @ xp - f) ** 2)
    energy = xu @ au
    del au  # not alive while the bubble block is joined to xu
    if bub is not None:
        gp = bub.grad(xp)
        xb = (fb - gp) / bub.diag
        div += bub.div(xb)
        squares += np.sum((bub.diag * xb + gp - fb) ** 2)
        energy += np.sum(bub.diag * xb ** 2)
        xu = np.concatenate([xu.reshape(2, nv), xb], axis=1).ravel()
    residual = float(np.sqrt(squares + div @ div + mean ** 2))
    # each gate is written so that a NaN measurement fails it
    if not residual < 1e-10 * (fnorm if fnorm > 0.0 else 1.0):
        raise ArithmeticError(
            f"stokes solve residual too large: {residual:.3e}")
    pnorm = float(np.sqrt(xp @ (op.mass @ xp)))
    floor = 1e-13 * (1.0 + float(np.linalg.norm(rhs)))
    if not abs(mean) <= 1e-10 * pnorm + floor:
        raise ArithmeticError(f"pressure mean {abs(mean):.3e} not zero")
    unorm = float(np.sqrt(energy))
    divmax = float(np.max(np.abs(div))) if npres else 0.0
    if not divmax <= 1e-9 * unorm + floor:
        raise ArithmeticError(f"divergence residual {divmax:.3e} too large")
    return LevelRecord(vspace.mesh.level, Field(vspace, 2, xu),
                       Field(pspace, 1, xp), iterations=len(steps),
                       residual_norm=residual, pressure_mean=mean,
                       divergence_max=divmax)


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


def _maxrss_mb():
    # ru_maxrss is in KiB on Linux, for the whole process
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Clock:
    """Wall seconds and peak RSS of the steps of one level.

    ``with clock.step(seconds, name):`` adds the seconds of its block to
    ``seconds[name]``.  A step may run inside another, whose seconds
    then include it; as the outermost step ends, ``ru_maxrss`` is read
    once.  ``mb`` holds the last reading and ``peak_step`` the last step
    that raised it above the reading made when the level began (None if
    none did), so a rise while the level builds its spaces counts to
    its first step.
    """

    def __init__(self):
        self.mb, self.peak_step, self._open = _maxrss_mb(), None, 0

    @contextlib.contextmanager
    def step(self, seconds, name):
        self._open += 1
        start = time.perf_counter()
        yield
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
        self._open -= 1
        if not self._open:
            mb = _maxrss_mb()
            if mb > self.mb:
                self.mb, self.peak_step = mb, name


def run_chains(meshes, k, chains):
    """Run every chain on ``meshes`` with one factorization per level.

    Each chain is ``(f, F)``: sp with the analytic force F, whose curl
    F = f is checked on the first refinement before any level is
    solved, or psp when F is None.  On each level every chain in turn
    runs its w (psp), Stokes and phi solves and ends as one LevelRecord.
    Each chain's CG starts from its own coarser pressure, so each
    chain's returned list of LevelRecords, one per mesh, equals a run of
    that chain alone, except that the records report what the chains
    share: the factor's ``factor_nnz``, ``lu_solves``, ``lu_residual_max``
    and ``seconds["factor"]``, and in ``seconds["stokes_assembly"]`` the
    build of the level's one StokesOperator, made after the level's first
    Stokes right-hand side and dropped once the last chain's Stokes solve
    returns, and the process's ``maxrss_mb`` as the level ends with the
    ``peak_step`` during which it last rose.  Each finished level writes
    one progress line to stderr, led by the kappa that graded the
    hierarchy's refinements.
    """
    for f, F in chains:
        if F is not None:
            validate_curl(meshes[min(1, len(meshes) - 1)], f, F)
    runs = [[] for _ in chains]
    kappa = meshes[-1].kappa  # None when nothing was refined
    label = "" if kappa is None else f"kappa={kappa:g} "
    for mesh in meshes:
        start = time.perf_counter()
        clock = _Clock()
        vspace, pspace = stokes_spaces(mesh, k)
        shared = {}  # the factor and the operator build, in every record
        try:
            with clock.step(shared, "factor"):
                # the Poisson space: the velocity space, or P1 for Mini
                sspace = vspace if vspace.kind == "lagrange" else pspace
                sfactor = stiffness_factor(sspace)
            op = None
            for (f, F), run in zip(chains, runs):
                secs = {"factor": shared["factor"]}
                w = None
                if F is None:
                    with clock.step(secs, "poisson_w"):
                        w = solve_poisson(
                            sspace, assemble_load(sspace, f), sfactor)
                if op is not None:  # built in an earlier chain's step
                    secs["stokes_assembly"] = shared["stokes_assembly"]
                with clock.step(secs, "stokes_assembly"):
                    rhs = (assemble_stokes_rhs_analytic(vspace, F)
                           if w is None
                           else assemble_stokes_rhs_discrete_curl(vspace, w))
                    if op is None:  # after the level's first right-hand side
                        with clock.step(shared, "stokes_assembly"):
                            op = StokesOperator(vspace, pspace, sfactor)
                with clock.step(secs, "stokes"):
                    rec = solve_stokes(op, rhs, run[-1].p if run else None)
                if run is runs[-1]:  # no phi solve holds B and M
                    op = None
                with clock.step(secs, "poisson_phi"):
                    rec.phi = solve_poisson(
                        sspace, assemble_curl_rhs(sspace, rec.u), sfactor)
                rec.w, rec.seconds = w, secs
                run.append(rec)
        except ArithmeticError as exc:
            raise ArithmeticError(f"level {mesh.level}: {exc}") from exc
        level = [run[-1] for run in runs]
        for rec in level:  # totals of the factor every chain solved on
            rec.lu_solves = sfactor.solves
            rec.lu_residual_max = sfactor.residual_max
            rec.factor_nnz = sfactor.nnz
            rec.maxrss_mb = clock.mb
            rec.peak_step = clock.peak_step
        steps = "/".join(str(rec.iterations) for rec in level)
        sys.stderr.write(
            f"{label}level {mesh.level}: {len(mesh.triangles)} triangles, "
            f"factor_nnz {sfactor.nnz}, cg {steps} steps, "
            f"{time.perf_counter() - start:.2f} s, maxrss_mb {clock.mb:.1f}\n")
        del sfactor
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
