"""Finest-level temporaries stay about the size of their results.

tracemalloc sees numpy's buffers, so the peak it records over a call is
the most the call had allocated at once.  The mesh is the finest level
of the pipeline benchmark's Mini study: the kite graded with kappa = 0.3,
level 7.  A matrix's compact size is that of int32 indices and float64
values: nnz * 12 + (n + 1) * 4 bytes.  The pipeline no longer assembles
a Mini stiffness or divergence (its Stokes solve eliminates the bubbles
per triangle), so their bounds hold the assemblers themselves, not a
step of a study.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from biharm import analysis
from biharm import assembly as asm
from biharm import meshing as msh
from biharm import spaces as sp


@pytest.fixture(scope="module")
def kite67():
    _, root = msh.builtin_domain("convex_11pi12")
    return msh.refine_hierarchy(root, 7, 0.3)[6:]


def traced(call):
    """call(), the peak bytes allocated during it and the bytes it kept."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


def compact_bytes(a):
    return a.nnz * 12 + (a.shape[0] + 1) * 4


# bound on the call's peak and on what it keeps, in compact sizes
ASSEMBLY_BOUNDS = {"peak": 3.5, "kept": 1.05}


@pytest.mark.parametrize("measure", sorted(ASSEMBLY_BOUNDS))
@pytest.mark.parametrize("operator", ["divergence", "stiffness"])
def test_mini_assembly_transients(kite67, operator, measure):
    mini = sp.build_space(kite67[1], 1, "lagrange_bubble")
    if operator == "divergence":
        pressure = sp.build_space(kite67[1], 1)
        a, peak, kept = traced(
            lambda: asm.assemble_divergence(mini, pressure))
    else:
        a, peak, kept = traced(lambda: asm.assemble_stiffness(mini))
    measured = {"peak": peak, "kept": kept}[measure]
    assert measured <= ASSEMBLY_BOUNDS[measure] * compact_bytes(a)


def test_mini_to_p3_prolongate_transients(kite67):
    coarse = sp.build_space(kite67[0], 1, "lagrange_bubble")
    u = sp.Field(coarse, 2, np.random.default_rng(3).normal(
        size=2 * coarse.ndof))
    p3 = sp.build_space(kite67[1], 3)
    v, peak, _ = traced(lambda: sp.prolongate(u, p3))
    assert peak <= 4.5 * v.coefficients.nbytes


@pytest.mark.parametrize("norm", ["H1", "L2"])
def test_mini_difference_in_p3_norm_transients(kite67, norm):
    # the rate loop's heaviest norm: a level-7 Mini velocity minus the
    # level-6 one, both lifted into P3; the integrand is formed one block
    # of triangles at a time (unblocked, the peak was 5.9-6.8x)
    rng = np.random.default_rng(5)
    fields = []
    for mesh in kite67:
        mini = sp.build_space(mesh, 1, "lagrange_bubble")
        fields.append(sp.Field(mini, 2, rng.normal(size=2 * mini.ndof)))
    coarse, fine = fields
    lifted, lifted_coarse = analysis.lift_pairs(fine, coarse, (norm,))[norm]
    delta = sp.Field(lifted.space, 2,
                     lifted.coefficients - lifted_coarse.coefficients)
    _, peak, _ = traced(lambda: analysis.field_norm(delta, norm))
    assert peak <= 2.5 * delta.coefficients.nbytes


# A load assembler may hold its result, its (count, nt, nloc) element
# vectors, the int64 copy of the element DOFs that np.bincount makes,
# and LOAD_BLOCKS arrays of one float64 per quadrature point of one
# block of spaces.blocks, BLOCK_ROWS triangles (7 points, the
# largest rule here).
# Measured: 0.45 (load), 0.63 (analytic Stokes), 0.63 (discrete curl)
# and 0.60 (curl) of the bound; formed for all triangles at once, the
# four peaked at 2.30, 2.04, 2.04 and 4.71 times it.
LOAD_BLOCKS = 6


@pytest.mark.parametrize("assembler", ["load", "stokes_rhs_analytic",
                                       "stokes_rhs_discrete_curl", "curl_rhs"])
def test_load_transients(kite67, assembler):
    # the spaces of the Mini pipeline: Stokes loads on the Mini velocity,
    # Poisson loads on P1, w on P1 and u on Mini
    mini = sp.build_space(kite67[1], 1, "lagrange_bubble")
    p1 = sp.build_space(kite67[1], 1)
    rng = np.random.default_rng(7)
    w = sp.Field(p1, 1, rng.normal(size=p1.ndof))
    u = sp.Field(mini, 2, rng.normal(size=2 * mini.ndof))

    def f(x, y):
        return x * y

    space, count, call = {
        "load": (p1, 1, lambda: asm.assemble_load(p1, f)),
        "stokes_rhs_analytic": (
            mini, 2, lambda: asm.assemble_stokes_rhs_analytic(mini, (f, f))),
        "stokes_rhs_discrete_curl": (
            mini, 2, lambda: asm.assemble_stokes_rhs_discrete_curl(mini, w)),
        "curl_rhs": (p1, 1, lambda: asm.assemble_curl_rhs(p1, u)),
    }[assembler]
    b, peak, _ = traced(call)
    dofs = space.element_dofs.size * 8
    bound = (b.nbytes + count * dofs + dofs
             + LOAD_BLOCKS * sp.BLOCK_ROWS * 7 * 8)
    assert peak <= bound
