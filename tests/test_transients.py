"""Finest-level temporaries stay about the size of their results.

tracemalloc sees numpy's buffers, so the peak it records over a call is
the most the call had allocated at once.  The mesh is the finest level
of the pipeline benchmark's Mini study: the kite graded with kappa = 0.3,
level 7.  A matrix's compact size is that of int32 indices and float64
values: nnz * 12 + (n + 1) * 4 bytes.
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
