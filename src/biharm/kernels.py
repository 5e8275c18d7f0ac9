"""Element-level assembly kernels as reference-tensor contractions.

On affine triangles every bilinear form factors into a geometry part,
a few numbers per element, and a reference tensor that depends only on
the basis and the quadrature rule (Kirby & Logg 2006, the tensor
representation of FFC).  Each kernel contracts the two with matrix
products, so no per-quadrature-point physical gradients are formed:

    stiffness   (nt x 4 metric |det| invT^T invT) @ (4 x nloc^2)
    divergence  (nt x 2 row d of -|det| invT)     @ (2 x nloc_v),
                one product per pressure function and derivative d
    load        (nt x nq values |det| f)          @ (nq x nloc)

Conventions: ``det`` are signed Jacobian determinants (2x triangle area),
``inv_t`` the transposed inverse Jacobians, ``gref`` reference-basis
gradients of shape (nq, nloc, 2), ``vals`` reference-basis values of
shape (nq, nloc), and ``w`` quadrature weights summing to 1/2, so
physical integrals scale by |det| alone.
"""

import numpy as np


def backend_name():
    """Name of the kernel implementation (there is one: numpy)."""
    return "numpy"


def element_stiffness(det, inv_t, gref, w):
    """Per-element grad-grad matrices, shape (nt, nloc, nloc)."""
    nt, nloc = len(det), gref.shape[1]
    # ref[e, f, i, j] = sum_q w_q dphi_i/dx_e dphi_j/dx_f (reference)
    ref = np.einsum("q,qie,qjf->efij", w, gref, gref).reshape(4, nloc * nloc)
    metric = np.abs(det)[:, None, None] * np.einsum("tde,tdf->tef", inv_t, inv_t)
    return (metric.reshape(nt, 4) @ ref).reshape(nt, nloc, nloc)


def element_mass(det, vals, w):
    """Per-element value-value matrices, shape (nt, nloc, nloc)."""
    ref = np.einsum("q,qi,qj->ij", w, vals, vals)
    return np.abs(det)[:, None, None] * ref


def element_divergence(det, inv_t, gref_v, vals_p, w):
    """Per-element -(div v, q) blocks, shape (nt, nloc_p, 2 nloc_v)."""
    nt = len(det)
    nloc_v, nloc_p = gref_v.shape[1], vals_p.shape[1]
    # ref[e, i, j] = sum_q w_q psi_i dphi_j/dx_e (reference)
    ref = np.einsum("q,qi,qje->eij", w, vals_p, gref_v)
    geo = -np.abs(det)[:, None, None] * inv_t  # (nt, d, e)
    # written in place: component-major columns, derivative d in block d
    out = np.empty((nt, nloc_p, 2, nloc_v))
    for i, d in np.ndindex(nloc_p, 2):
        np.matmul(geo[:, d], ref[:, i], out=out[:, i, d])
    return out.reshape(nt, nloc_p, 2 * nloc_v)


def element_load(det, vals, fq, w):
    """Per-element load vectors for values fq (nt, nq); shape (nt, nloc)."""
    return (np.abs(det)[:, None] * fq) @ (w[:, None] * vals)


def field_grads_at_quad(det, inv_t, gref, coeffs_loc):
    """Gradient of a scalar FE function at quad points, shape (nt, nq, 2)."""
    nq, nloc = gref.shape[:2]
    ref = coeffs_loc @ gref.transpose(1, 0, 2).reshape(nloc, 2 * nq)
    ref = ref.reshape(len(det), nq, 2)  # reference gradients
    # physical d-component: sum_e inv_t[d, e] * reference e-component
    return ref @ inv_t.transpose(0, 2, 1)
