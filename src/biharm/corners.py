"""Corner exponents for polygonal domains.

At a corner of interior opening ``omega`` the regularity of the clamped
biharmonic solution is governed by the smallest characteristic exponent

    alpha0(omega) = min Re(z)  over nontrivial roots of
                    sin^2(z*omega) = z^2 * sin^2(omega)

restricted to Re(z) > 1/2.  The root z = 1 solves the equation for every
omega and carries no singularity information, so it is excluded.  The
companion threshold beta0 = pi/omega limits how much a graded mesh can
improve the convergence of the intermediate Stokes velocity.

With zeta = z*omega the equation splits into the two factors
sin(zeta) = b*zeta, b = +-sin(omega)/omega, |b| < 1; z = 1 is the root
zeta = omega of the b = +sin(omega)/omega factor.  A root x + iy with
y > 0 satisfies cos(x) sinh(y) = b*y and sin(x) cosh(y) = b*x.  The
first equation gives x = 2k*pi +- arccos(b*y/sinh(y)), one branch per
interval ((m-1)*pi, m*pi), so on each branch the second equation is one
real function of y.  Every root in the window is therefore a sign change
on a fixed grid: of sin(x) - b*x on the real axis, and of a branch
function in y.  Each sign change is bisected and then polished by
Newton's method on sin(zeta) - b*zeta.  Everything is deterministic; no
randomness is involved anywhere.
"""

import math

import numpy as np

__all__ = [
    "solve_alpha0",
    "beta0",
    "characteristic_roots",
]

# Window in zeta = z * omega.  alpha0 * omega stays below 1.5 pi: it peaks
# at 1.43 pi near omega = 0.81 pi and tends to 4.2124, the first
# nontrivial root of sin(zeta) = -zeta, as omega -> 0.  A root has
# sinh|Im zeta| <= |zeta| (|sin(zeta)| = |b zeta| <= |zeta|), so no root
# with Re zeta <= 3 pi lies above Im zeta = 3; the second root reaches
# Im zeta = 2.77 for omega < 0.39 pi.
_ZETA_RE_MAX = 3.0 * math.pi
_ZETA_IM_MAX = 4.0
# Step of the sign-change scans, in zeta.
_ZETA_STEP = 1.5e-3
_BISECTIONS = 30  # a bracket of one step shrinks to 1.4e-12, then Newton
_NEWTON_STEPS = 4


def _validate_omega(omega):
    if not (0.0 < omega < 2.0 * math.pi):
        raise ValueError(f"opening angle must lie in (0, 2pi), got {omega!r}")
    if omega == math.pi:
        raise ValueError("opening angle pi is a straight edge, not a corner")


def _bisect(func, t):
    """Bisected sign changes along each row of the grid ``t``.

    ``func(s, row)`` evaluates the real function of scan ``row`` at ``s``.
    Returns the row and the abscissa of every root.
    """
    v = func(t, np.arange(len(t))[:, None])
    row, i = np.nonzero(np.sign(v[:, :-1]) * np.sign(v[:, 1:]) < 0.0)
    lo, hi, flo = t[row, i], t[row, i + 1], v[row, i]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        fmid = func(mid, row)
        left = np.sign(fmid) != np.sign(flo)
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
    return row, 0.5 * (lo + hi)


def characteristic_roots(omega):
    """All roots of sin^2(z*omega) = z^2 sin^2(omega) in the search window.

    Returns the nontrivial roots with Re(z) in (1/2, 3 pi / omega] and
    Im(z) in [0, 4 / omega], which holds every root with Re(z) in that
    range, one of each conjugate pair, sorted by (Re, Im).  Raises
    ArithmeticError if it finds none.
    """
    _validate_omega(omega)
    lo, hi = 0.5 * omega, _ZETA_RE_MAX
    b = math.sin(omega) / omega
    b = np.array([b, -b])  # the first factor holds the trivial root omega

    # real axis: the critical points 2k pi +- arccos(b) split it into
    # pieces where sin(x) - b*x is monotone, so a close root pair
    # straddles one of them
    turns = 2.0 * math.pi * np.arange(math.ceil(hi / (2.0 * math.pi)) + 1)
    acos_b = np.arccos(b)[:, None]
    grid = np.append(np.arange(lo, hi, _ZETA_STEP), [hi, omega])
    x = np.hstack([np.broadcast_to(grid, (2, len(grid))),
                   turns - acos_b, turns + acos_b])
    x = np.sort(np.clip(x, lo, hi), axis=1)
    trivial = np.array([omega, np.nan])

    def real(s, row):  # exactly 0 at the trivial root, so no bracket ends there
        return np.where(s == trivial[row], 0.0, np.sin(s) - b[row] * s)

    row, xr = _bisect(real, x)
    zeta, zb = [xr.astype(complex)], [b[row]]

    # one scan per factor and branch m, which covers Re in ((m-1) pi, m pi)
    # with x = turn pi + sign arccos(b y / sinh(y))
    m = np.arange(1, math.ceil(hi / math.pi) + 1)
    sign = np.tile(2.0 * (m % 2) - 1.0, 2)
    turn = np.tile(m - m % 2, 2) * math.pi
    bm = np.repeat(b, len(m))

    def cos_x(y, row):  # b y / sinh(y), which tends to b as y -> 0
        return bm[row] * np.divide(y, np.sinh(y), out=np.ones_like(y),
                                   where=y > 0.0)

    def branch(y, row):
        c = cos_x(y, row)
        x = turn[row] + sign[row] * np.arccos(c)
        return sign[row] * np.sqrt(1.0 - c * c) * np.cosh(y) - bm[row] * x

    y = np.append(np.arange(0.0, _ZETA_IM_MAX, _ZETA_STEP), _ZETA_IM_MAX)
    row, yr = _bisect(branch, np.broadcast_to(y, (len(bm), len(y))))
    zeta.append(turn[row] + sign[row] * np.arccos(cos_x(yr, row)) + 1j * yr)
    zb.append(bm[row])

    zeta, zb = np.concatenate(zeta), np.concatenate(zb)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            res = np.sin(zeta) - zb * zeta
            new = zeta - res / (np.cos(zeta) - zb)
            better = np.abs(np.sin(new) - zb * new) < np.abs(res)
            zeta = np.where(better, new, zeta)
    zeta = zeta[(zeta.real > lo) & (zeta.real <= hi)]
    roots = sorted((complex(z) / omega for z in zeta),
                   key=lambda z: (z.real, z.imag))
    if not roots:
        raise ArithmeticError(
            "no nontrivial characteristic roots found in "
            f"Re in (0.5, {hi / omega:g}], "
            f"Im in [0, {_ZETA_IM_MAX / omega:g}] for omega={omega!r}"
        )
    return roots


def solve_alpha0(omega):
    """Smallest corner exponent alpha0(omega) of the clamped biharmonic problem.

    ``omega`` is the interior opening angle in radians, in (0, 2pi) and not
    equal to pi.  The search window for Re(z) is (1/2, 3 pi / omega].
    """
    return characteristic_roots(omega)[0].real


def beta0(omega):
    """Companion threshold beta0 = pi/omega."""
    if not (0.0 < omega < 2.0 * math.pi):
        raise ValueError(f"opening angle must lie in (0, 2pi), got {omega!r}")
    return math.pi / omega
