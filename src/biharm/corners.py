"""Corner exponents for polygonal domains.

At a corner of interior opening ``omega`` the regularity of the clamped
biharmonic solution is governed by the smallest characteristic exponent

    alpha0(omega) = min Re(z)  over nontrivial roots of
                    sin^2(z*omega) = z^2 * sin^2(omega)

restricted to Re(z) > 1/2.  The roots z = 0, +1, -1 solve the equation
identically for every omega and carry no singularity information, so they
are excluded.  The companion threshold beta0 = pi/omega limits how much a
graded mesh can improve the convergence of the intermediate Stokes
velocity.

Roots are enumerated by an argument-principle count on rectangles (the
winding number of the characteristic function along the boundary), with
recursive subdivision until each box isolates one root, followed by a
complex Newton polish.  The window is fixed in zeta = z * omega, where
sin(zeta) oscillates at the same rate for every opening, so it holds
alpha0 from the narrowest to the widest corner.  A search that isolates
no root raises ArithmeticError.  Everything is deterministic; no
randomness is involved anywhere.
"""

import cmath
import math

__all__ = [
    "solve_alpha0",
    "beta0",
    "characteristic_roots",
]

# Roots of the characteristic equation that hold for every opening angle
# and must be ignored when forming alpha0.
_TRIVIAL_ROOTS = (0.0, 1.0, -1.0)
_TRIVIAL_RADIUS = 1e-6

# Left edge of the search rectangle.  Exponents approach 1/2 from above as
# the opening approaches a slit (omega -> 2pi), and close to 2pi the
# characteristic function develops a near-tangent pair of real roots
# around 1/2; starting the box below 0.5 keeps that pair away from the
# contour (roots polished to Re <= 1/2 are filtered afterwards).
_RE_MIN = 0.49
_IM_MIN = -0.25  # keep real roots off the contour
# Right and top edges, in zeta = z * omega.  alpha0 * omega stays below
# 1.5 pi: it peaks at 1.43 pi near omega = 0.81 pi and tends to 4.2124,
# the first nontrivial root of sin(zeta) = -zeta, as omega -> 0.  A root
# has sinh|Im zeta| <= |zeta| (|sin(zeta)| = |zeta sin(omega) / omega|
# <= |zeta|), so no root with Re zeta <= 3 pi lies above Im zeta = 4.
_ZETA_RE_MAX = 3.0 * math.pi
_ZETA_IM_MAX = 2.0 * math.pi
# Step of the real-root scan, in zeta.
_ZETA_STEP = 1.5e-3

_NEWTON_TOL = 1e-13
_WIND_DEPTH = 48


def _char(z, omega):
    """Characteristic function g(z) = sin^2(z*omega) - z^2 sin^2(omega)."""
    s = cmath.sin(z * omega)
    return s * s - z * z * math.sin(omega) ** 2


def _char_prime(z, omega):
    return omega * cmath.sin(2.0 * z * omega) - 2.0 * z * math.sin(omega) ** 2


def _phase_sweep(omega, a, b, ga, gb, depth):
    """Accumulated argument change of g along the segment [a, b].

    Bisects until each step turns the phase by less than pi/2.  Callers
    must hand in segments shorter than a quarter oscillation period of g,
    otherwise the wrapped increments could alias away whole turns.
    """
    if abs(ga) == 0.0 or abs(gb) == 0.0:
        raise ArithmeticError("characteristic function vanished on the contour")
    d = cmath.phase(gb / ga)
    if abs(d) <= 0.5 * math.pi:
        return d
    if depth <= 0:
        raise ArithmeticError("phase tracking did not resolve (root on contour?)")
    m = 0.5 * (a + b)
    gm = _char(m, omega)
    return _phase_sweep(omega, a, m, ga, gm, depth - 1) + _phase_sweep(
        omega, m, b, gm, gb, depth - 1
    )


def _edge_sweep(omega, a, b):
    """Argument change along one contour edge, pre-split against aliasing.

    Away from roots the phase of g turns at a rate of at most ~2*omega per
    unit arclength (the sin^2 term oscillates with period pi/omega), so an
    initial uniform step of 0.6/omega keeps every piece below a quarter
    turn; the adaptive bisection then handles the acceleration near roots.
    """
    n = max(2, math.ceil(abs(b - a) * omega / 0.6))
    pts = [a + (b - a) * (i / n) for i in range(n + 1)]
    vals = [_char(p, omega) for p in pts]
    total = 0.0
    for (p, q, gp, gq) in zip(pts, pts[1:], vals, vals[1:]):
        total += _phase_sweep(omega, p, q, gp, gq, _WIND_DEPTH)
    return total


def _winding(omega, re0, re1, im0, im1):
    """Number of roots of g inside the rectangle, by the argument principle."""
    corners = [
        complex(re0, im0),
        complex(re1, im0),
        complex(re1, im1),
        complex(re0, im1),
        complex(re0, im0),
    ]
    total = 0.0
    for a, b in zip(corners, corners[1:]):
        total += _edge_sweep(omega, a, b)
    n = total / (2.0 * math.pi)
    count = round(n)
    if abs(n - count) > 0.05:
        raise ArithmeticError(f"inconsistent winding number {n:.6f}")
    return count


def _count_roots(omega, box):
    """Winding count with deterministic jitter when the contour is unlucky."""
    re0, re1, im0, im1 = box
    w = re1 - re0
    h = im1 - im0
    for jit in (0.0, 3.1e-3, -7.3e-3, 1.7e-2):
        try:
            return _winding(
                omega, re0, re1 + jit * w, im0 - jit * h, im1 + jit * h
            )
        except ArithmeticError:
            continue
    raise ArithmeticError(
        f"argument-principle count failed on box {box} for omega={omega!r}"
    )


def _newton(omega, z0, scale):
    z = complex(z0)
    for _ in range(100):
        g = _char(z, omega)
        if abs(g) < _NEWTON_TOL * scale:
            return z
        dg = _char_prime(z, omega)
        if dg == 0.0:
            return None
        step = g / dg
        z = z - step
        if abs(step) < 1e-16 * max(1.0, abs(z)):
            # stagnated; accept only if the residual check below passes
            g = _char(z, omega)
            return z if abs(g) < _NEWTON_TOL * scale else None
    return None


def _polish_in_box(omega, box, acc):
    """Newton polish from a few deterministic seeds; True on success."""
    re0, re1, im0, im1 = box
    diag = math.hypot(re1 - re0, im1 - im0)
    center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
    scale = max(1.0, (abs(complex(re1, im1)) * abs(math.sin(omega))) ** 2)
    for z0 in (
        center,
        center + 0.25 * complex(re1 - re0, 0.0),
        center + 0.25 * complex(0.0, im1 - im0),
    ):
        z = _newton(omega, z0, scale)
        if z is None:
            continue
        # accept only roots genuinely inside this box; an escaping Newton
        # iteration must not record a neighbor box's root as ours
        pad = 1e-9
        if re0 - pad <= z.real <= re1 + pad and im0 - pad <= z.imag <= im1 + pad:
            acc.append(z)
            return True
    return False


def _subdivide(omega, box, acc, depth=60):
    re0, re1, im0, im1 = box
    count = _count_roots(omega, box)
    if count == 0:
        return
    diag = math.hypot(re1 - re0, im1 - im0)
    # A cluster tighter than 1e-5 is treated as one root for min-Re purposes
    # (true multiple roots occur only at isolated branch angles).
    if count == 1 or diag < 1e-5:
        if _polish_in_box(omega, box, acc):
            return
        if diag < 1e-7 or depth <= 0:
            raise ArithmeticError(
                f"Newton polish failed in box {box} for omega={omega!r}"
            )
    if depth <= 0:
        raise ArithmeticError(
            f"subdivision exhausted on box {box} for omega={omega!r}")
    # split the longer side, nudging the seam if a root happens to sit on it
    horizontal = (re1 - re0) >= (im1 - im0)
    for f in (0.5, 0.53, 0.47):
        sub = []
        try:
            if horizontal:
                mid = re0 + f * (re1 - re0)
                _subdivide(omega, (re0, mid, im0, im1), sub, depth - 1)
                _subdivide(omega, (mid, re1, im0, im1), sub, depth - 1)
            else:
                mid = im0 + f * (im1 - im0)
                _subdivide(omega, (re0, re1, im0, mid), sub, depth - 1)
                _subdivide(omega, (re0, re1, mid, im1), sub, depth - 1)
        except ArithmeticError:
            continue
        acc.extend(sub)
        return
    raise ArithmeticError(f"could not split box {box} for omega={omega!r}")


def _validate_omega(omega):
    if not (0.0 < omega < 2.0 * math.pi):
        raise ValueError(f"opening angle must lie in (0, 2pi), got {omega!r}")
    if omega == math.pi:
        raise ValueError("opening angle pi is a straight edge, not a corner")


def _real_roots(omega, re_max):
    """Real roots of g on (0.49, re_max], secured by a dense factor-wise scan.

    The characteristic function factors as f1*f2 with
    f1 = sin(z*omega) - z sin(omega) and f2 = sin(z*omega) + z sin(omega);
    scanning each factor separately keeps sign changes clean even where
    the product g = f1*f2 has a double-root-like dip.  Sign changes are
    bisected; shallow tangencies (value below 1e-5 at a local minimum of
    |f|) get a Newton attempt as well.
    """
    s = math.sin(omega)
    factors = (
        lambda x: math.sin(x * omega) - x * s,
        lambda x: math.sin(x * omega) + x * s,
    )
    step = _ZETA_STEP / omega
    n = int((re_max - _RE_MIN) / step) + 2
    xs = [_RE_MIN + i * step for i in range(n)]
    roots = []
    scale = max(1.0, (re_max * abs(s)) ** 2)
    for f in factors:
        vals = [f(x) for x in xs]
        for i in range(len(xs) - 1):
            lo, hi, flo, fhi = xs[i], xs[i + 1], vals[i], vals[i + 1]
            candidate = None
            if flo == 0.0:
                candidate = lo
            elif flo * fhi < 0.0:
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    fm = f(mid)
                    if flo * fm <= 0.0:
                        hi, fhi = mid, fm
                    else:
                        lo, flo = mid, fm
                candidate = 0.5 * (lo + hi)
            elif (
                abs(flo) < 1e-5
                and 0 < i < len(xs) - 2
                and abs(flo) <= abs(vals[i - 1])
                and abs(flo) <= abs(fhi)
            ):
                candidate = lo  # tangency dip; polish decides
            if candidate is not None:
                z = _newton(omega, complex(candidate, 0.0), scale)
                if z is not None and abs(z.imag) < 1e-9:
                    roots.append(complex(z.real, 0.0))
    return roots


def characteristic_roots(omega):
    """All roots of sin^2(z*omega) = z^2 sin^2(omega) in the search window.

    Returns the nontrivial roots with Re(z) in (1/2, 3 pi / omega] and
    Im(z) in [-1/4, 2 pi / omega], normalized to the upper half plane,
    deduplicated, and sorted by (Re, Im).  Raises ArithmeticError if the
    search cannot isolate the roots or finds none.
    """
    _validate_omega(omega)
    box = (_RE_MIN, _ZETA_RE_MAX / omega, _IM_MIN, _ZETA_IM_MAX / omega)
    found = _real_roots(omega, box[1])
    _subdivide(omega, box, found)
    roots = []
    for z in found:
        z = complex(z.real, abs(z.imag))
        if z.real <= 0.5:
            continue
        if any(abs(z - t) < _TRIVIAL_RADIUS for t in _TRIVIAL_ROOTS):
            continue
        if any(abs(z - r) < 1e-8 for r in roots):
            continue
        roots.append(z)
    roots.sort(key=lambda z: (z.real, z.imag))
    if not roots:
        raise ArithmeticError(
            "no nontrivial characteristic roots found in "
            f"Re in ({box[0]}, {box[1]:g}], Im in [{box[2]}, {box[3]:g}] "
            f"for omega={omega!r}"
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
