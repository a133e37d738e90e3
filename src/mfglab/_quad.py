"""Adaptive Simpson quadrature and bisection root finding.

These are the two numerical workhorses behind every rate constant in the
package: all metric integrals are adaptive Simpson with a per-call absolute
tolerance, and all threshold radii / certified rates are bisection roots of
monotone functions.
"""

from .errors import NumericalError

# absolute tolerance of the metric, profile and kernel-integral quadratures
QUAD_TOL = 1e-10


def adaptive_simpson(fn, a, b, tol=QUAD_TOL, max_depth=48, rel=0.0):
    """Integrate fn on [a, b] to absolute tolerance tol (or relative rel).

    Classic recursive Simpson with Richardson correction S2 + (S2-S1)/15.
    A subinterval is accepted when the Richardson error estimate is below
    either budget; the relative budget matters for integrands many decades
    below the absolute tolerance (exponential tails).  fn must be finite on
    [a, b]; endpoint singularities are the caller's problem.
    """
    if b <= a:
        return 0.0
    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(fn, a, b, fa, fm, fb, whole, tol, rel, max_depth)


def _simpson_rec(fn, a, b, fa, fm, fb, whole, tol, rel, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if (abs(err) <= 15.0 * max(tol, rel * abs(left + right))
            or (b - a) < 1e-14 * (1.0 + abs(a))):
        return left + right + err / 15.0
    if depth <= 0:
        raise NumericalError(
            f"adaptive Simpson stuck on [{a:g}, {b:g}], err={err:g}, tol={tol:g}")
    half = 0.5 * tol
    return (_simpson_rec(fn, a, m, fa, flm, fm, left, half, rel, depth - 1)
            + _simpson_rec(fn, m, b, fm, frm, fb, right, half, rel, depth - 1))


def bisect_root(fn, lo, hi, tol=1e-12, max_iter=200):
    """Root of a (weakly) increasing function fn with fn(lo) <= 0 <= fn(hi)."""
    flo, fhi = fn(lo), fn(hi)
    if flo > 0.0:
        return lo
    if fhi < 0.0:
        raise NumericalError(f"no sign change on [{lo:g}, {hi:g}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)
