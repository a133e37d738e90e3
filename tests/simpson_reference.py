"""The classic recursive adaptive Simpson, kept as a test oracle.

_quad.adaptive_simpson refines level by level with one integrand call per
level and must return this recursion's bits; the recursion calls the
integrand at one point at a time and adds the halves depth first.
"""

from mfglab.errors import NumericalError


def recursive_simpson(fn, a, b, tol, max_depth=48, rel=0.0):
    """Integrate the scalar function fn on [a, b] to tolerance tol (or rel)."""
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
