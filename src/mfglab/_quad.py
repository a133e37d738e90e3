"""Quadrature, table interpolation and bisection root finding.

These are the numerical workhorses behind every rate constant in the
package: all metric integrals are adaptive Simpson with a per-call absolute
tolerance, and all threshold radii / certified rates are bisection roots of
monotone functions.  The metric tables are integrated by cumulative
Simpson on their uneven radius grid and read between nodes by the monotone
cubic (PCHIP) interpolant; both, and the composite Simpson pre-pass, give
the same bits as scipy's cumulative_simpson, PchipInterpolator and
simpson, whose operations they repeat in the same order.
"""

from bisect import bisect_right

import numpy as np

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


# ---------------------------------------------------------------------------
# tables on a strictly increasing grid

def _simpson_pieces(y, dx):
    """Simpson integral over the first sub-interval of each node triple
    (Cartwright 2017, eq. 8); reversed inputs give the second."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def cumulative_simpson(y, x):
    """Cumulative composite Simpson of y over the nodes x, starting at 0.

    The nodes pair up from the left: the sub-intervals [x_2k, x_2k+1] and
    [x_2k+1, x_2k+2] take their pieces of the Simpson fit on that node
    triple, and a last unpaired sub-interval takes its piece of the triple
    it closes.  Two nodes give the trapezoid.
    """
    y = np.asarray(y, dtype=float)
    dx = np.diff(np.asarray(x, dtype=float))
    if len(y) < 3:
        pieces = dx * (y[1:] + y[:-1]) / 2.0
    else:
        first = _simpson_pieces(y, dx)
        second = _simpson_pieces(y[::-1], dx[::-1])[::-1]
        pieces = np.empty(len(dx))
        pieces[:-1:2] = first[::2]
        pieces[1::2] = second[::2]
        pieces[-1] = second[-1]
    # adding 0.0 turns a -0.0 sum into +0.0, as an initial value of 0 does
    return np.concatenate(([0.0], np.cumsum(pieces) + 0.0))


def simpson(y, x):
    """Composite Simpson of y over an odd number of uneven nodes x."""
    y = np.asarray(y, dtype=float)
    if len(y) % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of nodes")
    h = np.diff(np.asarray(x, dtype=float))
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    return np.sum(hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / h0divh1)
                                + y[1::2] * (hsum * (hsum / hprod))
                                + y[2::2] * (2.0 - h0divh1)))


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving (Moler)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class Pchip:
    """Monotone piecewise cubic Hermite interpolant of y on the nodes x.

    Node slopes are the weighted harmonic mean of the neighbouring secants,
    zero where they differ in sign or one vanishes (Fritsch & Carlson 1980,
    Fritsch & Butland 1984), with Moler's one-sided rule at the ends.  The
    end pieces extend past the table.  A scalar argument gives a float, an
    array one value per point.  The nodes must be finite and strictly
    increasing and the data finite, one value per node; anything else
    raises ValueError.
    """

    __slots__ = ("x", "c", "_inner", "_knots", "_rows")

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or len(x) < 2 or y.shape != x.shape:
            raise ValueError("PCHIP needs 1-D nodes and data of one length, "
                             f"at least 2; got shapes {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("PCHIP nodes and data must be finite")
        h = np.diff(x)
        if not (h > 0).all():
            raise ValueError("PCHIP nodes must be strictly increasing")
        m = (y[1:] - y[:-1]) / h
        d = np.empty_like(y)
        if len(y) == 2:
            d[:] = m[0]
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        # power-basis coefficients of each piece in s = q - x_i, highest first
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        self._inner = x[1:-1]
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))
        self._knots = self._rows = None

    def __call__(self, q):
        if np.ndim(q) == 0:
            return self._at(float(q))
        q = np.asarray(q, dtype=float)
        # piece i holds x_i <= q < x_(i+1); the last node and both outer
        # sides use the end pieces, which searching the interior nodes gives
        i = np.searchsorted(self._inner, q, "right")
        s = q - self.x.take(i)
        c0, c1, c2, c3 = (row.take(i) for row in self.c)
        # summed from 0.0 upwards in powers of s, as scipy's PPoly does
        s2 = s * s
        return (0.0 + c3) + c2 * s + c1 * s2 + c0 * (s2 * s)

    def _at(self, q):
        # the adaptive quadratures call one point at a time (the Z audits of
        # a double-well set-up make some 43,000 calls): plain floats from
        # lists, made on the first such call, cost about a third of a call
        # through the array path above
        if self._rows is None:
            self._knots = self.x.tolist()
            self._rows = self.c.T.tolist()
        i = bisect_right(self._knots, q, 1, len(self._rows)) - 1
        s = q - self._knots[i]
        c0, c1, c2, c3 = self._rows[i]
        s2 = s * s
        return (0.0 + c3) + c2 * s + c1 * s2 + c0 * (s2 * s)
