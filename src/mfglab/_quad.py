"""Quadrature, table interpolation and bisection root finding.

These are the numerical workhorses behind every rate constant in the
package: all metric integrals are adaptive Simpson with a per-call absolute
tolerance, and all threshold radii / certified rates are bisection roots of
monotone functions.  The adaptive Simpson calls its integrand once per
refinement level, on an array of points, and its results have the bits of
the classic depth-first recursion, which evaluates one point at a time.
The metric tables are integrated by cumulative Simpson on their uneven
radius grid and read between nodes by the monotone cubic (PCHIP)
interpolant; both, and the composite Simpson pre-pass, give the same bits
as scipy's cumulative_simpson, PchipInterpolator and simpson, whose
operations they repeat in the same order.
"""

import numpy as np

from .errors import NumericalError

# absolute tolerance of the metric, profile and kernel-integral quadratures
QUAD_TOL = 1e-10
_BISECT_MAX_ITER = 200   # bisection steps, more than any caller's tol needs


def adaptive_simpson(fn, a, b, tol=QUAD_TOL, max_depth=48, rel=0.0):
    """Integrate fn on [a, b] to absolute tolerance tol (or relative rel).

    Adaptive Simpson with Richardson correction S2 + (S2-S1)/15: an
    interval is accepted when the Richardson error estimate is below either
    budget, and otherwise halved, with half the absolute budget for each
    half.  The relative budget matters for integrands many decades below
    the absolute tolerance (exponential tails).  fn takes an array of
    points and returns one value per point; it must be finite on [a, b],
    and endpoint singularities are the caller's problem.

    The intervals are refined level by level: fn is called once on the
    ends and midpoint, then once per level on the two new quarter points
    of every interval not yet accepted, in ascending order.  The accepted
    pieces are then added in the order of the classic recursion (each
    interval's value is its left half's plus its right half's), so the
    result has the recursion's bits.  An interval still unaccepted after
    max_depth halvings raises NumericalError; the leftmost one is
    reported, as the depth-first recursion would.
    """
    if b <= a:
        return 0.0
    # one row per interval of a level: its ends and midpoint (a, m, b),
    # then fn there
    rows = np.array([[a, 0.5 * (a + b), b, 0.0, 0.0, 0.0]])
    rows[0, 3:] = np.asarray(fn(rows[0, :3]), dtype=float)
    whole = (b - a) / 6.0 * (rows[:, 3] + 4.0 * rows[:, 4] + rows[:, 5])
    levels = []     # each level that halved some interval: values, which
    depth = max_depth
    while True:
        k = len(rows)
        x, fx = rows[:, :3], rows[:, 3:]
        quarters = 0.5 * (x[:, :-1] + x[:, 1:])
        fq = np.asarray(fn(quarters.ravel()), dtype=float).reshape(k, 2)
        # Simpson on the left and right half of each interval
        halves = ((x[:, 1:] - x[:, :-1]) / 6.0
                  * (fx[:, :-1] + 4.0 * fq + fx[:, 1:]))
        both = halves[:, 0] + halves[:, 1]
        err = both - whole
        budget = tol
        if rel:
            budget = rel * np.abs(both)
            budget = np.where(budget > tol, budget, tol)
        done = np.abs(err) <= 15.0 * budget
        done |= (x[:, 2] - x[:, 0]) < 1e-14 * (1.0 + np.abs(x[:, 0]))
        value = both + err / 15.0
        if done.all():
            break
        split = ~done
        levels.append((value, split))
        if depth <= 0:
            i = int(np.argmax(split))
            raise NumericalError(
                f"adaptive Simpson stuck on [{x[i, 0]:g}, {x[i, 2]:g}], "
                f"err={err[i]:g}, tol={tol:g}")
        # each halved interval gives the next level its two halves, in order
        rows = np.concatenate((rows, quarters, fq), axis=1)[split]
        rows = rows[:, _HALVES].reshape(-1, 6)
        whole = halves[split].ravel()
        tol = 0.5 * tol
        depth -= 1
    # the halves of a level's j-th halved interval are the next level's
    # entries 2j and 2j+1
    total = value
    for value, split in reversed(levels):
        value[split] = total[0::2] + total[1::2]
        total = value
    return float(total[0])


# the halves of an interval, as rows of its columns (a, m, b, fa, fm, fb,
# left quarter, right quarter, f there): (a, left quarter, m) and
# (m, right quarter, b), each with its values
_HALVES = np.array([[0, 6, 1, 3, 8, 4], [1, 7, 2, 4, 9, 5]])


def bisect_root(fn, lo, hi, tol=1e-12):
    """Root of a (weakly) increasing function fn with fn(lo) <= 0 <= fn(hi)."""
    flo, fhi = fn(lo), fn(hi)
    if flo > 0.0:
        return lo
    if fhi < 0.0:
        raise NumericalError(f"no sign change on [{lo:g}, {hi:g}]")
    for _ in range(_BISECT_MAX_ITER):
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

    __slots__ = ("x", "c", "_inner")

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

    def __call__(self, q):
        scalar = np.ndim(q) == 0
        q = np.asarray(q, dtype=float)
        # piece i holds x_i <= q < x_(i+1); the last node and both outer
        # sides use the end pieces, which searching the interior nodes gives
        i = np.searchsorted(self._inner, q, "right")
        s = q - self.x.take(i)
        c0, c1, c2, c3 = (row.take(i) for row in self.c)
        # summed from 0.0 upwards in powers of s, as scipy's PPoly does
        s2 = s * s
        out = (0.0 + c3) + c2 * s + c1 * s2 + c0 * (s2 * s)
        return float(out) if scalar else out
