"""Distances between 1D measures: W1, total variation, seminorms.

Measures come in two representations: densities on a grid and equal-weight
particle clouds.  W1 is exact in 1D through CDFs.  The twisted distance W_f
needs an assignment solver and lives in :mod:`mfglab.transport`, so that
this module, and every module that imports it, loads numpy only.
"""

import numpy as np

from .errors import ConfigError


def _check_density(x, p, tol=1e-8):
    mass = np.atleast_1d(np.trapezoid(p, x, axis=-1))
    off = np.abs(mass - 1.0) > tol
    if np.any(off):
        raise ConfigError(f"density mass {mass[off][0]:.3e} is not 1 "
                          f"within {tol:g}")
    if np.any(p < -1e-12):
        raise ConfigError("density has negative values")


# rows of a density stack per pass of w1_grid: bounds its temporaries by
# the slab, not by the stack
_W1_ROWS = 64


def _w1_rows(x, p, q):
    """W1 of density pairs along the last axis."""
    dx = np.diff(x)
    cp = np.cumsum(0.5 * (p[..., 1:] + p[..., :-1]) * dx, axis=-1)
    cq = np.cumsum(0.5 * (q[..., 1:] + q[..., :-1]) * dx, axis=-1)
    gap = np.abs(cp - cq)
    # the CDFs are 0 at x[0]
    gap = np.concatenate([np.zeros(gap.shape[:-1] + (1,)), gap], axis=-1)
    return np.trapezoid(gap, x, axis=-1)


def w1_grid(x, p, q, check=True):
    """Exact W1 between two densities on a common grid (L1 of CDFs).

    p and q may be stacks of densities, shape (n_rows, len(x)); the result
    then holds one W1 per pair of rows, computed a slab of rows at a time.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if check:
        _check_density(x, p)
        _check_density(x, q)
    if p.ndim == 1:
        return float(_w1_rows(x, p, q))
    return np.concatenate([_w1_rows(x, p[i:i + _W1_ROWS], q[i:i + _W1_ROWS])
                           for i in range(0, len(p), _W1_ROWS)])


def w1_samples(a, b):
    """Exact W1 between two equal-size samples (sorted matching)."""
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    if len(a) != len(b):
        # merge-based CDF distance for unequal sizes
        xs = np.concatenate([a, b])
        order = np.argsort(xs, kind="stable")
        jump = np.concatenate([np.full(len(a), 1.0 / len(a)),
                               np.full(len(b), -1.0 / len(b))])[order]
        cdf_gap = np.cumsum(jump)[:-1]
        return float(np.sum(np.abs(cdf_gap) * np.diff(xs[order])))
    return float(np.mean(np.abs(a - b)))


def tv_grid(x, p, q, check=True):
    """Total variation = half the L1 distance of the densities.

    p and q may be stacks of densities along the last axis; the result then
    holds one TV per pair of rows.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if check:
        _check_density(x, p)
        _check_density(x, q)
    tv = 0.5 * np.trapezoid(np.abs(p - q), x, axis=-1)
    return float(tv) if tv.ndim == 0 else tv


# index strides of the f_norm pairs: near and far separations at
# O(n * #strides) cost instead of all O(n^2) pairs
_STRIDES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def f_norm(x, values, f):
    """Measured ||v||_f = max |v(x) - v(y)| / f(|x - y|) over a pair pattern.

    Pairs are (i, i + s) for each stride s of _STRIDES.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    best = 0.0
    for s in _STRIDES:
        if s >= len(x):
            break
        dv = np.abs(values[s:] - values[:-s])
        dr = np.abs(x[s:] - x[:-s])
        denom = np.asarray(f(dr), dtype=float)
        good = denom > 1e-300
        if np.any(good):
            best = max(best, float(np.max(dv[good] / denom[good])))
    return best


def lip_norm(x, values):
    """Largest adjacent difference quotient on an increasing grid; a wider
    pair's quotient is a weighted mean of the adjacent ones it spans."""
    return float(np.max(np.abs(np.diff(values)) / np.diff(x)))
