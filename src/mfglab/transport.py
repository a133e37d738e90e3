"""Twisted Wasserstein W_f between 1D measures, exact on equal-weight atoms.

The ground cost f is concave with f(0) = 0.  Moving n equal weights onto n
equal weights is an assignment problem, since the optimal plans of that
transport problem include a permutation (Birkhoff-von Neumann).  A concave
cost with f(0) = 0 defines a metric, so the common mass of two densities is
cancelled first and only the residual measures become atoms.

W_f is the only distance that calls scipy.  Its assignment solver loads
with this module, which the PDE layer imports, and not with
``import mfglab``.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from .distances import _check_density
from .errors import ConfigError


def quantile_atoms(x, p, n):
    """n equal-mass atom locations of a grid density (inverse CDF)."""
    dx = np.diff(x)
    c = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * dx)])
    c /= c[-1]
    c = np.maximum.accumulate(c)
    targets = (np.arange(n) + 0.5) / n
    return np.interp(targets, c, x)


def wf_grid(x, p, q, f, n_atoms=128, check=True):
    """Twisted Wasserstein W_f between grid densities, exact on atoms.

    f is the concave ground cost (callable on arrays).  The shared mass
    p ^ q stays in place (f is a metric cost), so only the residual measures
    are compressed to n_atoms quantile atoms per side and shipped.
    """
    if check:
        _check_density(x, p)
        _check_density(x, q)
    diff = p - q
    pos, negv = np.maximum(diff, 0.0), np.maximum(-diff, 0.0)
    mass = float(np.trapezoid(pos, x))
    mass_n = float(np.trapezoid(negv, x))
    m = 0.5 * (mass + mass_n)
    if m < 1e-14:
        return 0.0
    xa = quantile_atoms(x, pos / mass, n_atoms)
    xb = quantile_atoms(x, negv / mass_n, n_atoms)
    return m * wf_atoms(xa, xb, f)


def wf_atoms(xa, xb, f):
    """W_f between equal-weight atom clouds of the same size.

    The cheapest plan is a matching of the atoms, found exactly by one
    assignment on the cost matrix f(|xa_i - xb_j|).
    """
    xa, xb = np.asarray(xa, dtype=float), np.asarray(xb, dtype=float)
    if len(xa) != len(xb):
        raise ConfigError("atom clouds must have equal size")
    cost = f(np.abs(xa[:, None] - xb[None, :]))
    rows, cols = linear_sum_assignment(cost)
    return float(np.mean(cost[rows, cols]))

