"""Transport-LP reference of the twisted Wasserstein distance.

``transport_lp`` is the exact optimal transport between weighted atom lists
written as a linear program for HiGHS: one variable per pair of atoms, one
equality row per atom.  ``mfglab.distances.wf_atoms`` solves the
equal-weight case as an assignment instead; the two must agree up to the
LP's feasibility tolerance.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


def transport_lp(xa, wa, xb, wb, cost_fn):
    """Exact optimal transport between weighted atom lists."""
    na, nb = len(xa), len(xb)
    cost = cost_fn(np.abs(xa[:, None] - xb[None, :])).ravel()
    rows, cols, vals = [], [], []
    for i in range(na):
        rows.extend([i] * nb)
        cols.extend(range(i * nb, (i + 1) * nb))
        vals.extend([1.0] * nb)
    for j in range(nb):
        rows.extend([na + j] * na)
        cols.extend(range(j, na * nb, nb))
        vals.extend([1.0] * na)
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(na + nb, na * nb))
    rhs = np.concatenate([wa, wb])
    res = linprog(cost, A_eq=A, b_eq=rhs, bounds=(0.0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)
