"""Grid-scan reference of a 1-D monotonicity profile, for the profile tests.

``scanned_profile`` measures kappa(r) = inf over x of (b(x) - b(x + r)) / r
for a 1-D drift b with constant diffusion, by scanning the pairs
(x, x + r) on a dense grid of a box.  That is exact up to the grid's
resolution, so the closed-form profiles of the package
(``double_well_profile``, ``constant_profile``) must agree with it.
"""

import numpy as np


def scanned_profile(drift, radii, box=(-8.0, 8.0), n_scan=4001):
    """kappa at each radius, as the minimum of the pair rate over the scan."""
    xs = np.linspace(box[0], box[1], n_scan)
    bx = np.asarray(drift(xs), dtype=float)
    out = np.empty(len(radii))
    for i, r in enumerate(radii):
        out[i] = np.min((bx - np.asarray(drift(xs + r), dtype=float)) / r)
    return out
