"""Monotonicity profiles of drift fields and their class-K certification.

A profile maps a separation radius r to the worst-case one-sided contraction
rate of the drift at that separation, corrected by the Frobenius mismatch of
the reduced diffusion factor.  Profiles are the single input to the twisted
metric construction in :mod:`mfglab.metrics`; everything downstream (rates,
kernels, smallness conditions) is a functional of a profile.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from ._quad import QUAD_TOL, adaptive_simpson
from .errors import ConfigError


_DW_R_FLOOR = 1e-3    # radius floor of the double-well closed form


@dataclass(frozen=True)
class KReport:
    """Outcome of a class-K certification run."""
    integral: float          # integral over (0, 1] of r * negative-part(kappa)
    floor: float             # min of kappa on the tail window [r_max/4, r_max]
    is_K: bool


@dataclass(frozen=True)
class MonotonicityProfile:
    """r -> kappa(r) with certification data.

    fn must be vectorized over numpy arrays of radii.  asymptotic_floor is
    a sampled quantity, not a proof.

    The tail infima read one table per profile, made at the first query:
    kappa on the sample grid and its suffix minima, so that a query is one
    search of the grid.  kappa must be finite on the whole grid: a
    non-finite value anywhere on it makes every query raise ConfigError.
    """
    fn: Callable[[np.ndarray], np.ndarray]
    r_min: float
    r_max: float
    asymptotic_floor: float
    name: str = "profile"
    certification: Optional[KReport] = None

    def __call__(self, r):
        r_arr = np.asarray(r, dtype=float)
        out = np.asarray(self.fn(r_arr), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ConfigError(f"profile {self.name!r} non-finite at some radii")
        return out if np.ndim(r) else float(out)

    def sample_grid(self, n=2048):
        """Dense radius grid used for tail infima and invariant checks."""
        lo = max(self.r_min, 1e-9 * self.r_max)
        geo = np.geomspace(lo, self.r_max, n // 2)
        lin = np.linspace(lo, self.r_max, n - n // 2)
        return np.unique(np.concatenate([geo, lin]))

    @cached_property
    def _tail_table(self):
        """The sample grid and, at entry i, min of kappa over grid[i:]."""
        grid = self.sample_grid()
        return grid, np.minimum.accumulate(self(grid)[::-1])[::-1]

    def sampled_inf(self, r_lo):
        """min of kappa over the sample grid radii >= r_lo (inf past r_max)."""
        grid, suffix_min = self._tail_table
        i = np.searchsorted(grid, r_lo)
        return float(suffix_min[i]) if i < grid.size else np.inf

    def tail_inf(self, r_lo):
        """min of kappa over [r_lo, r_max], capped by the asserted floor."""
        v = self.sampled_inf(r_lo)
        return v if v < self.asymptotic_floor else float(self.asymptotic_floor)

    def negative_part_at(self, r):
        v = self(np.maximum(np.asarray(r, dtype=float), 1e-300))
        return np.maximum(-v, 0.0)


def _certify(fn, r_min, r_max):
    def integrand(s):
        s = np.maximum(s, 1e-14 * r_max)
        v = np.asarray(fn(s), dtype=float)
        if not np.isfinite(v).all():
            raise ConfigError("profile evaluates to a non-finite value")
        # max(-v, 0.0) elementwise: -0.0 where v is 0.0, as the float max
        return s * np.where(v > 0.0, 0.0, -v)

    integral = adaptive_simpson(integrand, 0.0, min(1.0, r_max), tol=QUAD_TOL)
    tail = np.linspace(r_max / 4.0, r_max, 512)
    vals = np.asarray(fn(tail), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ConfigError("profile evaluates to a non-finite value on the tail")
    floor = float(np.min(vals))
    return KReport(integral=integral, floor=floor,
                   is_K=bool(np.isfinite(integral) and floor > 0.0))


def make_profile(fn, r_min=1e-6, r_max=50.0, name="profile"):
    """Build a profile from a vectorized callable and certify it."""
    report = _certify(fn, r_min, r_max)
    return MonotonicityProfile(fn=fn, r_min=r_min, r_max=r_max,
                               asymptotic_floor=report.floor, name=name,
                               certification=report)


# ---------------------------------------------------------------------------
# catalog profiles

def constant_profile(value, r_max=50.0, name=None):
    v = float(value)
    return make_profile(lambda r: np.full_like(np.asarray(r, dtype=float), v),
                        r_max=r_max, name=name or f"const({v:g})")


def double_well_profile(r_max=50.0):
    """Exact 1D profile of the drift x - x^3 with constant diffusion.

    The infimum over pairs at separation r of the one-sided rate is attained
    at the midpoint pair and equals r^2/4 - 1; the evaluation radius is
    floored to keep the closed form away from r = 0 exactly as tabulated.
    """
    def fn(r):
        rr = np.maximum(np.asarray(r, dtype=float), _DW_R_FLOOR)
        return rr * rr / 4.0 - 1.0
    return make_profile(fn, r_max=r_max, name="double_well")


# ---------------------------------------------------------------------------
# shifted profiles

def shift_profile(profile: MonotonicityProfile, c_u, mode="grad",
                  name=None) -> MonotonicityProfile:
    """Profile of the drift perturbed by a bounded control of size c_u.

    mode "grad":  kappa(r) - 2*c_u / r        (bounded control)
    mode "hess":  kappa(r) - 2*min(c_u/r, c_u) (Lipschitz control)
    The result is re-certified; downstream smallness checks inspect the new
    certification instead of this function raising.
    """
    c_u = float(c_u)
    if c_u < 0.0:
        raise ConfigError("shift constant must be nonnegative")
    base = profile.fn
    if mode == "grad":
        def fn(r):
            r_arr = np.maximum(np.asarray(r, dtype=float), 1e-300)
            return np.asarray(base(r_arr), dtype=float) - 2.0 * c_u / r_arr
    elif mode == "hess":
        def fn(r):
            r_arr = np.maximum(np.asarray(r, dtype=float), 1e-300)
            return (np.asarray(base(r_arr), dtype=float)
                    - 2.0 * np.minimum(c_u / r_arr, c_u))
    else:
        raise ConfigError(f"unknown shift mode {mode!r}")
    if c_u == 0.0:
        fn = base
    return make_profile(fn, r_min=profile.r_min, r_max=profile.r_max,
                        name=name or f"{profile.name}-shift({c_u:g},{mode})")
