"""Twisted metrics: concave ground costs with certified contraction rates.

Given a class-K profile kappa and a noise level sigma_check, this module
builds the concave function f on [0, r_max] through the chain

    I(r)   = integral of s * (kappa(s))^-          (negative-part mass)
    phi    = exp(-I / (2 sigma_check^2))
    Phi    = integral of phi
    Psi    = integral of Phi / phi,   Z = Psi(R1)
    g      = 1 - Psi(min(r, R1)) / (2 Z)
    f      = integral of phi * g

together with the threshold radii R0, R1, the exponential rate
lam = sigma_check^2 / Z and the equivalence constant C = phi(R0) / 2.
f is linear-equivalent to the identity (C r <= f <= r) and satisfies the
certified differential inequality

    2 sigma_check^2 f'' - r kappa(r) f' <= -lam f       on (0, infinity).

Every integral of the chain is cumulative Simpson on an uneven radius
table; between nodes the cumulative quantities are read by the monotone
cubic (PCHIP) interpolant _quad.Pchip, so evaluation is closed-form-exact
for piecewise-constant negative parts and accurate to roughly 1e-9
otherwise.  The table integrals and the interpolant give the same bits as
scipy's cumulative_simpson and PchipInterpolator, and Z is audited by
adaptive Simpson on the interpolated integrand.

This module also holds the package's only integrals against the coalescence
kernel (q_weighted_integral) and against the exponential weight of a drift
gap (gap_envelope, girsanov_tv), and within_bound, the one rule for a
measurement within its certified bound (within_band applies it on both
sides).
"""

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._quad import (QUAD_TOL, Pchip, adaptive_simpson, bisect_root,
                    cumulative_simpson, simpson)
from .errors import CertificationError, ConfigError, NumericalError
from .profiles import MonotonicityProfile

_LOG_DEGENERATE = -600.0  # below this log(phi) the rate constants underflow
_TABLE_NODES = 1200       # coarse radius nodes of a metric table
_INVARIANT_TOL = 1e-7     # slack of the table invariants _check_invariants
_RESIDUAL_TOL = 1e-6      # slack of the differential inequality per unit f


@dataclass(frozen=True)
class TwistedMetric:
    profile: MonotonicityProfile
    sigma_check: float
    R0: float
    R1: float
    Z: float
    lam: float
    C: float
    r_table: np.ndarray
    f_table: np.ndarray
    fprime_table: np.ndarray
    degenerate: bool = False        # see degenerate_metric
    # cumulative tables backing the analytic second derivative (None on a
    # degenerate metric)
    _I: Optional[Pchip] = None
    _Phi: Optional[Pchip] = None

    # -- evaluation ---------------------------------------------------------
    # f and f' read their tables through interpolants made from the tables
    # themselves, so a copy made by dataclasses.replace makes its own
    @cached_property
    def _fi(self):
        return Pchip(self.r_table, self.f_table)

    @cached_property
    def _fpi(self):
        return Pchip(self.r_table, self.fprime_table)

    def f(self, r):
        r_arr = np.clip(np.asarray(r, dtype=float), 0.0, None)
        inside = self._fi(np.minimum(r_arr, self.r_table[-1]))
        # affine extension beyond the table keeps the tail slope C
        out = np.where(r_arr > self.r_table[-1],
                       self.f_table[-1] + self.C * (r_arr - self.r_table[-1]),
                       inside)
        return out if np.ndim(r) else float(out)

    def fprime(self, r):
        r_arr = np.clip(np.asarray(r, dtype=float), 0.0, None)
        out = self._fpi(np.minimum(r_arr, self.r_table[-1]))
        out = np.where(r_arr > self.R1, self.C, out)
        return out if np.ndim(r) else float(out)

    def phi(self, r):
        if self.degenerate:
            raise CertificationError(
                f"the degenerate metric of profile {self.profile.name!r} "
                "has no analytic pieces")
        r_arr = np.minimum(np.asarray(r, dtype=float), self.r_table[-1])
        return np.exp(-self._I(r_arr) / (2.0 * self.sigma_check ** 2))

    def fsecond(self, r):
        """f'' from the analytic pieces f'' = phi' g + phi g'."""
        r_arr = np.asarray(r, dtype=float)
        scalar = np.ndim(r) == 0
        r_arr = np.atleast_1d(r_arr)
        neg = self.profile.negative_part_at(r_arr)
        phi = self.phi(r_arr)
        gval = self.fprime(r_arr) / np.maximum(phi, 1e-300)
        phip = -(r_arr * neg / (2.0 * self.sigma_check ** 2)) * phi
        gp = np.where(r_arr < self.R1,
                      -self._Phi(np.minimum(r_arr, self.R1))
                      / np.maximum(phi, 1e-300) / (2.0 * self.Z),
                      0.0)
        out = phip * gval + phi * gp
        out = np.where(r_arr > self.R1, 0.0, out)
        return float(out[0]) if scalar else out


def _table_nodes(profile, R0, R1):
    """Dense radius grid: geometric + linear blend, refined at R0 and R1.

    Each coarse interval is split into 8 subintervals so that composite
    Simpson on the result carries interior cumulative values at every node.
    """
    r_max = profile.r_max
    lo = max(profile.r_min * 1e-3, 1e-12 * r_max)
    pieces = [np.array([0.0, r_max]),
              np.geomspace(lo, r_max, _TABLE_NODES // 4),
              np.linspace(0.0, r_max, _TABLE_NODES // 4)]
    for knot in (R0, R1):
        if 0.0 < knot < r_max:
            pieces.append(np.linspace(max(knot - 0.05, 0.0),
                                      min(knot + 0.05, r_max), 11))
            pieces.append(np.array([knot]))
    coarse = np.unique(np.concatenate(pieces))
    coarse = coarse[(coarse >= 0.0) & (coarse <= r_max)]
    steps = np.linspace(0.0, 1.0, 9)[1:]
    fine = (coarse[:-1, None] + np.diff(coarse)[:, None] * steps[None, :]).ravel()
    return np.unique(np.concatenate([coarse, fine]))


def build_twisted_metric(profile: MonotonicityProfile,
                         sigma_check) -> TwistedMetric:
    """Construct the twisted metric of a certified class-K profile."""
    cert = profile.certification
    if cert is not None and not cert.is_K:
        raise CertificationError(f"profile {profile.name!r} is not certified class K")
    sigma_check = float(sigma_check)
    sig2 = 2.0 * sigma_check ** 2
    r_max = profile.r_max

    R0 = bisect_root(lambda R: profile.tail_inf(R), 0.0, r_max, tol=1e-13)
    try:
        R1 = bisect_root(
            lambda R: profile.tail_inf(R) * R * (R - R0) - 4.0 * sigma_check ** 2,
            R0, r_max, tol=1e-13)
    except NumericalError as exc:
        raise CertificationError(
            f"radius grid too small: R1 not bracketed below r_max={r_max:g}") from exc

    nodes = _table_nodes(profile, R0, R1)
    neg = np.maximum(nodes, 1e-300) * profile.negative_part_at(nodes)
    I_nodes = cumulative_simpson(neg, nodes)
    if -I_nodes[-1] / sig2 < _LOG_DEGENERATE:
        return degenerate_metric(profile, sigma_check)
    I_interp = Pchip(nodes, I_nodes)

    phi_nodes = np.exp(-I_nodes / sig2)
    Phi_nodes = cumulative_simpson(phi_nodes, nodes)
    Phi_interp = Pchip(nodes, Phi_nodes)

    head = nodes <= R1
    ratio_head = Phi_nodes[head] * np.exp(I_nodes[head] / sig2)
    Psi_head = cumulative_simpson(ratio_head, nodes[head])
    Z = float(Psi_head[-1])
    Psi_nodes = np.full_like(nodes, Z)
    Psi_nodes[head] = Psi_head
    # audit pass: adaptive Simpson on the interpolated ratio must agree
    ratio_interp = Pchip(nodes[head], ratio_head)
    Z_audit = adaptive_simpson(ratio_interp, 0.0, R1,
                               tol=QUAD_TOL * max(1.0, Z))
    if abs(Z_audit - Z) > 1e-6 * max(1.0, Z):
        raise CertificationError(f"quadrature disagreement on Z: {Z:g} vs {Z_audit:g}")

    lam = sigma_check ** 2 / Z
    # phi is constant past the exact R0 (negative part vanishes there), so
    # its settled end value is phi(R0) without the bisection grid bias
    C = 0.5 * float(np.exp(-I_nodes[-1] / sig2))
    g_nodes = 1.0 - np.minimum(Psi_nodes, Z) / (2.0 * Z)
    fp_nodes = phi_nodes * g_nodes
    f_nodes = cumulative_simpson(fp_nodes, nodes)

    tm = TwistedMetric(profile=profile, sigma_check=sigma_check,
                       R0=R0, R1=R1, Z=Z, lam=lam, C=C,
                       r_table=nodes, f_table=f_nodes, fprime_table=fp_nodes,
                       _I=I_interp, _Phi=Phi_interp)
    _check_invariants(tm)
    # made here, beside the tables: made at the first f call, inside a
    # solve, they raised the mfg_lq_batch benchmark's peak RSS by 4-5 MB
    # in about half of its processes
    tm._fi, tm._fpi
    return tm


def degenerate_metric(profile: MonotonicityProfile,
                      sigma_check) -> TwistedMetric:
    """The one value for "no certified rate": lam = C = 0, Z = inf, f = 0
    on the table [0, r_max] and NaN radii R0, R1.  Any other metric has
    lam > 0 and C > 0, since phi >= exp(_LOG_DEGENERATE) bounds both."""
    zeros = np.zeros(2)
    return TwistedMetric(profile=profile, sigma_check=float(sigma_check),
                         R0=np.nan, R1=np.nan, Z=np.inf, lam=0.0, C=0.0,
                         r_table=np.array([0.0, profile.r_max]),
                         f_table=zeros, fprime_table=zeros, degenerate=True)


def _check_invariants(tm: TwistedMetric):
    tol = _INVARIANT_TOL
    r = tm.r_table[1:]
    f, fp = tm.f_table[1:], tm.fprime_table[1:]
    if np.any(f > r * (1.0 + tol) + tol) or np.any(f < tm.C * r * (1.0 - tol) - tol):
        raise CertificationError("sandwich C r <= f <= r violated on the table")
    if np.any(fp > 1.0 + tol) or np.any(fp < tm.C * (1.0 - tol)):
        raise CertificationError("derivative sandwich C <= f' <= 1 violated")
    if np.any(np.diff(tm.fprime_table) > tol):
        raise CertificationError("f' is not non-increasing: f not concave")
    tail = tm.r_table > tm.R1 * (1.0 + 1e-9)
    if np.any(np.abs(tm.fprime_table[tail] - tm.C) > tol * (1.0 + tm.C)):
        raise CertificationError("affine tail slope differs from C")


def check_differential_inequality(tm: TwistedMetric, radius_grid):
    """Positive part of 2 s^2 f'' - r kappa f' + lam f on the grid.

    Returns (max_residual, residuals, allowance); the inequality holds
    where residuals <= allowance = 1e-6 (1 + lam f), the one residual rule.
    """
    r = np.asarray(radius_grid, dtype=float)
    lhs = (2.0 * tm.sigma_check ** 2 * tm.fsecond(r)
           - r * tm.profile(r) * tm.fprime(r) + tm.lam * tm.f(r))
    residuals = np.maximum(lhs, 0.0)
    allowance = _RESIDUAL_TOL * (1.0 + tm.lam * tm.f(r))
    return float(np.max(residuals)), residuals, allowance


# ---------------------------------------------------------------------------
# coalescence kernel

def q_kernel(C, lam, sigma_check, t):
    """Time-decaying kernel converting f-distance into coalescence bounds.

    Short times decay like t^(-1/2); after 1/(2 lam) the exponential branch
    takes over, the two branches matching continuously.  t may be a scalar
    (a float is returned) or an array.
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt <= 0.0):
        raise ConfigError("q kernel needs t > 0")
    denom = C * sigma_check
    if denom <= 0.0:
        out = np.full_like(tt, np.inf)
    else:
        out = 1.0 / (np.sqrt(2.0 * np.pi * tt) * denom)
        if lam > 0.0:
            late = np.sqrt(lam * np.e) / (np.sqrt(np.pi) * denom) \
                * np.exp(-lam * tt)
            out = np.where(tt >= 1.0 / (2.0 * lam), late, out)
    return out if np.ndim(t) else float(out)


# ---------------------------------------------------------------------------
# exponentially weighted integrals of the kernel

def lemma_kernel_integrals(C, lam_bar, sigma0, lam, t, T, mode="forward"):
    """Quadrature and closed-form bound for the weighted kernel integrals.

    forward:  integral over [t, T] of exp(-lam s)     q_{s-t} ds
    backward: integral over [t, T] of exp(-lam (T-s)) q_{s-t} ds
    where q carries the rate lam_bar and constants (C, sigma0); the
    quadrature is q_weighted_integral's.
    """
    if lam >= lam_bar:
        raise ConfigError("need lam < lam_bar")
    if T < t:
        raise ConfigError("need t <= T")
    base = 1.0 / (np.sqrt(np.pi) * C * sigma0)
    if mode == "forward":
        weight = lambda s: np.exp(-lam * s)
        bound = np.exp(-lam * t) * base * (1.0 / np.sqrt(lam_bar)
                                           + np.sqrt(lam_bar) / (lam + lam_bar))
    elif mode == "backward":
        weight = lambda s: np.exp(-lam * (T - s))
        bound = (np.exp(-lam * (T - t)) * np.exp(lam / (2.0 * lam_bar)) * base
                 * (1.0 / np.sqrt(lam_bar) + np.sqrt(lam_bar) / (lam_bar - lam)))
    else:
        raise ConfigError(f"unknown mode {mode!r}")
    quadrature = q_weighted_integral(C, lam_bar, sigma0, t, T, weight)
    return {"quadrature": quadrature, "bound": bound, "mode": mode}


def q_integral(C, lam, sigma0, tau):
    """Closed form of the kernel mass integral of q_u du over [0, tau]."""
    if tau <= 0.0 or C <= 0.0:
        return 0.0 if tau <= 0.0 else np.inf
    knee = 1.0 / (2.0 * lam)
    head = 2.0 * np.sqrt(min(tau, knee)) / (np.sqrt(2.0 * np.pi) * C * sigma0)
    if tau <= knee:
        return head
    amp = np.sqrt(lam * np.e) / (np.sqrt(np.pi) * C * sigma0)
    return head + amp * (np.exp(-lam * knee) - np.exp(-lam * tau)) / lam


def _scaled_simpson(fn, a, b):
    """Adaptive Simpson with an absolute budget scaled to the integral.

    A 257-sample composite Simpson pre-pass (one call of fn on all the
    samples) sizes the integral, so that integrals far below QUAD_TOL (deep
    exponential tails) are still resolved relatively.
    """
    xs = np.linspace(a, b, 257)
    scale = abs(simpson(fn(xs), xs))
    tol = max(QUAD_TOL * max(scale, 1e-30), 1e-280)
    return adaptive_simpson(fn, a, b, tol, rel=1e-9)


def q_weighted_integral(C, lam_bar, sigma0, t, T, weight):
    """Quadrature of the integral over [t, T] of q_{s-t} * weight(s) ds.

    The square-root singularity at s = t is removed by the substitution
    s = t + v^2; weight must be smooth and nonnegative, and it takes an
    array of times and returns one value per time.
    """
    if T <= t:
        return 0.0
    if C <= 0.0:
        return np.inf
    span = T - t
    knee = 1.0 / (2.0 * lam_bar) if lam_bar > 0.0 else np.inf
    pref = 1.0 / (np.sqrt(2.0 * np.pi) * C * sigma0)
    v_hi = np.sqrt(min(span, knee))
    total = _scaled_simpson(lambda v: 2.0 * pref * weight(t + v * v),
                            0.0, v_hi)
    if span > knee:
        amp = np.sqrt(lam_bar * np.e) / (np.sqrt(np.pi) * C * sigma0)
        total += _scaled_simpson(
            lambda u: amp * np.exp(-lam_bar * u) * weight(t + u), knee, span)
    return total


# ---------------------------------------------------------------------------
# drift-gap envelopes on one trapezoid

_GAP_NODES = 257


def gap_envelope(lam, w0, gap, t):
    """exp(-lam t) w0 + integral over [0, t] of exp(-lam (t-s)) gap(s) ds.

    The Duhamel envelope of a distance that contracts at rate lam from w0
    while a drift gap (a callable of time) pushes it apart; trapezoid on
    257 nodes.
    """
    offset = 0.0
    if t > 0:
        ss = np.linspace(0.0, t, _GAP_NODES)
        offset = np.trapezoid(np.exp(-lam * (t - ss))
                              * np.array([gap(s) for s in ss]), ss)
    return np.exp(-lam * t) * w0 + offset


def girsanov_tv(gap, t0, t):
    """sqrt(integral over [t0, t] of gap(s)^2 ds / 2): the Girsanov bound on
    the total variation a drift gap adds over [t0, t]; trapezoid on 257
    nodes."""
    ss = np.linspace(t0, t, _GAP_NODES)
    return np.sqrt(np.trapezoid(np.array([gap(s) ** 2 for s in ss]), ss) / 2.0)


def within_bound(measured, bound):
    """The one rule for a measurement within its certified bound: relative
    slack 1e-9 plus absolute 1e-12 (elementwise on arrays)."""
    return np.asarray(measured) <= np.asarray(bound) * (1.0 + 1e-9) + 1e-12


def within_band(measured, lower, upper):
    """lower <= measured <= upper, each side judged by within_bound's slack
    (elementwise on arrays)."""
    return within_bound(lower, measured) & within_bound(measured, upper)


# ---------------------------------------------------------------------------
# quadratically growing variant

@dataclass(frozen=True)
class QuadraticTwistedMetric:
    base: TwistedMetric
    a_bar: float
    sigma0_kappa_sq: float
    R1_bar: float
    lambda2: float
    C2: float

    def f_R(self, r):
        r_arr = np.asarray(r, dtype=float)
        p = np.maximum(r_arr - self.R1_bar, 0.0)
        return p ** 3 / (1.0 + self.sigma0_kappa_sq + r_arr)

    def f_R_prime(self, r):
        r_arr = np.asarray(r, dtype=float)
        p = np.maximum(r_arr - self.R1_bar, 0.0)
        d = 1.0 + self.sigma0_kappa_sq + r_arr
        return 3.0 * p ** 2 / d - p ** 3 / d ** 2

    def f_R_second(self, r):
        r_arr = np.asarray(r, dtype=float)
        p = np.maximum(r_arr - self.R1_bar, 0.0)
        d = 1.0 + self.sigma0_kappa_sq + r_arr
        return 6.0 * p / d - 6.0 * p ** 2 / d ** 2 + 2.0 * p ** 3 / d ** 3

    def f2(self, r):
        return self.base.f(r) + self.a_bar * self.f_R(r)


def build_quadratic_metric(tm_half: TwistedMetric, sigma0, kappa_plus,
                           R1_choice) -> QuadraticTwistedMetric:
    """Augment a twisted metric by a cubic tail so it dominates r^2.

    tm_half must be built at sigma_check = sigma0 / sqrt(2).  kappa_plus is
    the certified asymptotic floor and R1_choice >= 1 a radius past which the
    profile stays above kappa_plus.  The decay rate lambda2 is certified by
    bisection on the displayed pointwise inequality over the metric table.
    """
    if kappa_plus <= 0.0:
        raise CertificationError("kappa_plus must be positive")
    if R1_choice < 1.0:
        raise CertificationError("R1_choice must be at least 1")
    if tm_half.profile.sampled_inf(R1_choice) < kappa_plus - 1e-12:
        raise CertificationError("profile falls below kappa_plus beyond R1_choice")
    if abs(tm_half.sigma_check - sigma0 / np.sqrt(2.0)) > 1e-12 * (1.0 + sigma0):
        raise CertificationError("base metric must be built at sigma0 / sqrt(2)")

    a_bar = tm_half.lam * tm_half.C * R1_choice / (24.0 * (1.0 + sigma0 ** 2))
    qtm = QuadraticTwistedMetric(base=tm_half, a_bar=a_bar,
                                 sigma0_kappa_sq=8.0 * sigma0 ** 2 / kappa_plus,
                                 R1_bar=float(R1_choice), lambda2=0.0, C2=0.0)
    r = tm_half.r_table[tm_half.r_table > 0.0]
    lhs = (-tm_half.lam * tm_half.f(r)
           - kappa_plus * a_bar * r * qtm.f_R_prime(r)
           + 2.0 * a_bar * qtm.f_R_second(r) * sigma0 ** 2)
    f2 = qtm.f2(r)

    def holds(lam2):
        return np.all(lhs <= -lam2 * f2 + 1e-14)

    if not holds(1e-12):
        raise CertificationError("no positive lambda2 certifiable on this table")
    lo, hi = 1e-12, 10.0 * tm_half.lam
    while holds(hi):
        hi *= 2.0
        if hi > 1e6:
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    lambda2 = lo
    C2 = float(np.min(f2 / r ** 2))
    return QuadraticTwistedMetric(base=tm_half, a_bar=a_bar,
                                  sigma0_kappa_sq=qtm.sigma0_kappa_sq,
                                  R1_bar=float(R1_choice),
                                  lambda2=lambda2, C2=C2)


# ---------------------------------------------------------------------------
# serialization

def save_metric(tm: TwistedMetric, csv_path, json_path=None):
    json_path = json_path or str(csv_path) + ".json"
    arr = np.column_stack([tm.r_table, tm.f_table, tm.fprime_table])
    header = {"R0": tm.R0, "R1": tm.R1, "Z": tm.Z, "lambda": tm.lam,
              "C": tm.C, "sigma_check": tm.sigma_check, "quad_tol": QUAD_TOL}
    np.savetxt(csv_path, arr, delimiter=",", header="r,f,fprime", comments="")
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
    return csv_path, json_path

