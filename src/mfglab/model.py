"""Scenario specification: dynamics, costs, interaction, and their constants.

A Scenario bundles the drift, diffusion, running cost, mean-field interaction
and terminal cost together with every constant the rate machinery consumes
(ellipticity bounds, convexity and Lipschitz constants per regularity
regime).  Declared constants are sampled hypotheses, not proofs: the probe
helpers check that they dominate finite-difference estimates on random
draws, and the smallness evaluator turns them into certified contraction
budgets.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ._quad import bisect_root
from .errors import CertificationError, ConfigError, NumericalError
from .distances import lip_norm, tv_grid, w1_grid
from .metrics import (TwistedMetric, build_twisted_metric, degenerate_metric,
                      within_bound)
from .profiles import (MonotonicityProfile, constant_profile,
                       double_well_profile, make_profile, shift_profile)

_EXTEND_TRIES = 3   # _build_extending grows r_max 4x per try, 64x at most


# ---------------------------------------------------------------------------
# measures (both representations cross the interaction interface)

@dataclass(frozen=True)
class GridDensity:
    """Densities on the nodes x, integrated by the trapezoid rule.

    p has shape (n,) for one density or (S, n) for S slices of a flow on the
    same nodes; the slice axis is leading, so mean() returns a float or an
    (S,) array and convolve() an (n_at,) or (S, n_at) array.  A batch builds
    the convolution kernel once for all its slices.
    """
    x: np.ndarray
    p: np.ndarray

    def mean(self):
        m = np.trapezoid(self.x * self.p, self.x, axis=-1)
        return float(m) if m.ndim == 0 else m

    def convolve(self, kernel, at):
        at = np.asarray(at, dtype=float)
        # trapezoid weights 1/2 (d_{j-1} + d_j), folded into the kernel's
        # columns; einsum keeps the contraction off BLAS, whose summation
        # order (and so the last bits) depends on its thread count
        d = np.diff(self.x)
        w = 0.5 * (np.append(d, 0.0) + np.insert(d, 0, 0.0))
        kw = kernel(at[:, None] - self.x[None, :]) * w
        return np.einsum("...j,aj->...a", self.p, kw)


@dataclass(frozen=True)
class ParticleCloud:
    points: np.ndarray

    def mean(self):
        return float(np.mean(self.points))

    def convolve(self, kernel, at):
        at = np.asarray(at, dtype=float)
        return np.mean(kernel(at[:, None] - self.points[None, :]), axis=1)


# ---------------------------------------------------------------------------
# diffusion

@dataclass(frozen=True)
class DiffusionSpec:
    """sigma(x) with ellipticity window [sqrt(2) sigma0, sqrt(2) Sigma]."""
    fn: Callable                    # x -> scalar sigma, or a matrix
    sigma0: float
    Sigma: float
    C_x_sigma: float = 0.0
    is_constant: bool = False

    def sigma_at(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)

    def sigma_bar_scalar(self, x):
        s = self.sigma_at(x)
        val = s * s - self.sigma0 ** 2
        if np.any(val < -1e-12):
            raise ConfigError("sigma^2 - sigma0^2 negative: ellipticity violated")
        return np.sqrt(np.maximum(val, 0.0))


def sigma_bar(diffusion: DiffusionSpec, x_or_matrix):
    """Symmetric PSD square root of sigma sigma^T(x) - sigma0^2 I."""
    m = np.asarray(x_or_matrix, dtype=float)
    if m.ndim == 0:
        return float(diffusion.sigma_bar_scalar(m))
    if m.ndim == 1:
        return diffusion.sigma_bar_scalar(m)
    a = m @ m.T - diffusion.sigma0 ** 2 * np.eye(m.shape[0])
    w, v = np.linalg.eigh(a)
    if np.any(w < -1e-10 * max(1.0, np.max(np.abs(w)))):
        raise ConfigError("sigma sigma^T - sigma0^2 I is not PSD")
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def constant_diffusion(sigma):
    """Constant scalar sigma; sigma0 is the largest admissible floor."""
    sig = float(sigma)
    s0 = sig / np.sqrt(2.0)
    return DiffusionSpec(fn=lambda x: np.full_like(np.asarray(x, dtype=float), sig),
                         sigma0=s0, Sigma=s0, C_x_sigma=0.0, is_constant=True)


def varying_diffusion(fn, sigma0, Sigma, C_x_sigma):
    return DiffusionSpec(fn=fn, sigma0=float(sigma0), Sigma=float(Sigma),
                         C_x_sigma=float(C_x_sigma), is_constant=False)


# ---------------------------------------------------------------------------
# drift

@dataclass(frozen=True)
class DriftSpec:
    b: Callable
    growth_p: int
    growth_K: float
    profile: MonotonicityProfile          # kappa_b
    C_x_b: Optional[float] = None         # Lipschitz constant when declared
    rho_b: Optional[float] = None         # -b' >= rho_b when declared


def linear_drift(beta, r_max=50.0):
    b = float(beta)
    return DriftSpec(b=lambda x: -b * x, growth_p=1, growth_K=b,
                     profile=constant_profile(b, r_max=r_max, name=f"linear({b:g})"),
                     C_x_b=b, rho_b=b)


def double_well_drift(r_max=50.0, box=5.0):
    return DriftSpec(b=lambda x: x - x * x * x, growth_p=3, growth_K=1.0,
                     profile=double_well_profile(r_max=r_max),
                     C_x_b=3.0 * box ** 2 - 1.0, rho_b=None)


# ---------------------------------------------------------------------------
# running cost and the associated policy

@dataclass(frozen=True)
class RunningCostSpec:
    L: Callable                     # (x, u) -> cost
    dLu: Callable                   # (x, u) -> control gradient
    d2Luu: Callable                 # (x, u) -> control curvature
    rho_uu: float
    C_u_L0: float = 0.0
    C_x_L: Optional[float] = None
    C_L_osc: Optional[float] = None
    C_xu_L: Optional[float] = None
    closed_form: Optional[Callable] = None  # p, x -> argmin when available


def quadratic_cost(rho_uu=1.0, q=0.0, lin_u=0.0, C_x_L=None, C_L_osc=None):
    """L(x, u) = rho/2 u^2 + lin_u * u + q/2 x^2."""
    rho = float(rho_uu)

    def L(x, u):
        # called once per value-solver step: a zero term adds exactly 0,
        # so it is skipped rather than evaluated
        cost = 0.5 * rho * (u * u)
        if lin_u:
            cost = cost + lin_u * u
        if q:
            x = np.asarray(x, dtype=float)
            cost = cost + 0.5 * q * (x * x)
        return cost

    return RunningCostSpec(
        L=L, dLu=lambda x, u: rho * u + lin_u,
        d2Luu=lambda x, u: rho * np.ones_like(np.asarray(u, dtype=float)),
        rho_uu=rho, C_u_L0=abs(lin_u), C_x_L=C_x_L, C_L_osc=C_L_osc,
        C_xu_L=0.0, closed_form=lambda x, p: -(p + lin_u) / rho)


def policy(cost: RunningCostSpec, x, p, tol=1e-10, max_iter=50):
    """Unique minimizer of u -> L(x, u) + u . p (Newton, warm started)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if cost.closed_form is not None:
        return np.asarray(cost.closed_form(x, p), dtype=float)
    u = -p / cost.rho_uu
    for _ in range(max_iter):
        grad = cost.dLu(x, u) + p
        hess = cost.d2Luu(x, u)
        if np.any(hess < 0.5 * cost.rho_uu):
            raise NumericalError("control curvature fell below rho_uu / 2")
        step = grad / hess
        u = u - step
        if np.max(np.abs(step)) < tol:
            return u
    raise NumericalError("policy Newton did not converge in 50 iterations")


def hamiltonian(drift: DriftSpec, cost: RunningCostSpec, x, p, extra=0.0):
    """h(x, p) = min_u L(x, u) + (b(x) + u) . p (+ frozen interaction)."""
    w = policy(cost, x, p)
    return cost.L(x, w) + (drift.b(np.asarray(x, dtype=float)) + w) * p + extra


def policy_gap_bound(cost: RunningCostSpec, cost_hat: RunningCostSpec,
                     x, p, C_u_delta_l):
    """Measured |w - w_hat|(x, p) against the budget C_u_delta_l / rho."""
    if cost.rho_uu != cost_hat.rho_uu:
        raise ConfigError("policy gap bound assumes a shared rho_uu")
    gap = np.abs(policy(cost, x, p) - policy(cost_hat, x, p))
    bound = C_u_delta_l / cost.rho_uu
    return {"gap": gap, "bound": bound,
            "pass": bool(np.all(within_bound(gap, bound)))}


# ---------------------------------------------------------------------------
# interaction

@dataclass(frozen=True)
class InteractionSpec:
    kind: str                        # none | mean | conv
    value: Callable                  # (measure, x) -> array
    C_x_F: float = 0.0
    C_xmu_F: Optional[float] = None
    C_mu_F: Optional[float] = None
    C_F: Optional[float] = None
    C_mu_TV_F: Optional[float] = None


def no_interaction():
    return InteractionSpec(kind="none", value=lambda mu, x: np.zeros_like(
        np.asarray(x, dtype=float)), C_x_F=0.0, C_xmu_F=0.0, C_mu_F=0.0,
        C_F=0.0, C_mu_TV_F=0.0)


def mean_interaction(c, mean_bound=1.0):
    """F(mu, x) = c * x * mean(mu); constants declared on |mean| <= bound.

    A batch of S densities gives one row per slice, shape (S, n)."""
    c = float(c)

    def value(mu, x):
        m = mu.mean()
        return c * np.asarray(x, dtype=float) * (m[:, None] if np.ndim(m) else m)

    return InteractionSpec(kind="mean", value=value,
                           C_x_F=abs(c) * mean_bound, C_xmu_F=abs(c),
                           C_mu_F=None, C_F=None, C_mu_TV_F=None)


def conv_tanh_interaction(c):
    """F(mu, x) = c * (tanh * mu)(x): bounded, smooth convolution coupling."""
    c = float(c)
    d2max = 4.0 / (3.0 * np.sqrt(3.0))  # max |tanh''|

    def value(mu, x):
        return c * mu.convolve(np.tanh, np.asarray(x, dtype=float))

    return InteractionSpec(kind="conv", value=value,
                           C_x_F=abs(c), C_xmu_F=abs(c) * d2max,
                           C_mu_F=abs(c), C_F=abs(c), C_mu_TV_F=2.0 * abs(c))


# ---------------------------------------------------------------------------
# terminal cost

@dataclass(frozen=True)
class TerminalCostSpec:
    G: Callable                      # (measure, x) -> array
    C_x_G: Optional[float] = None
    C_G: Optional[float] = None
    C_xx_G: Optional[float] = None
    tag: str = "custom"


def zero_terminal():
    return TerminalCostSpec(G=lambda mu, x: np.zeros_like(np.asarray(x, dtype=float)),
                            C_G=0.0, C_x_G=0.0, C_xx_G=0.0, tag="zero")


def quadratic_terminal(gx, box=5.0):
    gx = float(gx)
    return TerminalCostSpec(G=lambda mu, x: 0.5 * gx * np.asarray(x, dtype=float) ** 2,
                            C_x_G=abs(gx) * box, C_xx_G=abs(gx),
                            tag="quadratic")


# ---------------------------------------------------------------------------
# grids, initial law, Monte Carlo configuration

@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n_x: int
    dt: float

    def __post_init__(self):
        if self.n_x < 3:    # the gradient stencils read three nodes
            raise ConfigError(f"grid needs n_x >= 3, got {self.n_x}")
        if not self.dt > 0.0:
            raise ConfigError(f"grid needs dt > 0, got {self.dt!r}")

    @property
    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_x - 1)

    def check_span(self, sigma0, floor):
        if floor <= 0.0:
            return
        scale = np.sqrt(sigma0 ** 2 / floor)
        if self.x_max - self.x_min < 10.0 * scale:
            raise ConfigError(
                f"grid span {self.x_max - self.x_min:g} below 10 stationary "
                f"scales ({10.0 * scale:g})")


@dataclass(frozen=True)
class GaussianLaw:
    mean: float
    var: float

    def __post_init__(self):
        if not self.var > 0.0:
            raise ConfigError(f"Gaussian law needs var > 0, got {self.var!r}")

    def density(self, x):
        return np.exp(-(x - self.mean) ** 2 / (2.0 * self.var)) \
            / np.sqrt(2.0 * np.pi * self.var)

    def sample(self, n, rng):
        return self.mean + np.sqrt(self.var) * rng.standard_normal(n)


@dataclass(frozen=True)
class MCConfig:
    n_paths: int = 20_000
    dt: float = 1e-3
    master_seed: int = 20240901
    t_grid: tuple = (1.0, 2.0, 4.0)

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError(f"mc needs n_paths >= 1, got {self.n_paths}")
        if not self.dt > 0.0:
            raise ConfigError(f"mc needs dt > 0, got {self.dt!r}")
        if not (self.t_grid and max(self.t_grid) > 0.0):
            raise ConfigError(f"mc needs a t_grid with a positive time, got "
                              f"{self.t_grid!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    drift: DriftSpec
    diffusion: DiffusionSpec
    running_cost: RunningCostSpec
    interaction: InteractionSpec
    terminal_cost: TerminalCostSpec
    mu0: GaussianLaw
    T: float
    regime: str
    grid: Grid1D
    mc: MCConfig = field(default_factory=MCConfig)
    # empirical Hessian bound feeding the relaxed shifted profile, if known
    C_xx_psi: Optional[float] = None

    def __post_init__(self):
        if not self.T > 0.0:
            raise ConfigError(f"horizon must be positive, got {self.T!r}")
        required = {"high": ("C_x_F", "C_xmu_F"),
                    "mild": ("C_x_F", "C_mu_F"),
                    "low": ("C_F", "C_mu_TV_F")}
        if self.regime not in required:
            raise ConfigError(f"unknown regime {self.regime!r}")
        for key in required[self.regime]:
            if getattr(self.interaction, key, None) is None:
                raise ConfigError(f"regime {self.regime!r} needs interaction "
                                  f"constant {key}")
        self.grid.check_span(self.diffusion.sigma0,
                             self.drift.profile.asymptotic_floor)


# ---------------------------------------------------------------------------
# smallness conditions and regime constants

@dataclass(frozen=True)
class SmallnessReport:
    regime: str
    condition_value: float          # interaction strength entering the test
    threshold: float                # certified budget it must stay below
    margin: float                   # threshold / value (inf when value is 0)
    passes: bool
    C_x_psi: float
    tm_b: TwistedMetric
    tm_bar: TwistedMetric           # degenerate when the shift leaves no rate
    epsilon: Callable               # inf everywhere unless the condition passes
    lambda_star: float
    outer_factor: float             # certified contraction of the ergodic map
    relaxed: Optional[dict] = None


def _build_extending(profile, sigma_check):
    """Build a twisted metric, growing r_max when R1 is not bracketed."""
    prof = profile
    for _ in range(_EXTEND_TRIES):
        try:
            return prof, build_twisted_metric(prof, sigma_check)
        except CertificationError as exc:
            if not isinstance(exc.__cause__, NumericalError):
                raise
            prof = make_profile(prof.fn, r_min=prof.r_min,
                                r_max=prof.r_max * 4.0, name=prof.name)
    raise CertificationError(f"R1 not bracketed for {profile.name!r} even "
                             f"after extending the radius grid")


def shifted_metric(profile, c_u, mode, sigma_check, name):
    """(kappa, tm): shift_profile's shifted profile and its twisted metric,
    which is degenerate when kappa leaves class K or its weight underflows."""
    kappa = shift_profile(profile, c_u, mode, name=name)
    if not kappa.certification.is_K:
        return kappa, degenerate_metric(kappa, sigma_check)
    return _build_extending(kappa, sigma_check)


def epsilon_curve(regime, interaction, rho_uu, sigma0, tm_bar):
    lam_bar, C_bar = tm_bar.lam, tm_bar.C
    if regime == "high":
        amp = interaction.C_xmu_F / (rho_uu * C_bar ** 2)

        def eps(lam):
            if not 0.0 <= lam < lam_bar:
                raise ConfigError("epsilon needs 0 <= lam < lam_bar")
            return amp / (lam_bar ** 2 - lam ** 2)
    elif regime == "mild":
        amp = 2.0 * interaction.C_mu_F * np.sqrt(np.e) \
            / (np.sqrt(np.pi) * rho_uu * C_bar ** 2 * sigma0)

        def eps(lam):
            if not 0.0 <= lam < lam_bar:
                raise ConfigError("epsilon needs 0 <= lam < lam_bar")
            return amp * (np.sqrt(lam_bar) / (lam_bar ** 2 - lam ** 2)
                          + 1.0 / (np.sqrt(lam_bar) * (lam_bar - lam)))
    elif regime == "low":
        const = (np.sqrt(np.e) * interaction.C_mu_TV_F
                 / (np.sqrt(np.pi) * rho_uu * C_bar * sigma0 * lam_bar)
                 * max(9.0, 4.0 + 7.0 / (np.sqrt(np.pi) * C_bar * sigma0)))

        def eps(lam):
            # the low-regularity machinery pins lam = lam_bar / 2
            return const
    else:
        raise ConfigError(f"unknown regime {regime!r}")
    return eps


def check_smallness(scenario: Scenario) -> SmallnessReport:
    """Evaluate the scenario's interaction-strength condition with margins."""
    inter, cost = scenario.interaction, scenario.running_cost
    rho, sigma0 = cost.rho_uu, scenario.diffusion.sigma0
    regime = scenario.regime

    _, tm_b = _build_extending(scenario.drift.profile, sigma0)
    if tm_b.degenerate:
        raise CertificationError(f"the drift's own metric certifies no rate "
                                 f"at sigma0 = {sigma0:g}")
    lam_b, C_b = tm_b.lam, tm_b.C

    if regime in ("high", "mild"):
        if cost.C_x_L is None:
            raise ConfigError("high/mild regimes need a declared C_x_L")
        C_x_psi = (cost.C_x_L + inter.C_x_F) / (lam_b * C_b)
        C_u_shift = (2.0 * C_x_psi + cost.C_u_L0) / rho
    else:
        if cost.C_L_osc is None:
            raise ConfigError("low regime needs a declared C_L_osc")
        C_x_psi = (cost.C_L_osc + inter.C_F) \
            / (np.sqrt(np.pi * lam_b) * C_b * sigma0)
        C_u_shift = ((8.0 - 2.0 * np.sqrt(np.e)) * C_x_psi + cost.C_u_L0) / rho

    _, tm_bar = shifted_metric(scenario.drift.profile, C_u_shift, "grad",
                               sigma0, f"{scenario.drift.profile.name}-bar")
    lam_bar, C_bar = tm_bar.lam, tm_bar.C

    if tm_bar.degenerate:
        value, threshold, outer_num, outer_den = np.inf, 0.0, np.inf, 0.0
    elif regime == "high":
        value = inter.C_xmu_F
        threshold = rho * C_bar ** 2 * lam_bar ** 2
        outer_num, outer_den = value, threshold
    elif regime == "mild":
        value = inter.C_mu_F
        threshold = np.sqrt(np.pi) / 4.0 * rho * sigma0 * C_bar ** 2 * lam_bar ** 1.5
        outer_num = 4.0 * value
        outer_den = np.sqrt(np.pi) * rho * C_bar ** 2 * lam_bar ** 1.5 * sigma0
    else:
        value = inter.C_mu_TV_F
        threshold = (rho * np.sqrt(np.pi) * sigma0 * lam_bar * C_bar
                     / (np.sqrt(np.e) * max(9.0, 4.0 + 7.0
                                            / (np.sqrt(np.pi) * C_bar * sigma0))))
        outer_num = ((1.0 / (np.sqrt(np.pi) * C_bar * sigma0) + 0.5)
                     * 4.0 * value)
        outer_den = np.sqrt(np.pi * lam_bar) * rho * C_bar * sigma0
    # a weight that underflows leaves a zero denominator or a factor past
    # the float range; either way the certified factor is inf
    with np.errstate(over="ignore"):
        outer = outer_num / outer_den if outer_den else np.inf

    # equality gives a unit contraction factor, so only a strict inequality
    # counts as a pass in every regime
    passes = bool(value < threshold)
    margin = np.inf if value == 0.0 else threshold / value

    # eps(0) * margin is 1 (high, low) or sqrt(e) (mild): a failed condition
    # has eps(0) >= 1 and no rate, so its curve is not built
    eps = epsilon_curve(regime, inter, rho, sigma0, tm_bar) if passes \
        else (lambda lam: np.inf)
    if eps(0.0) >= 1.0:
        lambda_star = 0.0
    elif regime == "low":
        lambda_star = 0.5 * lam_bar
    elif eps(lam_bar * (1.0 - 1e-12)) < 1.0:
        # vanishing interaction: every rate below lam_bar is usable
        lambda_star = lam_bar
    else:
        lambda_star = bisect_root(lambda lam: eps(lam) - 1.0, 0.0,
                                  lam_bar * (1.0 - 1e-12), tol=1e-13)

    relaxed = None
    if (regime == "high" and scenario.C_xx_psi is not None
            and cost.C_xu_L is not None):
        C_x_u = (cost.C_xu_L + scenario.C_xx_psi) / rho
        _, tm_rel = shifted_metric(
            scenario.drift.profile, C_x_u, "hess", sigma0,
            f"{scenario.drift.profile.name}-bar-relaxed")
        threshold_rel = rho * tm_rel.C ** 2 * tm_rel.lam ** 2
        relaxed = {"C_x_u": C_x_u, "lambda": tm_rel.lam, "C": tm_rel.C,
                   "value": inter.C_xmu_F, "threshold": threshold_rel,
                   "passes": bool(inter.C_xmu_F < threshold_rel),
                   "dominates_base": bool(tm_rel.lam >= lam_bar - 1e-12
                                          and tm_rel.C >= C_bar - 1e-12)}

    return SmallnessReport(regime=regime, condition_value=value,
                           threshold=threshold, margin=margin, passes=passes,
                           C_x_psi=C_x_psi, tm_b=tm_b, tm_bar=tm_bar,
                           epsilon=eps, lambda_star=lambda_star,
                           outer_factor=outer, relaxed=relaxed)


# ---------------------------------------------------------------------------
# assumption probes (sampled, not proved)

def probe_assumptions(scenario: Scenario, n=1000, seed=0):
    """Finite-difference probes of every declared constant on the grid box.

    Returns {name: {"measured": ..., "declared": ..., "pass": bool}}.  A probe
    passes when the declared constant dominates the sampled estimate.
    """
    rng = np.random.default_rng(seed)
    box = (scenario.grid.x_min, scenario.grid.x_max)
    xs = rng.uniform(box[0], box[1], n)
    ys = rng.uniform(box[0], box[1], n)
    us = rng.uniform(-3.0, 3.0, n)
    diff, cost, drift = scenario.diffusion, scenario.running_cost, scenario.drift
    out = {}

    # sampled probes carry quadrature/finite-difference error ~1e-3
    def record(name, measured, declared, geq=False):
        ok = measured >= declared * (1.0 - 2e-3) - 1e-9 if geq \
            else measured <= declared * (1.0 + 2e-3) + 1e-9
        out[name] = {"measured": float(measured), "declared": float(declared),
                     "pass": bool(ok)}

    sig = diff.sigma_at(xs)
    record("ellipticity_lower", float(np.min(sig ** 2)),
           2.0 * diff.sigma0 ** 2, geq=True)
    record("ellipticity_upper", float(np.max(sig ** 2)), 2.0 * diff.Sigma ** 2)
    gap = np.abs(xs - ys) > 1e-9
    record("sigma_lipschitz",
           float(np.max(np.abs(diff.sigma_at(xs) - diff.sigma_at(ys))[gap]
                        / np.abs(xs - ys)[gap])), diff.C_x_sigma)
    # reduced factor inherits Lipschitz continuity with the 2 Sigma / sigma0 rate
    sb = diff.sigma_bar_scalar(xs) - diff.sigma_bar_scalar(ys)
    record("sigma_bar_lipschitz", float(np.max(np.abs(sb)[gap]
                                               / np.abs(xs - ys)[gap])),
           2.0 * diff.Sigma / diff.sigma0 * diff.C_x_sigma
           if diff.C_x_sigma > 0 else 0.0)

    h = 1e-4
    curv = (cost.L(xs, us + h) - 2.0 * cost.L(xs, us) + cost.L(xs, us - h)) / h ** 2
    record("control_convexity", float(np.min(curv)), cost.rho_uu * (1.0 - 1e-5),
           geq=True)
    record("control_gradient_at_zero",
           float(np.max(np.abs(cost.dLu(xs, np.zeros_like(xs))))), cost.C_u_L0)
    if cost.C_x_L is not None:
        lips = np.abs(cost.L(xs, us) - cost.L(ys, us))[gap] / np.abs(xs - ys)[gap]
        record("running_cost_x_lipschitz", float(np.max(lips)), cost.C_x_L)
    if cost.C_L_osc is not None:
        osc = np.abs(cost.L(xs, us) - cost.L(np.zeros_like(xs), us))
        record("running_cost_oscillation", float(np.max(osc)), cost.C_L_osc)

    growth = np.abs(drift.b(xs)) / (1.0 + np.abs(xs) ** drift.growth_p)
    record("drift_growth", float(np.max(growth)), drift.growth_K)

    # policy bounds: magnitude and Lipschitz dependence on the costate
    ps = rng.uniform(-5.0, 5.0, n)
    qs = rng.uniform(-5.0, 5.0, n)
    w_p = policy(cost, xs, ps)
    w_q = policy(cost, xs, qs)
    record("policy_magnitude",
           float(np.max(np.abs(w_p) - (cost.C_u_L0 + np.abs(ps)) / cost.rho_uu)),
           0.0)
    gapp = np.abs(ps - qs) > 1e-9
    record("policy_costate_lipschitz",
           float(np.max(np.abs(w_p - w_q)[gapp] / np.abs(ps - qs)[gapp])),
           1.0 / cost.rho_uu)

    inter = scenario.interaction
    if inter.kind != "none":
        # the probe measure family needs its own wide support; the scenario
        # box may truncate the fattest probe Gaussians
        gx = np.linspace(-8.0, 8.0, 801)
        grid_p, clouds = [], []
        for _ in range(24):
            law = GaussianLaw(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0))
            grid_p.append(law.density(gx))
            pts = law.sample(512, rng)
            # recenter so the cloud stays inside the declared mean family
            clouds.append(ParticleCloud(pts - pts.mean() + law.mean))
        # the grid densities (and below the pairs) go to the interaction as
        # one batched GridDensity: one kernel build for all of them
        values = list(inter.value(GridDensity(gx, np.stack(grid_p)), gx))
        values += [inter.value(mu, gx) for mu in clouds]
        lip_vals = [lip_norm(gx, v) for v in values]
        pairs = np.stack([GaussianLaw(rng.uniform(-1.0, 1.0),
                                      rng.uniform(0.3, 2.0)).density(gx)
                          for _ in range(80)])
        pair_vals = inter.value(GridDensity(gx, pairs), gx)
        pair_x, pair_sup, pair_tv = [], [], []
        for mu_p, nu_p, mu_v, nu_v in zip(pairs[0::2], pairs[1::2],
                                          pair_vals[0::2], pair_vals[1::2]):
            w1 = w1_grid(gx, mu_p, nu_p, check=False)
            if w1 < 1e-6:
                continue
            dv = mu_v - nu_v
            pair_x.append(lip_norm(gx, dv) / w1)
            pair_sup.append(float(np.max(np.abs(dv))) / w1)
            tv = tv_grid(gx, mu_p, nu_p, check=False)
            if tv > 1e-6:
                pair_tv.append(float(np.max(np.abs(dv))) / tv)
        record("interaction_x_lipschitz", float(np.max(lip_vals)), inter.C_x_F)
        if inter.C_xmu_F is not None:
            record("interaction_x_measure_lipschitz", float(np.max(pair_x)),
                   inter.C_xmu_F)
        if inter.C_mu_F is not None:
            record("interaction_measure_lipschitz", float(np.max(pair_sup)),
                   inter.C_mu_F)
        if inter.C_F is not None:
            sups = [float(np.max(np.abs(v))) for v in values]
            record("interaction_sup", float(np.max(sups)), inter.C_F)
        if inter.C_mu_TV_F is not None and pair_tv:
            record("interaction_tv_lipschitz", float(np.max(pair_tv)),
                   inter.C_mu_TV_F)

    term = scenario.terminal_cost
    gx = np.linspace(box[0], box[1], 401)
    mu = GridDensity(gx, scenario.mu0.density(gx))
    gvals = term.G(mu, gx)
    if term.C_x_G is not None:
        record("terminal_lipschitz", lip_norm(gx, gvals), term.C_x_G)
    if term.C_G is not None:
        record("terminal_sup", float(np.max(np.abs(gvals))), term.C_G)
    return out


# ---------------------------------------------------------------------------
# scenario files: the shipped JSON catalog and dotted-path overrides

CATALOG_DIR = Path(__file__).parent / "scenarios"

_SCHEMA = {
    "name": None,
    "drift": {"kind", "beta"},
    "diffusion": {"kind", "sigma"},
    "running_cost": {"kind", "rho_uu", "q", "lin_u", "C_x_L", "C_L_osc"},
    "interaction": {"kind", "c", "mean_bound"},
    "terminal_cost": {"kind", "gx"},
    "mu0": {"mean", "var"},
    "horizon": None,
    "regime": None,
    "grid": {"x_min", "x_max", "n_x", "dt"},
    "mc": {"n_paths", "dt", "master_seed", "t_grid"},
    "C_xx_psi": None,
}


# counts and seeds: a float such as 301.0 would load but break later
_INTEGER_FIELDS = (("grid", "n_x"), ("mc", "n_paths"), ("mc", "master_seed"))


def scenario_path(spec) -> Path:
    """The file a spec names: a path, or else a catalog entry by name."""
    if Path(spec).is_file():
        return Path(spec)
    builtin = CATALOG_DIR / f"{spec}.json"
    if not builtin.is_file():
        raise ConfigError(
            f"scenario {spec!r}: no such file or catalog entry (choices: "
            f"{sorted(p.stem for p in CATALOG_DIR.glob('*.json'))})")
    return builtin


def set_by_path(raw, dotted, value):
    """Set the entry of a raw scenario dict at a dotted path ("grid.n_x")."""
    head, _, leaf = dotted.partition(".")
    if head in _SCHEMA and not leaf:
        raw[head] = value
        return
    section = raw.setdefault(head, {}) if head in _SCHEMA else None
    if not isinstance(section, dict) or leaf not in (_SCHEMA[head] or ()):
        raise ConfigError(f"unknown scenario path {dotted!r}")
    section[leaf] = value


def load_scenario(spec, overrides=None) -> Scenario:
    """Load a scenario file or catalog entry, rejecting unknown keys.

    overrides maps dotted paths to values, e.g. {"grid.n_x": 501,
    "horizon": 1.0}.  They are applied to the raw file before its schema
    check; an unknown path raises ConfigError.
    """
    path = scenario_path(spec)
    with open(path) as fh:
        raw = json.load(fh)
    for dotted, value in (overrides or {}).items():
        set_by_path(raw, dotted, value)
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown top-level key {key!r} in {path}")
        allowed = _SCHEMA[key]
        if allowed is not None and isinstance(raw[key], dict):
            for sub in raw[key]:
                if sub not in allowed:
                    raise ConfigError(f"unknown key {key}.{sub} in {path}")
    for key in ("drift", "diffusion", "running_cost", "mu0", "grid",
                "horizon", "regime", "name"):
        if key not in raw:
            raise ConfigError(f"missing section {key!r} in {path}")
    for head, leaf in _INTEGER_FIELDS:
        section = raw.get(head)
        value = section.get(leaf, 0) if isinstance(section, dict) else 0
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, np.integer)):
            raise ConfigError(f"{head}.{leaf} must be an integer, got "
                              f"{value!r} in {path}")
    try:
        return _scenario_from_raw(raw)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed scenario {path}: {exc!r}") from None


def _scenario_from_raw(raw) -> Scenario:
    d = raw["drift"]
    if d["kind"] == "linear":
        drift = linear_drift(d.get("beta", 1.0))
    elif d["kind"] == "double_well":
        drift = double_well_drift(box=raw["grid"]["x_max"])
    else:
        raise ConfigError(f"unknown drift kind {d['kind']!r} (section drift)")

    df = raw["diffusion"]
    if df["kind"] != "constant":
        raise ConfigError("scenario files support constant diffusion only")
    diffusion = constant_diffusion(df["sigma"])

    rc = raw["running_cost"]
    if rc["kind"] != "quadratic":
        raise ConfigError("scenario files support quadratic running costs only")
    x_lim = max(abs(raw["grid"]["x_min"]), abs(raw["grid"]["x_max"]))
    q = rc.get("q", 0.0)
    cost = quadratic_cost(rho_uu=rc.get("rho_uu", 1.0), q=q,
                          lin_u=rc.get("lin_u", 0.0),
                          C_x_L=rc.get("C_x_L", q * x_lim),
                          C_L_osc=rc.get("C_L_osc",
                                         0.0 if q == 0.0 else None))

    it = raw.get("interaction", {"kind": "none"})
    if it["kind"] == "none":
        inter = no_interaction()
    elif it["kind"] == "mean":
        mean_bound = it.get("mean_bound", 1.0)
        # C_x_F = |c| mean_bound holds only while |mean(mu)| <= mean_bound,
        # so an initial law outside the bound would be certified on an
        # understated constant
        if abs(raw["mu0"]["mean"]) > mean_bound:
            raise ConfigError(f"mu0.mean {raw['mu0']['mean']!r} lies outside "
                              f"interaction.mean_bound {mean_bound!r}")
        inter = mean_interaction(it["c"], mean_bound)
    elif it["kind"] == "conv_tanh":
        inter = conv_tanh_interaction(it["c"])
    else:
        raise ConfigError(f"unknown interaction kind {it['kind']!r} "
                          f"(section interaction)")

    tc = raw.get("terminal_cost", {"kind": "zero"})
    if tc["kind"] == "zero":
        term = zero_terminal()
    elif tc["kind"] == "quadratic":
        term = quadratic_terminal(tc["gx"], box=x_lim)
    else:
        raise ConfigError(f"unknown terminal kind {tc['kind']!r} "
                          f"(section terminal_cost)")

    g = raw["grid"]
    grid = Grid1D(g["x_min"], g["x_max"], g["n_x"], g["dt"])
    mc_raw = raw.get("mc", {})
    mc = MCConfig(n_paths=mc_raw.get("n_paths", 20_000),
                  dt=mc_raw.get("dt", 1e-3),
                  master_seed=mc_raw.get("master_seed", 20240901),
                  t_grid=tuple(mc_raw.get("t_grid", (1.0, 2.0, 4.0))))
    return Scenario(name=raw["name"], drift=drift, diffusion=diffusion,
                    running_cost=cost, interaction=inter, terminal_cost=term,
                    mu0=GaussianLaw(raw["mu0"]["mean"], raw["mu0"]["var"]),
                    T=raw["horizon"], regime=raw["regime"], grid=grid, mc=mc,
                    C_xx_psi=raw.get("C_xx_psi"))
