"""Discrete-time coupled diffusions: synchronous, reflection, controlled
reflection, interpolated, and mollified (delta-approximate) couplings.

Paths are simulated in fixed-size chunks, each with its own counter-derived
RNG stream, and chunk results are reduced in index order, so estimators are
bit-identical for any worker count.  Coalescence mirrors the exact meeting
time: a pair is glued when the separation falls below coalesce_eps or when a
Brownian-bridge test says the continuous radial path crossed zero inside the
step (gluing late, never early, so measured contraction is only weakened).
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .distances import w1_samples
from .errors import MfglabError
from .metrics import DomainError, q_kernel


class CouplingError(MfglabError, ValueError):
    kind = "config"


KINDS = ("synchronous", "reflection", "controlled_reflection", "interpolated",
         "approx_delta")
_GLUE_KINDS = ("reflection", "controlled_reflection", "interpolated")
_CHUNK_SIZE = 16384       # paths per chunk, each with its own RNG stream
_OVERFLOW_GUARD = 1e7     # |x| beyond which a path run aborts
_MOMENT_TIMES = 41        # output times of the moment diagnostic


@dataclass(frozen=True)
class CouplingConfig:
    kind: str
    dt: float
    n_paths: int
    t_grid: tuple
    beta: Callable                       # (t, x) -> drift of the first path
    beta_hat: Optional[Callable] = None  # second drift (approx_delta only)
    control: Optional[Callable] = None   # (t, x) -> shared control term
    coalesce_eps: Optional[float] = None
    delta: float = 1e-2
    master_seed: int = 20240901
    bridge_gluing: bool = True
    chunk_size: int = _CHUNK_SIZE
    n_threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CouplingError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "approx_delta":
            if self.beta_hat is None:
                raise CouplingError("approx_delta needs a second drift")
            eps = self.coalesce_eps
            if eps is not None and eps > self.delta / 2.0:
                raise CouplingError("coalesce_eps must be <= delta / 2")
        if self.kind == "controlled_reflection" and self.control is None:
            raise CouplingError("controlled_reflection needs a control field")

    def eps_for(self, sigma0):
        if self.coalesce_eps is not None:
            return self.coalesce_eps
        # default threshold matches the per-step noise scale, so the stated
        # guard dt <= eps^2 / (8 sigma0^2) holds as equality
        return math.sqrt(8.0 * sigma0 ** 2 * self.dt)

    def validate_dt(self, sigma0):
        if not self.bridge_gluing and self.kind in _GLUE_KINDS:
            eps = self.eps_for(sigma0)
            if self.dt > eps ** 2 / (8.0 * sigma0 ** 2) * (1.0 + 1e-12):
                raise CouplingError(
                    "dt exceeds coalesce_eps^2 / (8 sigma0^2); enable bridge "
                    "gluing or refine the step")


@dataclass
class CouplingStats:
    t_grid: np.ndarray
    mean_f: np.ndarray
    se_f: np.ndarray
    p_neq: np.ndarray
    se_p: np.ndarray
    mean_f0: float
    bound_f: np.ndarray        # exp(-lam t) * mean_f0
    bound_p: np.ndarray        # q_t * mean_f0
    mean_f2: Optional[np.ndarray] = None
    se_f2: Optional[np.ndarray] = None
    mean_f2_0: Optional[float] = None
    bound_f2: Optional[np.ndarray] = None
    mean_r: Optional[np.ndarray] = None
    n_paths: int = 0


def _smoothstep(u):
    """C^1 ramp: 0 below 1/2, 1 above 1, monotone cubic in between."""
    w = np.clip((u - 0.5) / 0.5, 0.0, 1.0)
    return w * w * (3.0 - 2.0 * w)


def _chunk_ranges(n_paths, chunk_size):
    starts = list(range(0, n_paths, chunk_size))
    return [(s, min(s + chunk_size, n_paths)) for s in starts]


def _simulate_chunk(config, diffusion, init_sampler, chunk_index, n_chunk,
                    f_eval, f2_eval, out_steps):
    """One chunk of coupled 1D paths; returns per-output-time accumulators.

    The pair is carried as (X, D) with D = X - X_hat, which puts the
    coalescence logic on the scalar separation.  For the mollified coupling
    the band |D| <= delta/2 is exactly noise-free in continuous time, so
    in-band paths advance by their drift alone (no step-size constraint) and
    band entry is detected by a Brownian-bridge barrier test; continuous
    paths cannot tunnel through the band, so sign flips happen only through
    the drift, never through a discrete noise overshoot.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, chunk_index)))
    x, xh = init_sampler(n_chunk, rng)
    x = np.asarray(x, dtype=float).copy()
    d = x - np.asarray(xh, dtype=float)
    dt = config.dt
    sqdt = math.sqrt(dt)
    sigma0 = diffusion.sigma0
    eps = config.eps_for(sigma0)
    kind = config.kind
    glue_kind = kind in _GLUE_KINDS
    approx = kind == "approx_delta"
    half_band = 0.5 * config.delta
    glued = np.zeros(n_chunk, dtype=bool)      # reflected kinds only
    in_band = np.zeros(n_chunk, dtype=bool)    # mollified kind only
    if approx:
        in_band = np.abs(d) <= half_band

    n_out = len(out_steps)
    sums = np.zeros((n_out, 6))  # f, f^2, neq, f2, f2^2, r
    f0 = f_eval(np.abs(d))
    acc0 = np.array([np.sum(f0), np.sum(f0 ** 2)])
    f2_0 = np.zeros(2)
    if f2_eval is not None:
        v = f2_eval(np.abs(d))
        f2_0 = np.array([np.sum(v), np.sum(v ** 2)])

    step_of = {s: j for j, s in enumerate(out_steps)}
    n_steps = max(out_steps)
    if 0 in step_of:
        _record(sums[step_of[0]], d, glued, f_eval, f2_eval, eps, kind,
                config.delta)

    for k in range(n_steps):
        t = k * dt
        if glue_kind and np.all(glued):
            break
        r_old = np.abs(d)
        xh = x - d

        bx = config.beta(t, x)
        bxh = config.beta(t, xh) if not approx else config.beta_hat(t, xh)
        if config.control is not None:
            a = config.control(t, x)
            bx = bx + a
            bxh = bxh + a
        drift_d = bx - bxh

        z1 = rng.standard_normal(n_chunk)
        z3 = rng.standard_normal(n_chunk)
        # fixed draw counts per step keep streams aligned across variants
        # (common random numbers for the delta-extrapolation runs)
        u_step = rng.random(n_chunk)
        sb_x = diffusion.sigma_bar_scalar(x)
        sb_xh = diffusion.sigma_bar_scalar(xh)
        dsb = sb_x - sb_xh

        if kind == "synchronous":
            nx = sigma0 * z1 + sb_x * z3
            nd = dsb * z3
            v_refl = 0.0
        elif kind in ("reflection", "controlled_reflection"):
            nx = sigma0 * z1 + sb_x * z3
            nd = 2.0 * sigma0 * z1 + dsb * z3
            v_refl = 4.0 * sigma0 ** 2
        elif kind == "interpolated":
            z2 = rng.standard_normal(n_chunk)
            amp = sigma0 / math.sqrt(2.0)
            nx = amp * z1 + amp * z2 + sb_x * z3
            nd = 2.0 * amp * z1 + dsb * z3
            v_refl = 2.0 * sigma0 ** 2
        else:  # approx_delta
            z2 = rng.standard_normal(n_chunk)
            rc = np.where(in_band, 0.0, _smoothstep(r_old / config.delta))
            sc = np.sqrt(np.maximum(1.0 - rc * rc, 0.0))
            nx = sigma0 * rc * z1 + sigma0 * sc * z2 + sb_x * z3
            nd = 2.0 * sigma0 * rc * z1 + dsb * z3
            v_refl = 4.0 * sigma0 ** 2

        x = x + bx * dt + nx * sqdt
        if glue_kind:
            d_new = np.where(glued, 0.0, d + drift_d * dt + nd * sqdt)
            r_new = np.abs(d_new)
            hit = ~glued & (r_new < eps)
            if config.bridge_gluing:
                arg = r_old * r_new / (0.5 * v_refl * dt)
                maybe = ~glued & ~hit & (arg < 40.0)
                crossed = maybe & (u_step < np.exp(-np.where(maybe, arg, 0.0)))
                hit = hit | crossed
            glued = glued | hit
            d = np.where(glued, 0.0, d_new)
        elif approx:
            # noise-free band: drift-only advance, sign may change via drift
            d_band = d + drift_d * dt
            d_free = d + drift_d * dt + nd * sqdt
            sign = np.where(d >= 0.0, 1.0, -1.0)
            r_free = sign * d_free                 # signed: <0 means crossed
            entered = ~in_band & (r_free <= half_band)
            # bridge test against the band edge for non-entering paths
            gap_old = r_old - half_band
            gap_new = r_free - half_band
            arg = gap_old * np.maximum(gap_new, 0.0) / (0.5 * v_refl * dt)
            maybe = ~in_band & ~entered & (arg < 40.0)
            bridged = maybe & (u_step < np.exp(-np.where(maybe, arg, 0.0)))
            d = np.where(in_band, d_band,
                         np.where(entered,
                                  sign * np.clip(r_free, 0.0, half_band),
                                  np.where(bridged, sign * 0.5 * half_band,
                                           d_free)))
            in_band = np.abs(d) <= half_band
        else:
            d = d + drift_d * dt + nd * sqdt

        if np.max(np.abs(x)) > _OVERFLOW_GUARD:
            raise CouplingError("path overflow: reduce dt or check the drift")

        s = k + 1
        if s in step_of:
            _record(sums[step_of[s]], d, glued, f_eval, f2_eval, eps, kind,
                    config.delta)
    return sums, acc0, f2_0


def _record(row, d, glued, f_eval, f2_eval, eps, kind, delta):
    r = np.abs(d)
    fv = f_eval(r)
    row[0] += np.sum(fv)
    row[1] += np.sum(fv ** 2)
    if kind in _GLUE_KINDS:
        row[2] += np.sum(~glued)
    elif kind == "approx_delta":
        row[2] += np.sum(r > delta)
    else:
        row[2] += np.sum(r > eps)
    if f2_eval is not None:
        v = f2_eval(r)
        row[3] += np.sum(v)
        row[4] += np.sum(v ** 2)
    row[5] += np.sum(r)


def simulate_coupling(config: CouplingConfig, diffusion, init_sampler,
                      tm=None, tm2=None) -> CouplingStats:
    """Run the configured coupling and estimate contraction quantities.

    tm supplies the concave cost f and the certified (lam, C) for the
    theoretical curves; tm2 optionally adds the quadratically growing cost.
    """
    config.validate_dt(diffusion.sigma0)
    f_eval = (lambda r: tm.f(r)) if tm is not None else (lambda r: r)
    f2_eval = (lambda r: tm2.f2(r)) if tm2 is not None else None
    dt = config.dt
    out_steps = sorted({int(round(t / dt)) for t in config.t_grid})
    for t in config.t_grid:
        if abs(round(t / dt) * dt - t) > 1e-9:
            raise CouplingError(f"output time {t:g} not on the dt grid")

    ranges = _chunk_ranges(config.n_paths, config.chunk_size)
    results = [None] * len(ranges)

    def work(i):
        lo, hi = ranges[i]
        results[i] = _simulate_chunk(config, diffusion, init_sampler, i,
                                     hi - lo, f_eval, f2_eval, out_steps)

    if config.n_threads > 1:
        with ThreadPoolExecutor(max_workers=config.n_threads) as pool:
            list(pool.map(work, range(len(ranges))))
    else:
        for i in range(len(ranges)):
            work(i)

    n = config.n_paths
    sums = np.zeros((len(out_steps), 6))
    acc0 = np.zeros(2)
    f2_0 = np.zeros(2)
    for res in results:   # fixed chunk order: identical for any worker count
        sums += res[0]
        acc0 += res[1]
        f2_0 += res[2]

    t_arr = np.array(sorted(config.t_grid))
    mean_f = sums[:, 0] / n
    var_f = np.maximum(sums[:, 1] / n - mean_f ** 2, 0.0)
    p_neq = sums[:, 2] / n
    mean_f0 = acc0[0] / n
    out = CouplingStats(
        t_grid=t_arr, mean_f=mean_f, se_f=np.sqrt(var_f / n),
        p_neq=p_neq, se_p=np.sqrt(np.maximum(p_neq * (1 - p_neq), 0.0) / n),
        mean_f0=mean_f0,
        bound_f=(np.exp(-tm.lam * t_arr) * mean_f0 if tm is not None
                 else np.full_like(t_arr, np.inf)),
        bound_p=(q_kernel(tm.C, tm.lam, tm.sigma_check,
                          np.maximum(t_arr, 1e-300)) * mean_f0
                 if tm is not None else np.full_like(t_arr, np.inf)),
        mean_r=sums[:, 5] / n, n_paths=n)
    if f2_eval is not None:
        mean_f2 = sums[:, 3] / n
        var2 = np.maximum(sums[:, 4] / n - mean_f2 ** 2, 0.0)
        out.mean_f2 = mean_f2
        out.se_f2 = np.sqrt(var2 / n)
        out.mean_f2_0 = f2_0[0] / n
        out.bound_f2 = np.exp(-tm2.lambda2 * t_arr) * out.mean_f2_0
    return out


# ---------------------------------------------------------------------------
# drift-mismatch coupling checks

def check_drift_gap_bounds(config: CouplingConfig, diffusion, init_sampler,
                           tm, delta_beta_sup, t0=None, tv_true=None):
    """Contraction-with-offset and coalescence bounds under a drift gap.

    delta_beta_sup is the declared sup-norm gap between the two drifts
    (a constant or a callable of time).  Returns the measured quantities
    and the two bound values; the time-marginal total variation is compared
    when the caller supplies the exact value.
    """
    if config.kind != "approx_delta":
        raise CouplingError("drift-gap bounds need the approx_delta coupling")
    stats = simulate_coupling(config, diffusion, init_sampler, tm=tm)
    lam = tm.lam
    gap = delta_beta_sup if callable(delta_beta_sup) \
        else (lambda s: delta_beta_sup)
    t_arr = stats.t_grid
    offsets = []
    for t in t_arr:
        ss = np.linspace(0.0, t, 257)
        offsets.append(np.trapezoid(np.exp(-lam * (t - ss))
                                    * np.array([gap(s) for s in ss]), ss)
                       if t > 0 else 0.0)
    bound_i = np.exp(-lam * t_arr) * stats.mean_f0 + np.array(offsets)
    report = {"stats": stats, "bound_with_offset": bound_i,
              "pass_contraction": bool(np.all(
                  stats.mean_f <= bound_i + 3.0 * stats.se_f
                  + 10.0 * config.delta))}

    if t0 is not None:
        t_end = float(t_arr[-1])
        if t_end <= t0:
            raise DomainError("coalescence bound needs t > t0")
        cfg0 = replace(config, t_grid=(max(t0, config.dt),))
        st0 = simulate_coupling(cfg0, diffusion, init_sampler, tm=tm)
        ss = np.linspace(t0, t_end, 257)
        girsanov = np.sqrt(np.trapezoid(np.array([gap(s) ** 2 for s in ss]),
                                        ss) / 2.0)
        bound_tv = q_kernel(tm.C, tm.lam, tm.sigma_check, t_end - t0) \
            * float(st0.mean_f[0]) + girsanov
        report["bound_tv"] = bound_tv
        report["tv_true"] = tv_true
        if tv_true is not None:
            report["pass_tv"] = bool(tv_true <= bound_tv + 1e-12)
    return report


# ---------------------------------------------------------------------------
# moment plateau diagnostic

def moment_diagnostic(beta, diffusion, init_sampler, p, T, dt=1e-3,
                      n_paths=20_000, master_seed=7):
    """sup_t of the p-th absolute moment plus a no-growth plateau test.

    Growth over the last half of the horizon is tested with a paired
    per-path statistic |X_T|^p - |X_{T/2}|^p (paths are independent, unlike
    the time series of the moments themselves); a significantly positive
    mean at the one-sided 95% level fails the plateau.
    """
    n_steps = int(round(T / dt))
    half_step = n_steps // 2
    out_steps = np.unique(np.concatenate(
        [np.linspace(0, n_steps, _MOMENT_TIMES).astype(int),
         [half_step, n_steps]]))
    ranges = _chunk_ranges(n_paths, _CHUNK_SIZE)
    totals = np.zeros(len(out_steps))
    d_sum, d_sq = 0.0, 0.0
    for ci, (lo, hi) in enumerate(ranges):
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, ci)))
        x = np.asarray(init_sampler(hi - lo, rng), dtype=float).copy()
        half_vals = None
        step_of = {int(s): j for j, s in enumerate(out_steps)}
        if 0 in step_of:
            totals[step_of[0]] += np.sum(np.abs(x) ** p)
        for k in range(n_steps):
            t = k * dt
            z = rng.standard_normal(hi - lo)
            sb = diffusion.sigma_bar_scalar(x)
            noise = np.sqrt(diffusion.sigma0 ** 2 + sb ** 2)
            x = x + beta(t, x) * dt + noise * z * np.sqrt(dt)
            if (k + 1) in step_of:
                totals[step_of[k + 1]] += np.sum(np.abs(x) ** p)
            if (k + 1) == half_step:
                half_vals = np.abs(x) ** p
        d = np.abs(x) ** p - half_vals
        d_sum += float(np.sum(d))
        d_sq += float(np.sum(d * d))
    moments = totals / n_paths
    times = out_steps * dt
    d_mean = d_sum / n_paths
    d_var = max(d_sq / n_paths - d_mean ** 2, 0.0)
    d_se = np.sqrt(d_var / n_paths)
    tstat = d_mean / d_se if d_se > 0.0 else 0.0
    return {"times": times, "moments": moments,
            "sup_moment": float(np.max(moments)),
            "growth": float(d_mean), "growth_se": float(d_se),
            "trend_tstat": float(tstat),
            "passes": bool(tstat <= 1.645)}


# ---------------------------------------------------------------------------
# time-regularity diagnostics

def time_regularity(times, marginals, kind="particles", xs=None,
                    tv_floor_time=None, lags=(1, 2, 4, 8)):
    """Empirical Hoelder constants of t -> mu_t in W1 (and TV for grids)."""
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise DomainError("time regularity needs at least two time points")
    w1_best = 0.0
    tv_best = 0.0
    for lag in lags:
        for i in range(len(times) - lag):
            gap = times[i + lag] - times[i]
            if gap <= 0:
                continue
            if kind == "particles":
                d = w1_samples(marginals[i], marginals[i + lag])
            else:
                from .distances import w1_grid
                d = w1_grid(xs, marginals[i], marginals[i + lag], check=False)
            w1_best = max(w1_best, d / np.sqrt(gap))
            if kind == "grid" and (tv_floor_time is None
                                   or times[i] >= tv_floor_time):
                from .distances import tv_grid
                tvd = tv_grid(xs, marginals[i], marginals[i + lag],
                              check=False)
                tv_best = max(tv_best, tvd / np.sqrt(gap))
    out = {"w1_holder": w1_best}
    if kind == "grid":
        out["tv_holder"] = tv_best
    return out
