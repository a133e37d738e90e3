"""Step-by-step reference of the coupling kernel, for the bit-identity tests.

``reference_chunk`` is the plain-expression form of
``mfglab.couplings._simulate_chunk``: it allocates every temporary, draws
each step's noise when it needs it and writes the mollified update as
nested ``np.where`` calls.  It keeps every pair in full-length arrays: a
reflected kind draws each step's noise for its unglued pairs only and
scatters it to them in path order, and a glued pair's X stays where it
glued.  The kernel in the package must give the same accumulators bit for
bit, for every kind, diffusion and worker count.
"""

import math

import numpy as np

from mfglab.couplings import _GLUE_KINDS, _OVERFLOW_GUARD, _record
from mfglab.errors import NumericalError


def _smoothstep(u):
    """C^1 ramp: 0 below 1/2, 1 above 1, monotone cubic in between."""
    w = np.clip((u - 0.5) / 0.5, 0.0, 1.0)
    return w * w * (3.0 - 2.0 * w)


def scatter(values, mask):
    """values at the positions where mask holds, in order; 0 elsewhere."""
    out = np.zeros(len(mask))
    out[mask] = values
    return out


def reference_chunk(config, diffusion, init_sampler, chunk_index, n_chunk,
                    f_eval, f2_eval, out_steps, draw_ahead=False):
    """One chunk of coupled 1D paths; returns per-output-time accumulators.

    The pair is carried as (X, D) with D = X - X_hat, which puts the
    coalescence logic on the scalar separation.  For the mollified coupling
    the band |D| <= delta/2 is exactly noise-free in continuous time, so
    in-band paths advance by their drift alone (no step-size constraint) and
    band entry is detected by a Brownian-bridge barrier test; continuous
    paths cannot tunnel through the band, so sign flips happen only through
    the drift, never through a discrete noise overshoot.  draw_ahead is
    accepted for the kernel's signature and ignored.
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

        # a reflected kind draws for its unglued pairs only; the other
        # kinds draw for every path on every step
        live = ~glued
        n_live = int(np.sum(live))
        z1 = scatter(rng.standard_normal(n_live), live)
        z3 = scatter(rng.standard_normal(n_live), live)
        u_step = scatter(rng.random(n_live), live)
        sb_x = diffusion.sigma_bar_scalar(x)
        sb_xh = diffusion.sigma_bar_scalar(xh)
        dsb = sb_x - sb_xh

        if kind == "synchronous":
            nx = sigma0 * z1 + sb_x * z3
            nd = dsb * z3
            v_refl = 0.0
        elif kind == "reflection":
            nx = sigma0 * z1 + sb_x * z3
            nd = 2.0 * sigma0 * z1 + dsb * z3
            v_refl = 4.0 * sigma0 ** 2
        elif kind == "interpolated":
            z2 = scatter(rng.standard_normal(n_live), live)
            amp = sigma0 / math.sqrt(2.0)
            nx = amp * z1 + amp * z2 + sb_x * z3
            nd = 2.0 * amp * z1 + dsb * z3
            v_refl = 2.0 * sigma0 ** 2
        else:  # approx_delta
            rc = np.where(in_band, 0.0, _smoothstep(r_old / config.delta))
            if diffusion.is_constant:
                # z2 and z3 move X and X_hat alike: one normal carries both
                nx = sigma0 * rc * z1 + np.sqrt(
                    np.maximum(1.0 - rc * rc, 0.0) * (sigma0 * sigma0)
                    + sb_x * sb_x) * z3
            else:
                z2 = scatter(rng.standard_normal(n_live), live)
                sc = np.sqrt(np.maximum(1.0 - rc * rc, 0.0))
                nx = sigma0 * rc * z1 + sigma0 * sc * z2 + sb_x * z3
            nd = 2.0 * sigma0 * rc * z1 + dsb * z3
            v_refl = 4.0 * sigma0 ** 2

        x = np.where(live, x + bx * dt + nx * sqdt, x)
        if glue_kind:
            d_new = np.where(glued, 0.0, d + drift_d * dt + nd * sqdt)
            r_new = np.abs(d_new)
            hit = ~glued & (r_new < eps)
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

        if np.max(np.abs(x[live])) > _OVERFLOW_GUARD:
            raise NumericalError("path overflow: reduce dt or check the drift")

        s = k + 1
        if s in step_of:
            _record(sums[step_of[s]], d, glued, f_eval, f2_eval, eps, kind,
                    config.delta)
    return sums, acc0, f2_0
