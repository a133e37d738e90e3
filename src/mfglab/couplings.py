"""Discrete-time coupled diffusions: synchronous, reflection, interpolated,
and mollified (delta-approximate) couplings.  Any kind takes a shared
control, applied along the first path to both dynamics; a reflection run
with one is the controlled reflection coupling.

Paths are simulated in fixed-size chunks, each with its own counter-derived
RNG stream, and chunk results are reduced in index order, so estimators are
bit-identical for any worker count.  Coalescence mirrors the exact meeting
time by one rule: a pair is glued when a Brownian-bridge test says the
continuous radial path crossed zero inside the step, or when the separation
falls below the per-step noise scale sqrt(8 sigma0^2 dt) (gluing late, never
early, so measured contraction is only weakened).  A glued pair moves as one
path from then on, so the reflected kinds draw noise and compute only for
their unglued pairs: each step of their stream holds the draws of the pairs
still apart.  The synchronous and mollified kinds draw for every path on
every step, so their draw counts per step are fixed.

A step draws, in stream order, the rows z1, z3 and u, then z2 for the
interpolated kind and for the mollified kind under a varying sigma_bar.
Under a constant sigma_bar the mollified kind's z2 and z3 terms move X and
X_hat alike, so it draws their sum as the one normal z3 and has no z2 row.
"""

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .metrics import gap_envelope, girsanov_tv, q_kernel


KINDS = ("synchronous", "reflection", "interpolated", "approx_delta")
_GLUE_KINDS = ("reflection", "interpolated")
_CHUNK_SIZE = 16384       # paths per chunk, each with its own RNG stream
_OVERFLOW_GUARD = 1e7     # |x| beyond which a path run aborts
_DRAW_BLOCK = 1 << 17     # draws per block of noise drawn ahead (1 MB)
_MOMENT_TIMES = 41        # output times of the moment diagnostic


@dataclass(frozen=True)
class CouplingConfig:
    """One coupling run.

    beta, beta_hat and control are called as f(t, x) on an array of
    positions and must act pointwise: entry i of the result depends on x[i]
    alone.  The reflected kinds call them on their unglued pairs only.
    """

    kind: str
    dt: float
    n_paths: int
    t_grid: tuple
    beta: Callable                       # (t, x) -> drift of the first path
    beta_hat: Optional[Callable] = None  # second drift (approx_delta only)
    control: Optional[Callable] = None   # (t, x) -> shared control term
    delta: float = 1e-2                  # mollifier band width (approx_delta)
    master_seed: int = 20240901
    chunk_size: int = _CHUNK_SIZE
    n_threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "approx_delta" and self.beta_hat is None:
            raise ConfigError("approx_delta needs a second drift")

    def eps_for(self, sigma0):
        """The per-step noise scale sqrt(8 sigma0^2 dt): a reflected pair
        closer than this is glued, a synchronous one counts as met."""
        return math.sqrt(8.0 * sigma0 ** 2 * self.dt)


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


def _chunk_ranges(n_paths, chunk_size):
    starts = list(range(0, n_paths, chunk_size))
    return [(s, min(s + chunk_size, n_paths)) for s in starts]


def _map_chunks(work, n_chunks, n_threads):
    """[work(0), ..., work(n_chunks - 1)], on up to n_threads workers.

    The list is in chunk-index order whatever order the chunks finish in,
    so a reduction over it in list order is the same for any worker count.
    """
    if n_threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=min(n_threads, n_chunks)) as pool:
            return list(pool.map(work, range(n_chunks)))
    return [work(i) for i in range(n_chunks)]


def _sum_chunks(results):
    """Elementwise sums of the chunks' result tuples, in chunk-index order."""
    totals = (0.0,) * len(results[0])
    for res in results:
        totals = tuple(t + r for t, r in zip(totals, res))
    return totals


def _fill_step(rng, rows):
    """One step's draws, in stream order: z1, z3, u, then z2 if asked.

    rows has four rows for the interpolated kind and for the mollified kind
    under a varying sigma_bar, three for every other run.
    """
    rng.standard_normal(out=rows[0])
    rng.standard_normal(out=rows[1])
    # the synchronous and mollified kinds draw for every path on every step:
    # fixed draw counts keep their streams aligned across variants (common
    # random numbers for the delta-extrapolation runs)
    rng.random(out=rows[2])
    if len(rows) > 3:
        rng.standard_normal(out=rows[3])


def _draws(rng, n_rows, n_chunk, n_steps, pool):
    """Yield each step's draws as rows (z1, z3, u[, z2]), drawn ahead.

    For the kinds with fixed draw counts per step (synchronous and
    mollified) when they draw ahead.  The pool's one worker fills the rows
    a block of steps at a time, by the calls _fill_step makes inline and in
    the same order, so the stream is unchanged, and it fills the next block
    while the caller uses the current one; the Generator releases the GIL
    while it fills an array.  Errors of a fill reach the caller through
    ``result()``; a fill still in flight when the caller stops early is
    waited for by the pool's shutdown.
    """
    span = max(1, min(n_steps, _DRAW_BLOCK // (n_rows * n_chunk)))
    bufs = [np.empty((span, n_rows, n_chunk)) for _ in range(2)]

    def fill(buf, start):
        rows = buf[:min(span, n_steps - start)]
        for step in rows:
            _fill_step(rng, step)
        return rows

    pending = pool.submit(fill, bufs[0], 0)
    for b, start in enumerate(range(0, n_steps, span)):
        rows = pending.result()
        if start + span < n_steps:
            pending = pool.submit(fill, bufs[(b + 1) % 2], start + span)
        yield from rows


def _simulate_chunk(config, diffusion, init_sampler, chunk_index, n_chunk,
                    f_eval, f2_eval, out_steps, draw_ahead):
    """One chunk of coupled 1D paths; returns per-output-time accumulators.

    The pair is carried as (X, D) with D = X - X_hat, which puts the
    coalescence logic on the scalar separation.  For the mollified coupling
    the band |D| <= delta/2 is exactly noise-free in continuous time, so
    in-band paths advance by their drift alone (no step-size constraint) and
    band entry is detected by a Brownian-bridge barrier test; continuous
    paths cannot tunnel through the band, so sign flips happen only through
    the drift, never through a discrete noise overshoot.

    A glued reflected pair moves as one path from then on, and no estimator
    reads its X, so the reflected kinds carry only their unglued pairs: the
    first n entries of each buffer, in path order, with ``idx`` their path
    indices.  A step draws z1, z3, u (then z2) for those n pairs only, and
    a step that glues pairs compacts them out (its one allocation is the
    index array of the pairs kept); an output step scatters D back to path
    order, 0 where glued.  The other kinds carry every path.

    Each step works in preallocated buffers and keeps the evaluation order
    of the plain expressions it implements (noted beside each block), so
    the estimators do not depend on how the step is laid out.  Every kind
    draws each step inline with _fill_step into the first n columns of one
    row buffer, except with draw_ahead (synchronous and mollified kinds
    only), where _draws has a one-worker pool draw the next block of noise
    into its own two blocks meanwhile, and the chunk allocates no row
    buffer; both make the same calls in the same order.  The rows are
    z1, z3, u, and z2 after them for the interpolated kind and for the
    mollified kind under a varying sigma_bar; under a constant one the
    mollified kind's z3 carries its z2 term too (2 normals a path-step).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.master_seed, chunk_index)))
    x, xh = init_sampler(n_chunk, rng)
    x_buf = np.asarray(x, dtype=float).copy()
    d_buf = x_buf - np.asarray(xh, dtype=float)
    dt = config.dt
    sqdt = math.sqrt(dt)
    sigma0 = diffusion.sigma0
    eps = config.eps_for(sigma0)
    kind = config.kind
    glue_kind = kind in _GLUE_KINDS
    approx = kind == "approx_delta"
    delta = config.delta
    half_band = 0.5 * delta
    glued = np.zeros(n_chunk, dtype=bool)      # reflected kinds' records
    in_band = np.zeros(n_chunk, dtype=bool)    # mollified kind only
    if approx:
        in_band = np.abs(d_buf) <= half_band

    n_out = len(out_steps)
    sums = np.zeros((n_out, 6))  # f, f^2, neq, f2, f2^2, r
    f0 = f_eval(np.abs(d_buf))
    acc0 = np.array([np.sum(f0), np.sum(f0 ** 2)])
    f2_0 = np.zeros(2)
    if f2_eval is not None:
        v = f2_eval(np.abs(d_buf))
        f2_0 = np.array([np.sum(v), np.sum(v ** 2)])

    step_of = {s: j for j, s in enumerate(out_steps)}
    n_steps = max(out_steps)
    if 0 in step_of:
        _record(sums[step_of[0]], d_buf, glued, f_eval, f2_eval, eps, kind,
                delta)

    if kind == "synchronous":
        v_refl = 0.0
        c1, c2 = sigma0, None                 # nd has no z1 term
    elif kind == "interpolated":
        amp = sigma0 / math.sqrt(2.0)
        v_refl = 2.0 * sigma0 ** 2
        c1, c2 = amp, 2.0 * amp
    else:  # reflected and mollified kinds
        v_refl = 4.0 * sigma0 ** 2
        c1, c2 = sigma0, 2.0 * sigma0
    bridge_var = 0.5 * v_refl * dt
    # a constant sigma_bar is one scalar, and then dsb = sb_x - sb_xh is 0
    sb_const = (np.ravel(diffusion.sigma_bar_scalar(x_buf[:1]))[0]
                if diffusion.is_constant else None)

    # work rows r_old, xh, drift_d, nx, nd, tmp, then bxa, bxha (with a
    # control) and dsb (with a varying sigma_bar)
    work = [np.empty(n_chunk) if need else None for need in
            (True,) * 6 + (config.control is not None,) * 2
            + (sb_const is None,)]
    bits = np.empty((3, n_chunk), dtype=bool)
    has_nd = c2 is not None or sb_const is None     # else nd is 0
    merged = approx and sb_const is not None   # z3 carries z2's term
    n_rows = 4 if kind == "interpolated" or approx and not merged else 3
    rows = None if draw_ahead else np.empty((n_rows, n_chunk))
    if glue_kind:
        idx, idx_spare = np.arange(n_chunk), np.empty(n_chunk, dtype=np.intp)
    if approx:
        rc, sc, d_band, r_free, sign = np.empty((5, n_chunk))
        out_band = np.empty(n_chunk, dtype=bool)
    n, n_view = n_chunk, -1     # pairs carried; length of the views below
    # a fill in flight when the loop stops early is waited for on exit
    with (ThreadPoolExecutor(max_workers=1) if draw_ahead
          else contextlib.nullcontext()) as pool:
        noise = None if pool is None else _draws(rng, n_rows, n_chunk,
                                                 n_steps, pool)

        for k in range(n_steps):
            if n == 0:
                break
            if n != n_view:
                x, d = x_buf[:n], d_buf[:n]
                r_old, xh, drift_d, nx, nd, tmp, bxa, bxha, dsb = (
                    None if w is None else w[:n] for w in work)
                flag, maybe, below = bits[:, :n]
                step = None if rows is None else rows[:, :n]
                n_view = n
            t = k * dt
            np.abs(d, out=r_old)
            np.subtract(x, d, out=xh)

            bx = config.beta(t, x)
            bxh = config.beta(t, xh) if not approx else config.beta_hat(t, xh)
            if config.control is not None:
                a = config.control(t, x)
                bx = np.add(bx, a, out=bxa)
                bxh = np.add(bxh, a, out=bxha)
            np.subtract(bx, bxh, out=drift_d)

            if noise is None:
                _fill_step(rng, step)
            else:
                step = next(noise)
            z1, z3, u_step = step[0], step[1], step[2]
            if sb_const is None:
                sb_x = diffusion.sigma_bar_scalar(x)
                np.subtract(sb_x, diffusion.sigma_bar_scalar(xh), out=dsb)
            else:
                sb_x = sb_const

            # path noise nx = c1 z1 [+ c1 z2] + sb_x z3 and separation noise
            # nd = c2 z1 [+ dsb z3]; the mollified kind scales the z1 and z2
            # terms: nx = (c1 rc) z1 + (c1 sc) z2 + ..., nd = (c2 rc) z1 + ...;
            # under a constant sigma_bar (merged), where z2 and z3 move X and
            # X_hat alike, it draws their sum as one normal: nx = (c1 rc) z1
            # + sqrt(max(1 - rc rc, 0) (c1 c1) + sb sb) z3
            if approx:
                # reflection weight rc = (w w) (3 - 2 w), the C^1 ramp of
                # w = clip((r_old / delta - 0.5) / 0.5, 0, 1); it is exactly
                # 0 in the band (r_old <= delta / 2), so needs no mask there
                np.divide(r_old, delta, out=rc)
                np.subtract(rc, 0.5, out=rc)
                np.multiply(rc, 2.0, out=rc)   # == / 0.5: both exact
                np.clip(rc, 0.0, 1.0, out=rc)
                np.multiply(rc, 2.0, out=tmp)
                np.subtract(3.0, tmp, out=tmp)
                np.multiply(rc, rc, out=rc)
                np.multiply(rc, tmp, out=rc)
                # sc = max(1 - rc rc, 0)
                np.multiply(rc, rc, out=sc)
                np.subtract(1.0, sc, out=sc)
                np.maximum(sc, 0.0, out=sc)
                np.multiply(rc, c1, out=nx)
                np.multiply(nx, z1, out=nx)
                if merged:
                    np.multiply(sc, c1 * c1, out=sc)
                    np.add(sc, sb_const * sb_const, out=sc)
                    np.sqrt(sc, out=sc)
                    np.multiply(sc, z3, out=sc)
                else:
                    np.sqrt(sc, out=sc)
                    np.multiply(sc, c1, out=sc)
                    np.multiply(sc, step[3], out=sc)
                np.add(nx, sc, out=nx)
                np.multiply(rc, c2, out=nd)
                np.multiply(nd, z1, out=nd)
            else:
                np.multiply(z1, c1, out=nx)
                if kind == "interpolated":
                    np.multiply(step[3], c1, out=tmp)
                    np.add(nx, tmp, out=nx)
                if c2 is not None:
                    np.multiply(z1, c2, out=nd)
            if not merged:
                np.multiply(sb_x, z3, out=tmp)
                np.add(nx, tmp, out=nx)
            if sb_const is None and c2 is None:
                np.multiply(dsb, z3, out=nd)
            elif sb_const is None:
                np.multiply(dsb, z3, out=tmp)
                np.add(nd, tmp, out=nd)

            # x <- (x + bx dt) + nx sqdt
            np.multiply(bx, dt, out=tmp)
            np.add(x, tmp, out=x)
            np.multiply(nx, sqdt, out=tmp)
            np.add(x, tmp, out=x)

            # d_free = (d + drift_d dt) + nd sqdt
            np.multiply(drift_d, dt, out=tmp)
            if approx:
                # d_band = d + drift_d dt is the noise-free band advance;
                # sign = (d >= 0) 2 - 1
                np.add(d, tmp, out=d_band)
                np.greater_equal(d, 0.0, out=flag)
                np.multiply(flag, 2.0, out=sign)
                np.subtract(sign, 1.0, out=sign)
                np.multiply(nd, sqdt, out=tmp)
                np.add(d_band, tmp, out=d)
                np.multiply(sign, d, out=r_free)   # signed: <0 means crossed
                # entered = ~in_band & (r_free <= half_band)
                np.logical_not(in_band, out=out_band)
                np.less_equal(r_free, half_band, out=flag)
                np.logical_and(flag, out_band, out=flag)
                # bridge test against the band edge for paths outside the band
                # that did not enter: maybe = ~in_band & ~entered & (arg < 40)
                # with arg = (r_old - half_band) max(r_free - half_band, 0)
                # / bridge_var, and bridged = maybe & (u < exp(-arg))
                np.subtract(r_free, half_band, out=nx)
                np.maximum(nx, 0.0, out=nx)
                np.subtract(r_old, half_band, out=tmp)
                np.multiply(tmp, nx, out=tmp)
                np.divide(tmp, -bridge_var, out=tmp)       # -arg
                np.greater(tmp, -40.0, out=maybe)
                np.greater(maybe, flag, out=maybe)
                np.logical_and(maybe, out_band, out=maybe)
                _bridge(tmp, u_step, maybe, below)
                # d = d_band in the band; sign clip(r_free, 0, half_band) where
                # it entered; sign (half_band / 2) where bridged; else d_free
                np.copyto(d, np.where(in_band, d_band, d))
                np.clip(r_free, 0.0, half_band, out=r_free)
                np.multiply(sign, r_free, out=d, where=flag)
                np.multiply(sign, 0.5 * half_band, out=d, where=maybe)
                np.abs(d, out=tmp)
                np.less_equal(tmp, half_band, out=in_band)
            else:
                np.add(d, tmp, out=d)
                if has_nd:
                    np.multiply(nd, sqdt, out=tmp)
                    np.add(d, tmp, out=d)
                if glue_kind:
                    # glued this step (flag): r_new < eps, or the bridge says
                    # the path crossed 0 (arg = r_old r_new / bridge_var < 40
                    # and u < exp(-arg))
                    np.abs(d, out=nx)
                    np.less(nx, eps, out=flag)
                    np.multiply(r_old, nx, out=tmp)
                    np.divide(tmp, -bridge_var, out=tmp)   # -arg
                    np.greater(tmp, -40.0, out=maybe)
                    _bridge(tmp, u_step, maybe, below)
                    np.logical_or(flag, maybe, out=flag)

            if max(x.max(), -x.min()) > _OVERFLOW_GUARD:
                raise NumericalError(
                    "path overflow: reduce dt or check the drift")
            if glue_kind and flag.any():
                # keep the unglued pairs, in path order: x and d are taken
                # into the rows of r_old and xh, which are free by now, and
                # swap places with them
                keep = np.flatnonzero(np.logical_not(flag, out=maybe))
                n = len(keep)
                np.take(x, keep, out=work[0][:n], mode="clip")
                np.take(d, keep, out=work[1][:n], mode="clip")
                np.take(idx[:n_view], keep, out=idx_spare[:n], mode="clip")
                x_buf, d_buf, work[0], work[1] = work[0], work[1], x_buf, d_buf
                idx, idx_spare = idx_spare, idx

            s = k + 1
            if s in step_of:
                row = sums[step_of[s]]
                if glue_kind:
                    d_out = work[0]       # free until the next step
                    d_out.fill(0.0)
                    np.put(d_out, idx[:n], d_buf[:n])
                    glued.fill(True)
                    np.put(glued, idx[:n], False)
                    _record(row, d_out, glued, f_eval, f2_eval, eps, kind,
                            delta)
                else:
                    _record(row, d, glued, f_eval, f2_eval, eps, kind, delta)
    return sums, acc0, f2_0


def _bridge(neg_arg, u_step, maybe, below):
    """maybe &= u < exp(-arg), given -arg; overwrites neg_arg.

    Where maybe holds, 0 <= arg < 40, so clipping -arg to [-40, 0] changes
    nothing there.  Where it does not, the clip keeps exp from overflowing,
    and from taking numpy's slow underflow path (about 20 times the cost of
    the plain one for arguments far below -700).
    """
    np.clip(neg_arg, -40.0, 0.0, out=neg_arg)
    np.exp(neg_arg, out=neg_arg)
    np.logical_and(maybe, np.less(u_step, neg_arg, out=below), out=maybe)


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
    f_eval = (lambda r: tm.f(r)) if tm is not None else (lambda r: r)
    f2_eval = (lambda r: tm2.f2(r)) if tm2 is not None else None
    dt = config.dt
    out_steps = sorted({int(round(t / dt)) for t in config.t_grid})
    for t in config.t_grid:
        if t < 0.0:
            raise ConfigError(f"output time {t:g} precedes the start t = 0")
        if abs(round(t / dt) * dt - t) > 1e-9:
            raise ConfigError(f"output time {t:g} not on the dt grid")
    if len(out_steps) != len(config.t_grid):
        raise ConfigError(f"two output times of {tuple(config.t_grid)} "
                          f"fall on the same step of dt={dt:g}")

    ranges = _chunk_ranges(config.n_paths, config.chunk_size)
    # a spare worker per chunk draws its noise ahead; at most n_threads
    # threads (chunk workers plus drawers) run at once.  A reflected kind
    # draws inline: how many pairs a step draws for is known only once the
    # step before it has glued its pairs
    draw_ahead = (config.kind not in _GLUE_KINDS
                  and config.n_threads >= 2 * len(ranges))

    def work(i):
        lo, hi = ranges[i]
        return _simulate_chunk(config, diffusion, init_sampler, i, hi - lo,
                               f_eval, f2_eval, out_steps, draw_ahead)

    sums, acc0, f2_0 = _sum_chunks(
        _map_chunks(work, len(ranges), config.n_threads))
    n = config.n_paths
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
        raise ConfigError("drift-gap bounds need the approx_delta coupling")
    run = config
    if t0 is not None:
        if max(config.t_grid) <= t0:
            raise ConfigError("coalescence bound needs t > t0")
        # the bound reads the coupling at t0 off the same run, as one more
        # output time: recording a time leaves the paths unchanged
        t0_out = max(t0, config.dt)
        step0 = round(t0_out / config.dt)
        extra = all(round(t / config.dt) != step0 for t in config.t_grid)
        if extra:
            run = replace(config, t_grid=tuple(config.t_grid) + (t0_out,))
    stats = simulate_coupling(run, diffusion, init_sampler, tm=tm)
    if t0 is not None:
        at_t0 = np.round(stats.t_grid / config.dt) == step0
        mean_f_t0 = float(stats.mean_f[at_t0][0])
        if extra:   # report the caller's output times only
            stats = replace(stats, **{k: v[~at_t0] for k, v in
                                      vars(stats).items()
                                      if isinstance(v, np.ndarray)})
    gap = delta_beta_sup if callable(delta_beta_sup) \
        else (lambda s: delta_beta_sup)
    t_arr = stats.t_grid
    bound_i = np.array([gap_envelope(tm.lam, stats.mean_f0, gap, t)
                        for t in t_arr])
    report = {"stats": stats, "bound_with_offset": bound_i,
              "pass_contraction": bool(np.all(
                  stats.mean_f <= bound_i + 3.0 * stats.se_f
                  + 10.0 * config.delta))}

    if t0 is not None:
        t_end = float(t_arr[-1])
        bound_tv = q_kernel(tm.C, tm.lam, tm.sigma_check, t_end - t0) \
            * mean_f_t0 + girsanov_tv(gap, t0, t_end)
        report["bound_tv"] = bound_tv
        report["tv_true"] = tv_true
        if tv_true is not None:
            report["pass_tv"] = bool(tv_true <= bound_tv + 1e-12)
    return report


# ---------------------------------------------------------------------------
# moment plateau diagnostic

def moment_diagnostic(beta, diffusion, init_sampler, p, T, dt=1e-3,
                      n_paths=20_000, master_seed=7, n_threads=1):
    """sup_t of the p-th absolute moment plus a no-growth plateau test.

    Growth over the last half of the horizon is tested with a paired
    per-path statistic |X_T|^p - |X_{T/2}|^p (paths are independent, unlike
    the time series of the moments themselves); a significantly positive
    mean at the one-sided 95% level fails the plateau.  Chunks run on up to
    n_threads workers, as in simulate_coupling.
    """
    n_steps = int(round(T / dt))
    if n_steps < 2:     # the paired statistic reads the step n_steps // 2
        raise ConfigError("moment plateau needs at least two steps")
    half_step = n_steps // 2
    out_steps = np.unique(np.concatenate(
        [np.linspace(0, n_steps, _MOMENT_TIMES).astype(int),
         [half_step, n_steps]]))
    step_of = {int(s): j for j, s in enumerate(out_steps)}
    ranges = _chunk_ranges(n_paths, _CHUNK_SIZE)

    def work(ci):
        lo, hi = ranges[ci]
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, ci)))
        x = np.asarray(init_sampler(hi - lo, rng), dtype=float).copy()
        totals = np.zeros(len(out_steps))
        half_vals = None
        if 0 in step_of:
            totals[step_of[0]] += np.sum(np.abs(x) ** p)
        if diffusion.is_constant:   # one value, broadcast over the paths
            noise = np.sqrt(diffusion.sigma0 ** 2
                            + diffusion.sigma_bar_scalar(x[:1]) ** 2)
        for k in range(n_steps):
            t = k * dt
            z = rng.standard_normal(hi - lo)
            if not diffusion.is_constant:
                sb = diffusion.sigma_bar_scalar(x)
                noise = np.sqrt(diffusion.sigma0 ** 2 + sb ** 2)
            x = x + beta(t, x) * dt + noise * z * np.sqrt(dt)
            if (k + 1) in step_of:
                totals[step_of[k + 1]] += np.sum(np.abs(x) ** p)
            if (k + 1) == half_step:
                half_vals = np.abs(x) ** p
        d = np.abs(x) ** p - half_vals
        return totals, float(np.sum(d)), float(np.sum(d * d))

    totals, d_sum, d_sq = _sum_chunks(_map_chunks(work, len(ranges),
                                                  n_threads))
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
