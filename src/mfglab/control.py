"""Finite-horizon stochastic control in 1D: backward HJB, forward
Fokker-Planck, and the certified bound ledgers attached to their solutions.

Schemes: the HJB solver is semi-implicit (implicit diffusion through a
tridiagonal solve, explicit Hamiltonian) with second-order gradients that
switch to one-sided differences when the cell Peclet number exceeds one; the
Fokker-Planck solver is a conservative exponential-fitting finite-volume
scheme with no-flux boundaries, theta time stepping and an implicit startup.

Each theta step of the density is one tridiagonal solve: with h = dt,
(I - th h A)^-1 (I + (1 - th) h A) = th^-1 (I - th h A)^-1 - ((1 - th)/th) I,
so m_{k+1} = (y - (1 - th) m_k) / th where (I - th h A) y = m_k.  Both
solvers assemble what does not depend on the iterate once per block of
steps: the density's implicit bands, and the value's interaction source.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack

from .distances import f_norm, lip_norm, tv_grid
from .errors import ConfigError, NumericalError
from .metrics import (TwistedMetric, gap_envelope, girsanov_tv, q_integral,
                      q_kernel, q_weighted_integral, within_bound)
from .model import (DiffusionSpec, Grid1D, RunningCostSpec, Scenario, policy,
                    shifted_metric)
from .transport import wf_grid


# ---------------------------------------------------------------------------
# tridiagonal kernel (LAPACK)

def _check_info(info, routine):
    if info != 0:
        raise NumericalError(f"tridiagonal {routine} failed (LAPACK info "
                             f"{info}: singular or invalid system)")


def tridiag_solve(sub, diag, sup, rhs):
    """Solve one tridiagonal system with LAPACK ``dgtsv``.

    The four arrays are LAPACK workspace: contiguous float64 inputs are
    overwritten, and the solution is returned in the storage of rhs.
    """
    *_, x, info = lapack.dgtsv(sub, diag, sup, rhs, True, True, True, True)
    _check_info(info, "dgtsv")
    return x


class TridiagLU:
    """LU of a fixed tridiagonal matrix: ``dgttrf`` once, ``dgttrs`` per
    right-hand side (which is overwritten by the solution)."""

    def __init__(self, sub, diag, sup):
        *self._factors, info = lapack.dgttrf(sub, diag, sup)
        _check_info(info, "dgttrf")

    def solve(self, rhs):
        x, info = lapack.dgttrs(*self._factors, rhs, overwrite_b=True)
        _check_info(info, "dgttrs")
        return x


def gradient_second_order(phi, dx):
    """Central differences with second-order one-sided boundary stencils."""
    g = np.empty_like(phi)
    g[1:-1] = (phi[2:] - phi[:-2]) / (2.0 * dx)
    g[0] = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * dx)
    g[-1] = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * dx)
    return g


def upwind_gradient(phi, dx, direction):
    """Second-order one-sided differences against the transport direction."""
    g = gradient_second_order(phi, dx)
    fwd = np.empty_like(phi)
    fwd[:-2] = (-3.0 * phi[:-2] + 4.0 * phi[1:-1] - phi[2:]) / (2.0 * dx)
    fwd[-2:] = g[-2:]
    bwd = np.empty_like(phi)
    bwd[2:] = (3.0 * phi[2:] - 4.0 * phi[1:-1] + phi[:-2]) / (2.0 * dx)
    bwd[:2] = g[:2]
    return np.where(direction > 0.0, fwd, np.where(direction < 0.0, bwd, g))


def gradient_bands(n, dx, direction=None):
    """Entry [k][i] is the weight of node i + k in row i of
    gradient_second_order (direction None) or upwind_gradient.  Rows reach
    two nodes to each side, so a probe with ones at every fifth node meets
    each row in one node: five probes read off all entries.
    """
    rows = np.arange(n)
    bands = np.zeros((5, n))
    for j in range(5):
        probe = (rows % 5 == j).astype(float)
        col = gradient_second_order(probe, dx) if direction is None \
            else upwind_gradient(probe, dx, direction)
        bands[(j - rows + 2) % 5, rows] = col     # the probe's node in row i
    return {k: bands[k + 2] for k in (-2, -1, 0, 1, 2)}


def diffusion_bands(sig2, dx, scale=1.0):
    """-(sigma^2/2) D2 of the value solver, times scale, as diagonals
    (offset -> array); the two boundary rows carry no diffusion."""
    half = np.zeros_like(sig2)
    half[1:-1] = 0.5 * sig2[1:-1] * scale / dx ** 2
    return {-1: -half, 0: 2.0 * half, 1: -half}


def apply_bands(bands, v):
    """sum_k bands[k][i] v[i + k]: the operator given by its diagonals."""
    out = np.zeros_like(v)
    for k, c in bands.items():
        lo, hi = max(0, -k), len(v) - max(0, k)
        out[lo:hi] += c[lo:hi] * v[lo + k:hi + k]
    return out


def value_stencil(phi, dx, xs, b, cost, sig2_min):
    """The value solver's (grad, w = policy(grad), a = b + w) at phi, plus
    max |a| of the central stencil and the switch's direction: the central
    a when the cell Peclet number exceeds one (grad is then upwind), else
    None.
    """
    g = gradient_second_order(phi, dx)
    w = policy(cost, xs, g)
    a = b + w
    a_central_max = np.abs(a).max()
    direction = None
    if a_central_max * dx > sig2_min:
        direction = a
        g = upwind_gradient(phi, dx, direction)
        w = policy(cost, xs, g)
        a = b + w
    return g, w, a, a_central_max, direction


def hessian_interior(phi, dx):
    h = np.empty_like(phi)
    h[1:-1] = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx ** 2
    h[0], h[-1] = h[1], h[-2]
    return h


# ---------------------------------------------------------------------------
# solution containers

def _rows_at(ts, rows, t):
    """Rows stored at the times ts, linearly interpolated in time and equal
    to the first or last row outside them; an array of times gives one row
    per time."""
    tt = np.ravel(np.asarray(t, dtype=float))
    i = np.clip(np.searchsorted(ts, tt), 1, len(ts) - 1)
    # with one stored time the weights are 0/0, but every row is then an
    # end row, set below
    with np.errstate(all="ignore"):
        w = ((tt - ts[i - 1]) / (ts[i] - ts[i - 1]))[:, None]
        out = (1.0 - w) * rows[i - 1] + w * rows[i]
    out[tt <= ts[0]] = rows[0]
    out[tt >= ts[-1]] = rows[-1]
    return out if np.ndim(t) else out[0]


@dataclass
class ValueFunction:
    times: np.ndarray
    xs: np.ndarray
    phi: np.ndarray          # (n_times, n_x)
    grad: np.ndarray         # (n_times, n_x)

    def slice_at(self, t):
        i = int(np.clip(np.searchsorted(self.times, t), 0, len(self.times) - 1))
        if i > 0 and abs(self.times[i - 1] - t) < abs(self.times[i] - t):
            i -= 1
        return i

    def grad_at(self, t):
        """Time-interpolated gradient field, held constant outside the
        stored times; an array of times gives one row per time."""
        return _rows_at(self.times, self.grad, t)

    def hess(self, i):
        dx = self.xs[1] - self.xs[0]
        return hessian_interior(self.phi[i], dx)


@dataclass
class MeasureFlow:
    times: np.ndarray
    xs: np.ndarray
    densities: np.ndarray    # (n_times, n_x)

    def at(self, t):
        """Density linearly interpolated in time, equal to the first or last
        slice outside the stored times; an array of times gives one row per
        time, each equal to the row at that scalar time."""
        return _rows_at(self.times, self.densities, t)

    def mean(self):
        return np.trapezoid(self.xs[None, :] * self.densities, self.xs, axis=1)

    def variance(self):
        m = self.mean()
        return np.trapezoid((self.xs[None, :] - m[:, None]) ** 2
                            * self.densities, self.xs, axis=1)

    def moment(self):
        """First absolute moment of each slice: one matrix-vector product
        with |x| times the trapezoid weights, so no flow-sized temporary."""
        dx = np.diff(self.xs)
        w = np.zeros_like(self.xs)
        w[:-1] += 0.5 * dx
        w[1:] += 0.5 * dx
        return self.densities @ (np.abs(self.xs) * w)


_MAX_SLICES = 6001      # stored time slices of a solve, at most
_LEDGER_TIMES = 9       # ledger times along a value solve


def _store_plan(n_steps, max_slices=_MAX_SLICES):
    stride = max(1, int(np.ceil(n_steps / (max_slices - 1))))
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.array(idx, dtype=int)


# Steps whose coefficients (the density's bands, the value's source) are
# assembled together.  The block's arrays are the solvers' only temporaries
# beyond one iterate, so this bounds their working set independently of the
# horizon.
_BLOCK = 64


# ---------------------------------------------------------------------------
# backward HJB

def solve_hjb(grid: Grid1D, T, diffusion: DiffusionSpec, drift_b: Callable,
              cost: RunningCostSpec, terminal_values, source=None,
              max_slices=_MAX_SLICES) -> ValueFunction:
    """Backward semi-implicit solve of the value-function PDE.

    source(t, xs) is the frozen interaction term added to the running cost.
    It is called once per block of _BLOCK steps with t a column of step
    times k dt, shape (B, 1), for k = n_steps, ..., 1 in the order the steps
    take them, and must return an array that broadcasts to (B, len(xs)); a
    source that does not depend on time may return shape (len(xs),).  The
    terminal slice equals terminal_values; boundary rows carry no diffusion
    (linear extrapolation of the value).
    """
    xs = grid.xs
    dx = grid.dx
    dt = grid.dt
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise NumericalError(f"horizon {T:g} is not a multiple of dt={dt:g}")
    sig2 = diffusion.sigma_at(xs) ** 2
    b = np.asarray(drift_b(xs), dtype=float)

    lap = diffusion_bands(sig2, dx, dt)
    solver = TridiagLU(lap[-1][1:], 1.0 + lap[0], lap[1][:-1])
    sig2_min = np.min(sig2)

    store = _store_plan(n_steps, max_slices)
    store_set = {int(k): j for j, k in enumerate(store)}
    phi_out = np.empty((len(store), len(xs)))
    grad_out = np.empty_like(phi_out)

    phi = np.asarray(terminal_values, dtype=float).copy()
    if phi.shape != xs.shape:
        raise NumericalError("terminal slice does not match the grid")
    peclet_lim = dx / dt
    for k in range(n_steps, -1, -1):
        t = k * dt
        g, w, a, a_max, _ = value_stencil(phi, dx, xs, b, cost, sig2_min)
        if a_max > peclet_lim:
            raise NumericalError(f"explicit advection violates the CFL "
                                 f"guard at t={t:g}; reduce dt or enlarge "
                                 f"the box")
        if k in store_set:
            j = store_set[k]
            phi_out[j] = phi
            grad_out[j] = g
        if k == 0:
            break
        ham = cost.L(xs, w) + a * g
        if source is not None:
            r = (n_steps - k) % _BLOCK
            if r == 0:
                ks = np.arange(k, max(k - _BLOCK, 0), -1)
                src = np.broadcast_to(source((ks * dt)[:, None], xs),
                                      (len(ks), len(xs)))
            ham += src[r]
        rhs = phi + dt * ham
        phi = solver.solve(rhs)
        phi_max = np.abs(phi).max()       # NaN or inf if any entry is
        if not np.isfinite(phi_max):
            raise NumericalError(f"value function blew up at t={t - dt:g}")
        if phi_max > 1e12:
            raise NumericalError(f"value function overflow guard tripped "
                                 f"at t={t - dt:g}")

    return ValueFunction(times=store * dt, xs=xs, phi=phi_out, grad=grad_out)


# ---------------------------------------------------------------------------
# forward Fokker-Planck (conservative exponential fitting)

_RANNACHER_STEPS = 2    # fully implicit start-up steps of the density solve
_MASS_TOL = 1e-6        # mass drift that aborts a density solve


def _bernoulli(w):
    """B(w) = w / (e^w - 1), with B(0) = 1; expm1 keeps it accurate near 0."""
    with np.errstate(all="ignore"):      # w = 0 is set below; B(+inf) = 0
        out = w / np.expm1(w)
    zero = w == 0.0
    if zero.any():
        out[zero] = 1.0
    return out


def _face_diffusion(grid: Grid1D, diffusion: DiffusionSpec):
    """Cell faces x_mid, the diffusion D = sigma^2/2 there, and D' there."""
    xs = grid.xs
    D_nodes = 0.5 * diffusion.sigma_at(xs) ** 2
    return (0.5 * (xs[1:] + xs[:-1]), 0.5 * (D_nodes[1:] + D_nodes[:-1]),
            (D_nodes[1:] - D_nodes[:-1]) / grid.dx)


def _cc_matrix(beta_mid, D_mid, dx):
    """Tridiagonal generator m' = A m of the no-flux finite-volume scheme.

    beta_mid holds face drifts along its last axis; leading axes (steps of
    a time block) carry through to the returned (sub, diag, sup).
    """
    w = beta_mid * dx / D_mid
    c = D_mid / dx ** 2
    # flux through face i+1/2: J = dx (sub m_i - sup m_{i+1}), with
    # sub = c B(-w) = c (B(w) + w) and sup = c B(w) >= 0
    sup = c * _bernoulli(w)
    sub = sup + c * w
    diag = np.zeros(beta_mid.shape[:-1] + (beta_mid.shape[-1] + 1,))
    # d m_i / dt = (J_{i-1/2} - J_{i+1/2}) / dx with J_{-1/2} = J_{n-1/2} = 0
    diag[..., :-1] -= sub
    diag[..., 1:] -= sup
    return sub, diag, sup


def solve_fokker_planck(grid: Grid1D, T, diffusion: DiffusionSpec,
                        beta: Callable, mu0_density,
                        theta=0.5) -> MeasureFlow:
    """Forward conservative solve of the marginal-flow PDE.

    beta(t, xs) is the full drift of the controlled state at the cell
    faces xs.  It is called once per block of _BLOCK steps with t a column
    of step midpoint times, shape (B, 1), and must return an array that
    broadcasts to (B, len(xs)); a drift that does not depend on time may
    return shape (len(xs),), and its generator is then assembled once per
    block.  Each theta step is one tridiagonal solve: (I - th dt A) y = m_k,
    then m_{k+1} = (y - (1 - th) m_k) / th, which is
    (I - th dt A)^-1 (I + (1 - th) dt A) m_k since both factors are
    polynomials in A; the first _RANNACHER_STEPS steps take th = 1, so
    m_{k+1} = y.  Mass is conserved by construction up to solver roundoff;
    a drift beyond _MASS_TOL aborts the run.
    """
    xs = grid.xs
    dx = grid.dx
    dt = grid.dt
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(1.0, T):
        raise NumericalError(f"horizon {T:g} is not a multiple of dt={dt:g}")
    x_mid, D_mid, Dp_mid = _face_diffusion(grid, diffusion)

    m = np.asarray(mu0_density, dtype=float).copy()
    m = np.maximum(m, 0.0)
    mass0 = float(np.sum(m) * dx)
    m /= mass0

    store = _store_plan(n_steps)
    store_set = {int(k): j for j, k in enumerate(store)}
    out = np.empty((len(store), len(xs)))
    if 0 in store_set:
        out[store_set[0]] = m

    for k0 in range(0, n_steps, _BLOCK):
        ks = np.arange(k0, min(k0 + _BLOCK, n_steps))
        t_mid = ((ks + 0.5) * dt)[:, None]
        beta_mid = np.asarray(beta(t_mid, x_mid), dtype=float) - Dp_mid
        sub, diag, sup = _cc_matrix(beta_mid, D_mid, dx)
        # theta stepping, fully implicit for the first _RANNACHER_STEPS
        # steps; the bands of I - th dt A are the solver's workspace
        th = np.where(ks < _RANNACHER_STEPS, 1.0, theta)
        im = (th * dt)[:, None]
        implicit = zip(-im * sub, 1.0 - im * diag, -im * sup)
        for k, th_k, im_k in zip(ks.tolist(), th.tolist(), implicit):
            y = tridiag_solve(*im_k, m.copy())
            if th_k != 1.0:
                m *= 1.0 - th_k
                y -= m
                y /= th_k
            m = y
            total = m.sum()
            if not np.isfinite(total):        # NaN or inf if any entry is
                raise NumericalError(f"density blew up at t={(k + 1) * dt:g}")
            m_min = m.min()
            if m_min < -1e-9:
                raise NumericalError(f"density negativity {m_min:.2e} at "
                                     f"t={(k + 1) * dt:g}")
            if m_min < 0.0:
                np.maximum(m, 0.0, out=m)
                total = m.sum()
            mass = float(total * dx)
            if abs(mass - 1.0) > _MASS_TOL:
                raise NumericalError(f"mass drift {mass - 1.0:.2e} exceeds "
                                     f"{_MASS_TOL:g}")
            if (k + 1) in store_set:
                out[store_set[k + 1]] = m
    return MeasureFlow(times=store * dt, xs=xs, densities=out)


def stationary_density_cc(grid: Grid1D, diffusion: DiffusionSpec, beta_fn):
    """Zero-flux stationary profile of the finite-volume scheme.

    Discrete counterpart of m ~ sigma^{-2} exp(2 integral beta / sigma^2):
    the cumulative product of the per-face equilibrium ratios, normalized.
    """
    dx = grid.dx
    x_mid, D_mid, Dp_mid = _face_diffusion(grid, diffusion)
    a_mid = np.asarray(beta_fn(x_mid), dtype=float) - Dp_mid
    logw = np.concatenate([[0.0], np.cumsum(a_mid * dx / D_mid)])
    logw -= np.max(logw)
    m = np.exp(logw)
    return m / (np.sum(m) * dx)


def optimal_flow(value: ValueFunction, scenario: Scenario,
                 mu0_density) -> MeasureFlow:
    """Forward flow of the state controlled by the solved value function."""
    b = scenario.drift.b
    cost = scenario.running_cost
    xs = value.xs
    x_lo, dxs = xs[:-1], xs[1:] - xs[:-1]

    def beta(t, x):
        # gradient slices in time on the nodes (one row per step of the
        # block), then onto the faces x with np.interp's formula; the faces
        # are the cell midpoints, so face i lies between nodes i and i + 1
        g_nodes = value.grad_at(t)
        g_lo = g_nodes[:, :-1]
        g = (g_nodes[:, 1:] - g_lo) / dxs * (x - x_lo)
        g += g_lo
        return np.asarray(b(x), dtype=float) + policy(cost, x, g)

    T = float(value.times[-1])
    return solve_fokker_planck(scenario.grid, T, scenario.diffusion, beta,
                               mu0_density)


def invariant_density(scenario: Scenario, grad):
    """Stationary density of the state driven by the feedback of grad."""
    xs = scenario.grid.xs

    def beta_inf(x):
        gg = np.interp(x, xs, grad)
        return scenario.drift.b(x) + policy(scenario.running_cost, x, gg)

    return stationary_density_cc(scenario.grid, scenario.diffusion, beta_inf)


# ---------------------------------------------------------------------------
# bound ledgers

@dataclass
class BoundLedger:
    kind: str
    times: np.ndarray
    measured: np.ndarray
    theoretical: np.ndarray
    window: np.ndarray            # bool: where the bound is asserted
    extras: dict = field(default_factory=dict)

    @property
    def passes(self):
        ok = within_bound(self.measured, self.theoretical)
        return bool(np.all(ok[self.window])) if np.any(self.window) else True

    def rows(self):
        return [{"t": float(t), "measured": float(m), "theoretical": float(b),
                 "in_window": bool(w),
                 "pass": bool(within_bound(m, b) or not w)}
                for t, m, b, w in zip(self.times, self.measured,
                                      self.theoretical, self.window)]

    def as_dict(self):
        return {"kind": self.kind, "passes": self.passes, "rows": self.rows(),
                **{k: v for k, v in self.extras.items()
                   if isinstance(v, (int, float, str, bool))}}


def _ledger_times(value: ValueFunction):
    idx = np.unique(np.linspace(0, len(value.times) - 1,
                                _LEDGER_TIMES).astype(int))
    return value.times[idx], idx


def value_fnorm(value: ValueFunction, i, f):
    """Measured twisted seminorm of a value slice.

    The stride-pair estimator misses suprema attained at the box edge, so it
    is combined with the gradient bound (f'(0) = 1 makes sup|grad| a valid
    lower estimate of the same seminorm).
    """
    pair = f_norm(value.xs, value.phi[i], f)
    return max(pair, float(np.max(np.abs(value.grad[i]))))


def theoretical_value_fnorm(t, T, tm_b: TwistedMetric, C_x_ell, g_fnorm,
                            g_sup=None, C_osc_ell=None):
    """Certified bound for the twisted seminorm of the value at time t.

    Combines the Lipschitz-cost route (exponential), the bounded-terminal
    route (kernel factor, only meaningful for T - t past the kernel knee)
    and the oscillation-cost route when those constants exist; the smallest
    applicable bound is returned.
    """
    lam, C = tm_b.lam, tm_b.C
    tau = T - t
    candidates = []
    if C_x_ell is not None and g_fnorm is not None:
        candidates.append(C_x_ell / (C * lam) * (1.0 - np.exp(-lam * tau))
                          + g_fnorm * np.exp(-lam * tau))
    if C_osc_ell is not None and g_fnorm is not None:
        candidates.append(2.0 * C_osc_ell
                          * q_integral(C, lam, tm_b.sigma_check, tau)
                          + g_fnorm * np.exp(-lam * tau))
    if g_sup is not None and tau >= 1.0 / (2.0 * lam) and C_x_ell is not None:
        candidates.append(C_x_ell / (C * lam) * (1.0 - np.exp(-lam * tau))
                          + g_sup * q_kernel(C, lam, tm_b.sigma_check, tau))
    return min(candidates) if candidates else np.inf


def lipschitz_ledger(value: ValueFunction, scenario: Scenario,
                     tm_b: TwistedMetric) -> BoundLedger:
    """Value-seminorm and control-magnitude bounds against measurements."""
    cost, inter, term = (scenario.running_cost, scenario.interaction,
                         scenario.terminal_cost)
    C_x_ell = None if cost.C_x_L is None else cost.C_x_L + inter.C_x_F
    C_osc = None
    if cost.C_L_osc is not None and inter.C_F is not None:
        C_osc = cost.C_L_osc + inter.C_F
    T = float(value.times[-1])
    g_vals = value.phi[-1]
    g_fnorm = value_fnorm(value, -1, tm_b.f)
    g_sup = float(np.max(np.abs(g_vals))) if term.C_G is not None else None

    times, idx = _ledger_times(value)
    measured = np.array([value_fnorm(value, i, tm_b.f) for i in idx])
    theo = np.array([theoretical_value_fnorm(t, T, tm_b, C_x_ell, g_fnorm,
                                             g_sup, C_osc) for t in times])
    window = np.isfinite(theo)
    w_meas = np.array([float(np.max(np.abs(policy(cost, value.xs,
                                                  value.grad[i]))))
                       for i in idx])
    w_theo = (theo + cost.C_u_L0) / cost.rho_uu
    led = BoundLedger(kind="value_fnorm", times=times, measured=measured,
                      theoretical=theo, window=window)
    led.extras["control"] = BoundLedger(kind="control_sup", times=times,
                                        measured=w_meas, theoretical=w_theo,
                                        window=window)
    led.extras["g_fnorm"] = g_fnorm
    return led


def hessian_ledger(value: ValueFunction, scenario: Scenario,
                   tm_b: TwistedMetric) -> BoundLedger:
    """Second-derivative bounds along the solve (constant diffusion only)."""
    cost, inter, term, drift = (scenario.running_cost, scenario.interaction,
                                scenario.terminal_cost, scenario.drift)
    T = float(value.times[-1])
    times, idx = _ledger_times(value)
    interior = slice(2, -2)
    measured = np.array([float(np.max(np.abs(value.hess(i)[interior])))
                         for i in idx])

    if not scenario.diffusion.is_constant:
        theo = np.full_like(measured, np.inf)
        led = BoundLedger(kind="value_hessian", times=times,
                          measured=measured, theoretical=theo,
                          window=np.zeros_like(times, dtype=bool))
        led.extras["note"] = "empirical only: non-constant diffusion"
        return led
    if drift.C_x_b is None or term.C_xx_G is None:
        raise NumericalError("hessian ledger needs declared C_x_b and C_xx_G")

    C_x_ell = (cost.C_x_L or 0.0) + inter.C_x_F
    g_vals = value.phi[-1]
    g_fnorm = value_fnorm(value, -1, tm_b.f)

    def C_x_phi(s):
        return theoretical_value_fnorm(s, T, tm_b, C_x_ell, g_fnorm)

    C_u_sup = (C_x_phi(0.0) + cost.C_u_L0) / cost.rho_uu
    # a shifted metric with no rate certifies no bound: empty window
    _, tm_bar = shifted_metric(drift.profile, C_u_sup, "grad",
                               scenario.diffusion.sigma0,
                               f"{drift.profile.name}-hessbar")

    C_x_g = (term.C_x_G if term.C_x_G is not None
             else lip_norm(value.xs, g_vals))
    C_xx_g = term.C_xx_G
    theo = np.empty_like(measured)
    window = np.zeros_like(times, dtype=bool)
    for j, t in enumerate(times):
        cands = []
        if not tm_bar.degenerate:
            lamb, Cb = tm_bar.lam, tm_bar.C
            s0 = tm_bar.sigma_check
            integral = q_weighted_integral(
                Cb, lamb, s0, t, T,
                lambda s: 2.0 * (drift.C_x_b * C_x_phi(s) + C_x_ell))
            tau = T - t
            term_opts = [C_xx_g / Cb * np.exp(-lamb * tau)]
            if tau >= 1.0 / (2.0 * lamb):
                term_opts.append(2.0 * C_x_g * q_kernel(Cb, lamb, s0, tau))
            cands.append(integral + min(term_opts))
            if drift.rho_b is not None and tau > 0.0:
                rb = drift.rho_b
                integral2 = q_weighted_integral(
                    Cb, lamb, s0, t, T,
                    lambda s: 2.0 * np.exp(-rb * (s - t))
                    * (drift.C_x_b * C_x_phi(s) + C_x_ell))
                if tau >= 1.0 / (2.0 * lamb):
                    cands.append(integral2 + C_x_g * np.exp(-rb * tau)
                                 * q_kernel(Cb, lamb, s0, tau))
        theo[j] = min(cands) if cands else np.inf
        window[j] = np.isfinite(theo[j])
    led = BoundLedger(kind="value_hessian", times=times, measured=measured,
                      theoretical=theo, window=window)
    led.extras["C_u_sup"] = C_u_sup
    led.extras["lam_bar"] = tm_bar.lam
    return led


def stability_ledger(value: ValueFunction, value_hat: ValueFunction,
                     scenario: Scenario, tm_tilde: TwistedMetric,
                     deltas: dict, flow: Optional[MeasureFlow] = None,
                     flow_hat: Optional[MeasureFlow] = None) -> BoundLedger:
    """Bounds on the gap between two solved problems sharing the diffusion.

    The two problems differ by a state-only cost gap (A13): deltas carries
    its declared Lipschitz constant C_x_delta_l and, optionally, the
    terminal gap's C_x_delta_g (measured when absent).
    """
    if "C_x_delta_l" not in deltas:
        raise ConfigError("stability ledger needs the state-only cost gap "
                          "C_x_delta_l")
    lam, C = tm_tilde.lam, tm_tilde.C
    T = float(value.times[-1])
    times, idx = _ledger_times(value)
    C_x_delta_g = deltas.get("C_x_delta_g")
    if C_x_delta_g is None:
        C_x_delta_g = f_norm(value.xs, value.phi[-1] - value_hat.phi[-1],
                             tm_tilde.f)

    def delta_phi_bound(t):
        tau = T - t
        return (deltas["C_x_delta_l"] / (C * lam) * (1.0 - np.exp(-lam * tau))
                + C_x_delta_g / C * np.exp(-lam * tau))

    measured_lip = np.array([lip_norm(value.xs,
                                      value.phi[i] - value_hat.phi[i])
                             for i in idx])
    measured_f = np.array([f_norm(value.xs, value.phi[i] - value_hat.phi[i],
                                  tm_tilde.f) for i in idx])
    theo = np.array([delta_phi_bound(t) for t in times])
    window = np.isfinite(theo)
    led = BoundLedger(kind="value_gap", times=times, measured=measured_f,
                      theoretical=theo, window=window)
    led.extras["measured_lip"] = measured_lip

    # flow bounds of the perturbed dynamics, driven by the control gap
    def delta_u(s):
        return delta_phi_bound(s) / scenario.running_cost.rho_uu

    if flow is not None and flow_hat is not None:
        w0 = wf_grid(flow.xs, flow.densities[0], flow_hat.densities[0],
                     tm_tilde.f)
        wf_meas, wf_theo, tv_meas, tv_theo = [], [], [], []
        for t in times:
            p, q = flow.at(t), flow_hat.at(t)
            wf_meas.append(wf_grid(flow.xs, p, q, tm_tilde.f, n_atoms=96))
            wf_theo.append(gap_envelope(lam, w0, delta_u, t))
            tv_meas.append(tv_grid(flow.xs, p, q, check=False))
            t0 = max(0.0, t - 1.0 / (2.0 * lam))
            if t > t0:
                tv_theo.append(q_kernel(C, lam, tm_tilde.sigma_check, t - t0)
                               * gap_envelope(lam, w0, delta_u, t0)
                               + girsanov_tv(delta_u, t0, t))
            else:
                tv_theo.append(np.inf)
        led.extras["flow_wf"] = BoundLedger(
            kind="flow_wf_gap", times=times, measured=np.array(wf_meas),
            theoretical=np.array(wf_theo), window=np.ones_like(window))
        led.extras["flow_tv"] = BoundLedger(
            kind="flow_tv_gap", times=times, measured=np.array(tv_meas),
            theoretical=np.array(tv_theo),
            window=np.isfinite(np.array(tv_theo)))
    return led


# ---------------------------------------------------------------------------
# discrete costate residual along the optimal flow

def pontryagin_residual(value: ValueFunction, scenario: Scenario,
                        n_paths=2000, deltas=(0.02, 0.01), seed=77):
    """Mean-square residual of the discrete costate recursion per step size.

    Simulates the optimally controlled state, reads the costate and its
    curvature off the solved value function, and measures how far the
    backward recursion is from closing.  The root-mean-square residual must
    scale linearly with the step, so halving the step should roughly halve
    it (ratio in [1.5, 3]).
    """
    xs = value.xs
    dx = xs[1] - xs[0]
    cost, drift, diff = scenario.running_cost, scenario.drift, scenario.diffusion
    T = float(value.times[-1])
    eps = 1e-5

    def dbdx(x):
        return (drift.b(x + eps) - drift.b(x - eps)) / (2.0 * eps)

    def dldx(x, u):
        return (cost.L(x + eps, u) - cost.L(x - eps, u)) / (2.0 * eps)

    def dsdx(x):
        return (diff.sigma_at(x + eps) - diff.sigma_at(x - eps)) / (2.0 * eps)

    out = {}
    for delta in deltas:
        n_steps = int(round(T / delta))
        rng = np.random.default_rng(seed)
        x = scenario.mu0.sample(n_paths, rng)
        sq_sum, count = 0.0, 0
        for k in range(n_steps):
            t = k * delta
            g_slice = value.grad_at(t)
            y = np.interp(x, xs, g_slice)
            h_slice = hessian_interior(
                value.phi[value.slice_at(t)], dx)
            z = np.interp(x, xs, h_slice)
            w = policy(cost, x, y)
            sig = diff.sigma_at(x)
            db = rng.standard_normal(n_paths) * np.sqrt(delta)
            x_next = x + (drift.b(x) + w) * delta + sig * db
            x_next = np.clip(x_next, xs[0], xs[-1])
            y_next = np.interp(x_next, xs, value.grad_at(t + delta))
            dxh = dbdx(x) * y + dldx(x, w)
            tr = dsdx(x) * z * sig
            resid = y_next - y + (dxh + tr) * delta - z * sig * db
            sq_sum += float(np.sum(resid ** 2))
            count += n_paths
            x = x_next
        out[delta] = np.sqrt(sq_sum / count)
    rms = [out[d] for d in deltas]
    # degenerate problems close the recursion to roundoff: no ratio to take
    ratios = [rms[i] / rms[i + 1] for i in range(len(rms) - 1)
              if rms[i + 1] > 1e-13]
    return {"rms": out, "ratios": ratios}


# ---------------------------------------------------------------------------
# domain truncation audit

_BOX_INNER_TOL = 1e-4   # inner-half value gap a wide-enough box keeps


def box_doubling_check(scenario: Scenario, terminal_fn):
    """Re-solve on a doubled box and compare on the inner half.

    The truncation boundary is artificial; the certified statement lives on
    the whole line, so the box must be demonstrably wide enough.  Returns
    the sup difference of the two value solves on the original inner half
    and whether it stays below _BOX_INNER_TOL.
    """
    g1 = scenario.grid
    xs1 = g1.xs
    v1 = solve_hjb(g1, scenario.T, scenario.diffusion, scenario.drift.b,
                   scenario.running_cost, terminal_fn(xs1))
    span = g1.x_max - g1.x_min
    center = 0.5 * (g1.x_max + g1.x_min)
    g2 = Grid1D(center - span, center + span, 2 * g1.n_x - 1, g1.dt)
    xs2 = g2.xs
    v2 = solve_hjb(g2, scenario.T, scenario.diffusion, scenario.drift.b,
                   scenario.running_cost, terminal_fn(xs2))
    inner = np.abs(xs1 - center) <= 0.25 * span
    worst = 0.0
    for i in np.linspace(0, len(v1.times) - 1, 5).astype(int):
        j = v2.slice_at(v1.times[i])
        interp = np.interp(xs1[inner], xs2, v2.phi[j])
        # compare up to a spatial constant: the level is pinned by terminal
        # data, gradients are what the bounds consume
        diff = v1.phi[i][inner] - interp
        worst = max(worst, float(np.max(np.abs(diff - np.mean(diff)))))
    return {"sup_inner_diff": worst, "pass": bool(worst <= _BOX_INNER_TOL)}
