"""Mean-field layer: frozen iterations, finite-horizon and ergodic fixed
points, and exponential turnpike verification.

The finite-horizon equilibrium is a Picard iteration on measure
flows; each sweep solves the frozen backward equation with the interaction
evaluated along the current flow and pushes the initial law through the
resulting optimal drift.  The ergodic triple is an outer fixed point over
frozen measures; each frozen problem is the value solver's discrete
stationary equation, solved by Newton and certified by one sweep of the
horizon-one normalized map, whose fixed points are exactly its solutions.
frozen_ergodic iterates that map itself, to measure its contraction.  The
turnpike report compares measured distances between the two solutions with
the certified two-sided exponential envelope.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .control import (MeasureFlow, ValueFunction, apply_bands,
                      diffusion_bands, gradient_bands, gradient_second_order,
                      invariant_density, optimal_flow, solve_fokker_planck,
                      solve_hjb, stationary_density_cc, value_stencil)
from .distances import f_norm, lip_norm, tv_grid, w1_grid
from .errors import CertificationError, FixedPointError
from .metrics import q_kernel, within_bound
from .model import (GridDensity, Scenario, SmallnessReport, check_smallness,
                    shifted_metric)
from .transport import wf_grid

# the turnpike report rate, and the Picard contraction read at it, as a
# fraction of the certified rate lambda_star
REPORT_RATE_FRACTION = 0.9
_SOURCE_SLICES = 401        # time slices tabulating an interaction source
_CONTRACTION_SLICES = 17    # flow slices measured in W_f per Picard sweep
_MAP_HORIZON = 1.0          # horizon of the normalized ergodic map
_MAX_OUTER = 60             # ergodic outer sweeps
_NEWTON_MAX_STEPS = 30      # Newton steps of one ergodic inner solve
_REPORT_TIMES = 81          # report times along the finite-horizon flow


@dataclass
class ErgodicSolution:
    eta: float
    xs: np.ndarray
    phi_inf: np.ndarray
    grad_inf: np.ndarray
    mu_inf: np.ndarray
    flatness_residual: float
    iterations: int
    contraction_factors: list
    fnorm_phi: float = 0.0
    outer_trace: list = field(default_factory=list)
    fnorm_ok: Optional[bool] = None     # set by solve_ergodic_mfg

    def as_dict(self):
        return {"eta": self.eta, "flatness_residual": self.flatness_residual,
                "iterations": self.iterations,
                "fnorm_phi": self.fnorm_phi,
                "contraction_factors": [float(c) for c in
                                        self.contraction_factors]}


# ---------------------------------------------------------------------------
# frozen problems

def _interaction_source(scenario: Scenario, flow: Optional[MeasureFlow]):
    """Interaction term along a flow, precomputed on a time grid.

    The flow is smooth in time, so the term is tabulated on ~_SOURCE_SLICES
    slices and linearly interpolated inside the stepping loops.  All slices
    go to the interaction as one batched GridDensity: a convolution builds
    its kernel once and contracts it with every slice in one product,
    instead of one kernel build and one quadrature per slice.  The solver
    evaluates the term on the scenario grid only, once per block of steps:
    t is then a column of step times, and the source returns one
    interpolated row per time (MeasureFlow.at), each equal to the row at
    that scalar time.
    """
    inter = scenario.interaction
    if inter.kind == "none" or flow is None:
        return None
    xs = scenario.grid.xs
    n = min(_SOURCE_SLICES, len(flow.times))
    idx = np.unique(np.linspace(0, len(flow.times) - 1, n).astype(int))
    table = MeasureFlow(flow.times[idx], xs,
                        inter.value(GridDensity(flow.xs, flow.densities[idx]),
                                    xs))
    return lambda t, xq: table.at(t)


def frozen_solve(scenario: Scenario, flow: Optional[MeasureFlow],
                 terminal_values, mu0_density=None):
    """Solve the frozen backward problem and push the initial law forward."""
    grid = scenario.grid
    xs = grid.xs
    value = solve_hjb(grid, scenario.T, scenario.diffusion, scenario.drift.b,
                      scenario.running_cost, np.asarray(terminal_values),
                      source=_interaction_source(scenario, flow))
    if mu0_density is None:
        mu0_density = scenario.mu0.density(xs)
    out_flow = optimal_flow(value, scenario, mu0_density)
    return value, out_flow


# ---------------------------------------------------------------------------
# finite-horizon equilibrium

def solve_mfg(scenario: Scenario, tol=1e-5, max_iters=30, force=False,
              mu0_density=None, terminal_values=None,
              smallness: Optional[SmallnessReport] = None,
              track_contraction=True):
    """Picard iteration on measure flows for the coupled system.

    Returns (flow, value, trace, smallness).  The trace records the sup-W1
    change per sweep and, when track_contraction is set, the contraction
    factor measured in the backward-weighted twisted metric at the report
    rate REPORT_RATE_FRACTION * lambda_star.
    """
    if smallness is None:
        smallness = check_smallness(scenario)
    if not smallness.passes and not force:
        raise FixedPointError(
            f"smallness margin {smallness.margin:.3g} < 1: the Picard map "
            f"is not certified contractive (pass force=True to override)")
    grid = scenario.grid
    xs = grid.xs
    if mu0_density is None:
        mu0_density = scenario.mu0.density(xs)

    flow = solve_fokker_planck(grid, scenario.T, scenario.diffusion,
                               lambda t, x: scenario.drift.b(x), mu0_density)
    lam_w = REPORT_RATE_FRACTION * smallness.lambda_star \
        if smallness.lambda_star > 0 else 0.0
    tm_bar = smallness.tm_bar
    idx = np.unique(np.linspace(0, len(flow.times) - 1,
                                _CONTRACTION_SLICES).astype(int))
    trace = []
    prev_back = None
    for it in range(1, max_iters + 1):
        if terminal_values is not None:
            g = np.asarray(terminal_values, dtype=float)
        else:
            muT = GridDensity(xs, flow.at(scenario.T))
            g = scenario.terminal_cost.G(muT, xs)
        # release the last sweep's value before the next solve allocates
        # its own: two value tables alive at once set the peak memory
        value = None
        value, new_flow = frozen_solve(scenario, flow, g, mu0_density)
        change = float(np.max(w1_grid(xs, new_flow.densities,
                                      flow.densities, check=False)))
        entry = {"iter": it, "sup_w1_change": change}
        if track_contraction and lam_w > 0.0:
            back = max(np.exp(lam_w * (scenario.T - flow.times[i]))
                       * wf_grid(xs, new_flow.densities[i],
                                 flow.densities[i], tm_bar.f, n_atoms=64,
                                 check=False)
                       for i in idx)
            if prev_back is not None and prev_back > 1e-14:
                entry["contraction_factor"] = back / prev_back
            prev_back = back
        trace.append(entry)
        flow = new_flow
        if change < tol:
            return flow, value, trace, smallness
    raise FixedPointError(
        f"no fixed point in {max_iters} sweeps; last change "
        f"{trace[-1]['sup_w1_change']:.3e} (trace attached)", trace)


# ---------------------------------------------------------------------------
# ergodic problems

def _frozen_source(scenario: Scenario, mu_frozen):
    """Interaction term at a frozen density on the scenario grid, or None."""
    inter = scenario.interaction
    if inter.kind == "none" or mu_frozen is None:
        return None
    xs = scenario.grid.xs
    return inter.value(GridDensity(xs, mu_frozen), xs)


def _certify_ergodic(scenario: Scenario, g, src_vals, tol, iterations,
                     factors):
    """One horizon sweep from a fixed point g of the normalized map.

    The sweep reads the per-horizon level off g; its spatial flatness
    certifies that g solves the discrete stationary equation.
    """
    grid = scenario.grid
    xs = grid.xs
    source = None if src_vals is None else (lambda t, x: src_vals)
    value = solve_hjb(grid, _MAP_HORIZON, scenario.diffusion, scenario.drift.b,
                      scenario.running_cost, g, source=source, max_slices=3)
    level = value.phi[0] - g
    flatness = float(np.max(level) - np.min(level))
    if flatness > max(10.0 * tol, 1e-12):
        raise FixedPointError(
            f"ergodic level is not flat (residual {flatness:.3e}); refine "
            f"the grid or loosen the tolerance")
    grad = gradient_second_order(g, grid.dx)
    return ErgodicSolution(eta=-float(np.mean(level)) / _MAP_HORIZON, xs=xs,
                           phi_inf=g, grad_inf=grad,
                           mu_inf=invariant_density(scenario, grad),
                           flatness_residual=flatness, iterations=iterations,
                           contraction_factors=factors,
                           fnorm_phi=lip_norm(xs, g))


def frozen_ergodic(scenario: Scenario, mu_frozen=None, tol=1e-9,
                   max_iters=400):
    """Normalized horizon-map iteration for the frozen ergodic triple.

    mu_frozen is a density on the scenario grid (or None for no
    interaction).  The map solves the frozen problem over _MAP_HORIZON,
    recenters at x = 0, and iterates to its fixed point; the ergodic level
    is read off the residual constant, whose spatial flatness certifies the
    grid resolution.  Iterate gaps are measured in the Lipschitz seminorm;
    their ratios are the map's contraction factors.
    """
    grid = scenario.grid
    xs = grid.xs
    i0 = int(np.argmin(np.abs(xs)))
    src_vals = _frozen_source(scenario, mu_frozen)
    source = None if src_vals is None else (lambda t, x: src_vals)

    g = np.zeros_like(xs)
    diffs = []
    for it in range(1, max_iters + 1):
        value = solve_hjb(grid, _MAP_HORIZON, scenario.diffusion,
                          scenario.drift.b, scenario.running_cost, g,
                          source=source, max_slices=3)
        g_new = value.phi[0] - value.phi[0][i0]
        diffs.append(lip_norm(xs, g_new - g))
        g = g_new
        if diffs[-1] < tol:
            break
    else:
        raise FixedPointError(
            f"ergodic map did not converge in {max_iters} iterations "
            f"(last change {diffs[-1]:.3e})")
    factors = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 1)
               if diffs[i] > 1e-13]
    return _certify_ergodic(scenario, g, src_vals, tol, len(diffs), factors)


def _ergodic_newton(scenario: Scenario, src_vals, g, tol):
    """Newton's method for the value solver's discrete stationary equation.

    Solves -(sigma^2/2) D2 g - H(g) + lam = 0 on interior nodes and
    -H(g) + lam = 0 on the two boundary rows, with g = 0 at the node
    nearest x = 0.  H is solve_hjb's explicit Hamiltonian L(w) + (b + w) D g
    (+ source), with D and w from control.value_stencil at g, as solve_hjb
    takes them.  A fixed point of the normalized horizon map solves this
    equation, and lam is the per-unit-time level, so eta = -lam.  By the
    envelope theorem the Jacobian is -(sigma^2/2) D2 - diag(b + w) D; the
    unknown lam takes the place of g at the pinned node, whose column
    becomes a column of ones.  Across the upwind switch this is Howard's
    policy iteration.

    Returns (g, steps); raises FixedPointError after _NEWTON_MAX_STEPS
    steps without max|dg| < tol.  The equation has no time step: the CFL
    guard is the certifying sweep's, in solve_hjb.
    """
    grid = scenario.grid
    xs, dx, n = grid.xs, grid.dx, len(grid.xs)
    i0 = int(np.argmin(np.abs(xs)))
    cost = scenario.running_cost
    sig2 = scenario.diffusion.sigma_at(xs) ** 2
    sig2_min = np.min(sig2)
    b = np.asarray(scenario.drift.b(xs), dtype=float)
    neg_lap = diffusion_bands(sig2, dx)
    rows = np.arange(n)
    g = np.asarray(g, dtype=float) - g[i0]
    for step in range(_NEWTON_MAX_STEPS + 1):
        p, w, a, _, direction = value_stencil(g, dx, xs, b, cost, sig2_min)
        # the step solves J dg + lam 1 = rhs, with rhs = -F(g) =
        # H(g) + (sigma^2/2) D2 g the residual of the equation at lam = 0
        rhs = cost.L(xs, w) + a * p - apply_bands(neg_lap, g)
        if src_vals is not None:
            rhs += src_vals
        r_idx, c_idx, vals = [rows], [np.full(n, i0)], [np.ones(n)]
        for k, coef in gradient_bands(n, dx, direction).items():
            col = rows + k
            keep = (col >= 0) & (col < n) & (col != i0)
            r_idx.append(rows[keep])
            c_idx.append(col[keep])
            vals.append((neg_lap.get(k, 0.0) - a * coef)[keep])
        jac = sparse.csc_matrix((np.concatenate(vals),
                                 (np.concatenate(r_idx),
                                  np.concatenate(c_idx))), shape=(n, n))
        delta = splu(jac).solve(rhs)
        delta[i0] = 0.0          # that slot held lam
        g += delta
        if np.max(np.abs(delta)) < tol:
            return g, step
    raise FixedPointError(
        f"ergodic Newton did not converge in {_NEWTON_MAX_STEPS} steps "
        f"(last step {np.max(np.abs(delta)):.3e})")


def solve_ergodic_mfg(scenario: Scenario, tol=1e-7, force=False,
                      smallness: Optional[SmallnessReport] = None,
                      inner_tol=1e-10, mu_init=None):
    """Outer fixed point over frozen measures for the ergodic system.

    Each outer sweep freezes the measure, solves the discrete stationary
    value equation by Newton (warm started from the last sweep's solution)
    and takes the invariant density of its feedback.  inner_tol bounds the
    last Newton step of each sweep.  The returned solution is certified by
    one horizon sweep of the normalized map, whose level must be flat to
    10 inner_tol; iterations counts the Newton steps of all sweeps, and
    outer_trace records each sweep's measure change, outer factor and
    Newton steps.
    """
    if smallness is None:
        smallness = check_smallness(scenario)
    if not smallness.passes and not force:
        raise FixedPointError(
            f"smallness margin {smallness.margin:.3g} < 1: the ergodic map "
            f"is not certified contractive (pass force=True to override)")
    grid = scenario.grid
    xs = grid.xs
    mu = mu_init if mu_init is not None else \
        stationary_density_cc(grid, scenario.diffusion, scenario.drift.b)
    trace = []
    prev_change = None
    low = scenario.regime == "low"
    g = np.zeros_like(xs)
    steps = 0
    for it in range(1, _MAX_OUTER + 1):
        src_vals = _frozen_source(scenario, mu)
        g, k = _ergodic_newton(scenario, src_vals, g, inner_tol)
        steps += k
        mu_new = invariant_density(scenario, gradient_second_order(g, grid.dx))
        change = tv_grid(xs, mu_new, mu, check=False) if low \
            else w1_grid(xs, mu_new, mu, check=False)
        entry = {"iter": it, "change": change, "newton_steps": k}
        if prev_change is not None and prev_change > 1e-13:
            entry["factor"] = change / prev_change
        trace.append(entry)
        mu = mu_new
        if change < tol:
            break
        prev_change = change
    else:
        raise FixedPointError(f"ergodic outer loop did not converge "
                              f"in {_MAX_OUTER} sweeps", trace)
    sol = _certify_ergodic(scenario, g, src_vals, inner_tol, steps, [])
    sol.outer_trace = trace
    sol.fnorm_phi = f_norm(xs, sol.phi_inf, smallness.tm_b.f)
    cap = (4.0 if low else 1.0) * smallness.C_x_psi
    sol.fnorm_ok = bool(sol.fnorm_phi <= cap * (1.0 + 1e-6))
    return sol


# ---------------------------------------------------------------------------
# turnpike constants and report

@dataclass
class TurnpikeConstants:
    lam: float
    tau_G: float
    C_i: float
    C_f_flow: float
    value_terms: dict
    M1: float
    M1_tilde: float

    def flow_bound(self, t, T, W0, regime, tm_bar):
        """Envelope of the measured flow distance from W0 = W_f at t = 0.

        The distance is TV in the low regime and W1 otherwise; the W_f
        envelope becomes a W1 one through the sandwich C_bar W1 <= W_f.
        """
        tail = self.C_f_flow * np.exp(-self.lam * (T - t))
        if regime == "low":
            return self.C_i * W0 * q_kernel(tm_bar.C, self.lam,
                                            tm_bar.sigma_check,
                                            max(t, 1e-12)) + tail
        return (self.C_i * W0 * np.exp(-self.lam * t) + tail) / tm_bar.C

    def value_bound(self, t, T, W0):
        v = self.value_terms
        return (v["A_i"] * W0 * np.exp(-self.lam * t)
                + v["A_f"] * np.exp(-self.lam * (T - t))
                + v.get("A_exp", 0.0) * np.exp(-v.get("lam_exp", self.lam)
                                               * (T - t)))


def turnpike_constants(scenario: Scenario, rc: SmallnessReport,
                       g_values, phi_inf) -> TurnpikeConstants:
    """Evaluate the explicit envelope constants for the scenario's regime."""
    tm_b, tm_bar = rc.tm_b, rc.tm_bar
    cost = scenario.running_cost
    rho = cost.rho_uu
    sigma0 = scenario.diffusion.sigma0
    regime = scenario.regime
    if rc.lambda_star <= 0.0:
        raise CertificationError("no certified rate: epsilon(lam) >= 1 "
                                 "everywhere")
    lam = 0.5 * tm_bar.lam if regime == "low" \
        else REPORT_RATE_FRACTION * rc.lambda_star
    eps = rc.epsilon(lam)
    if eps >= 1.0:
        raise CertificationError(f"epsilon({lam:g}) = {eps:g} >= 1")
    C_i = 1.0 / (1.0 - eps)
    xs = scenario.grid.xs
    C_x_psi = rc.C_x_psi

    g_fnorm = f_norm(xs, np.asarray(g_values), tm_b.f)
    sqrt_e = np.sqrt(np.e)
    if regime == "low":
        arg = (g_fnorm - 2.0 * sqrt_e * C_x_psi) / ((4.0 - 2.0 * sqrt_e)
                                                    * C_x_psi) \
            if C_x_psi > 0 else 0.0
        shift_level = (cost.C_u_L0 + max((8.0 - 2.0 * sqrt_e) * C_x_psi,
                                         g_fnorm)) / rho
    else:
        arg = (g_fnorm - C_x_psi) / C_x_psi if C_x_psi > 0 else 0.0
        shift_level = (cost.C_u_L0 + max(2.0 * C_x_psi, g_fnorm)) / rho
    tau_G = max(np.log(arg) / tm_b.lam, 0.0) if arg > 1.0 else 0.0

    if tau_G > 0.0:
        _, tm_G = shifted_metric(scenario.drift.profile, shift_level, "grad",
                                 sigma0, "terminal-shifted")
    else:
        tm_G = tm_bar
    lam_G, C_G = tm_G.lam, tm_G.C

    gap = np.asarray(phi_inf) - np.asarray(g_values)
    gap_fnorm = np.inf if tm_G.degenerate else f_norm(xs, gap, tm_G.f)
    blow = np.exp(tm_bar.lam * tau_G)
    if regime == "low":
        C_f_flow = blow * gap_fnorm / (2.0 * np.sqrt(tm_bar.lam) * rho * C_G) \
            if C_G > 0 else np.inf
    else:
        C_f_flow = blow * gap_fnorm / (2.0 * rho * C_G * lam_G) \
            if C_G * lam_G > 0 else np.inf

    lam_bar, C_bar = tm_bar.lam, tm_bar.C
    inter = scenario.interaction
    if regime == "high":
        pref = inter.C_xmu_F / (C_bar ** 2 * (1.0 - eps))
        value_terms = {
            "A_i": pref / (lam + lam_bar),
            "A_f": pref * 2.0 * C_x_psi * blow
            / (lam_bar * C_bar * (lam_bar - lam) * rho),
            "A_exp": 4.0 * C_x_psi / C_bar * blow, "lam_exp": lam_bar}
    elif regime == "mild":
        pref = inter.C_mu_F / (2.0 * C_bar * (1.0 - eps))
        base = 1.0 / (np.sqrt(np.pi) * C_bar * sigma0)
        value_terms = {
            "A_i": pref * base * (1.0 / np.sqrt(lam_bar)
                                  + np.sqrt(lam_bar) / (lam + lam_bar)),
            "A_f": pref * 2.0 * sqrt_e * C_x_psi * blow * base / (lam_bar
                                                                  * C_bar * rho)
            * (1.0 / np.sqrt(lam_bar) + np.sqrt(lam_bar) / (lam_bar - lam)),
            "A_exp": 4.0 * C_x_psi / C_bar * blow, "lam_exp": lam_bar}
    else:
        value_terms = {
            "A_i": 4.0 * inter.C_mu_TV_F
            / (np.pi * C_bar ** 2 * sigma0 ** 2 * np.sqrt(lam_bar)
               * (1.0 - eps)),
            "A_f": (3.0 * np.e ** 0.25 * inter.C_mu_TV_F * blow
                    / (np.sqrt(np.pi) * lam_bar * C_bar ** 2 * sigma0 * rho
                       * (1.0 - eps)) + 1.0)
            * (16.0 - 4.0 * sqrt_e) * C_x_psi / C_bar}

    # first-moment caps from the uncontrolled invariant law
    grid = scenario.grid
    mu_b = stationary_density_cc(grid, scenario.diffusion, scenario.drift.b)
    mom_b = float(np.trapezoid(np.abs(xs) * mu_b, xs))
    mom_0 = float(np.trapezoid(np.abs(xs) * scenario.mu0.density(xs), xs))
    lam_b, C_b = tm_b.lam, tm_b.C
    g_sup = float(np.max(np.abs(np.asarray(g_values))))
    M1 = ((1.0 + 1.0 / C_b) * mom_b
          + (mom_0 + (C_x_psi + cost.C_u_L0) / (rho * lam_b)
             + 3.0 * g_sup / (2.0 * rho * np.sqrt(np.pi * lam_b)
                              * C_b * sigma0)) / C_b)
    M1_tilde = ((1.0 + 1.0 / C_b) * mom_b
                + (mom_0 + (C_x_psi + g_fnorm + cost.C_u_L0)
                   / (rho * lam_b)) / C_b)
    return TurnpikeConstants(lam=lam, tau_G=tau_G, C_i=C_i,
                             C_f_flow=C_f_flow, value_terms=value_terms,
                             M1=M1, M1_tilde=M1_tilde)


@dataclass
class TurnpikeReport:
    times: np.ndarray
    d_flow: np.ndarray
    d_value: np.ndarray
    bound_flow: np.ndarray
    window: np.ndarray
    flow_pass: np.ndarray      # per time: outside the window or in the bound
    W0: float
    constants: TurnpikeConstants
    verdicts: dict


def _fit_rate(times, values, floor):
    """Log-linear slope of the branch rising above the plateau floor.

    Returns None when fewer than three points carry signal (no transient to
    fit: the solution already sits at the turnpike on that side).
    """
    mask = (values > max(3.0 * floor, 1e-12)) & np.isfinite(values)
    if np.sum(mask) < 3:
        return None
    # least-squares slope from the biased covariance, as linregress takes it
    ssxm, ssxym, _, _ = np.cov(times[mask], np.log(values[mask]), bias=1).flat
    return float(ssxym / ssxm)


def turnpike_report(scenario: Scenario, flow: MeasureFlow,
                    value: ValueFunction, ergodic: ErgodicSolution,
                    rc: SmallnessReport) -> TurnpikeReport:
    """Measured distances to the ergodic triple against the certified bound."""
    constants = turnpike_constants(scenario, rc, value.phi[-1],
                                   ergodic.phi_inf)
    xs = scenario.grid.xs
    T = scenario.T
    low = scenario.regime == "low"
    idx = np.unique(np.linspace(0, len(flow.times) - 1,
                                _REPORT_TIMES).astype(int))
    times = flow.times[idx]
    tm_bar = rc.tm_bar

    densities = flow.densities[idx]
    distance = tv_grid if low else w1_grid
    d_flow = distance(xs, densities,
                      np.broadcast_to(ergodic.mu_inf, densities.shape),
                      check=False)
    d_value = np.empty(len(idx))
    for j, t in enumerate(times):
        gap_grad = value.grad[value.slice_at(t)] - ergodic.grad_inf
        d_value[j] = float(np.max(np.abs(gap_grad)))

    W0 = wf_grid(xs, flow.densities[0], ergodic.mu_inf, tm_bar.f,
                 n_atoms=128, check=False)
    bound_flow = np.array([constants.flow_bound(t, T, W0, scenario.regime,
                                                tm_bar) for t in times])
    bound_value = np.array([constants.value_bound(t, T, W0) for t in times])
    window = times <= T - constants.tau_G + 1e-12
    if low:
        window &= times >= 1.0 / (2.0 * tm_bar.lam)

    plateau = float(np.median(d_flow[(times >= 0.4 * T) & (times <= 0.6 * T)]))
    half = times <= 0.5 * T
    slope_in = _fit_rate(times[half], d_flow[half], plateau)
    lam_in = None if slope_in is None else -slope_in
    out_mask = (times >= 0.5 * T) & window
    slope_out = _fit_rate(T - times[out_mask], d_flow[out_mask], plateau)
    lam_out = None if slope_out is None else -slope_out

    flow_pass = ~window | within_bound(d_flow, bound_flow)
    value_ok = bool(np.all(within_bound(d_value[window], bound_value[window])))
    half_star = 0.5 * rc.lambda_star
    # the first moment stays bounded in time: the turnpike holds on R, not
    # only on the box; judged on every stored slice
    moment = float(np.max(flow.moment()))
    moment_cap = min(constants.M1, constants.M1_tilde)
    verdicts = {
        "flow_bound": bool(np.all(flow_pass)),
        "value_bound": value_ok,
        "plateau_ratio": float(plateau / max(d_flow[0], 1e-300)),
        "lam_in": lam_in, "lam_out": lam_out,
        "lam_star": rc.lambda_star,
        # an absent transient has no rate to exhibit: vacuously fine
        "rates_ok": bool((lam_in is None or lam_in >= half_star)
                         and (lam_out is None or lam_out >= half_star)),
        "moment": moment, "moment_cap": moment_cap,
        "moment_ok": bool(within_bound(moment, moment_cap)),
    }
    return TurnpikeReport(times=times, d_flow=d_flow, d_value=d_value,
                          bound_flow=bound_flow, window=window,
                          flow_pass=flow_pass, W0=W0,
                          constants=constants, verdicts=verdicts)

