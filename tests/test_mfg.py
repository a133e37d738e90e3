import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfglab
from mfglab import mfg
from mfglab.control import optimal_flow, solve_hjb, stationary_density_cc
from mfglab.distances import f_norm, w1_grid
from mfglab.errors import CertificationError, FixedPointError, NumericalError
from mfglab.mfg import (frozen_ergodic, frozen_solve, solve_ergodic_mfg,
                        solve_mfg, turnpike_constants, turnpike_report)
from mfglab.model import (GaussianLaw, Grid1D, Scenario, check_smallness,
                          linear_drift, load_scenario, mean_interaction,
                          policy, quadratic_cost, varying_diffusion,
                          zero_terminal)


def shoot_mean_traj(beta, c, m0, T, n=4001):
    """RK4 + secant shooting for m' = -beta m - s, s' = beta s - c m."""
    ts = np.linspace(0.0, T, n)
    dt = ts[1] - ts[0]

    def integrate(s0):
        y = np.array([m0, s0])
        out = np.empty((n, 2))
        out[0] = y

        def f(y):
            return np.array([-beta * y[0] - y[1], beta * y[1] - c * y[0]])

        for i in range(n - 1):
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            out[i + 1] = y
        return out

    lo, hi = -1.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if integrate(mid)[-1, 1] > 0.0:
            hi = mid
        else:
            lo = mid
    traj = integrate(0.5 * (lo + hi))
    return ts, traj[:, 0], traj[:, 1]


@pytest.fixture(scope="module")
def lq_mean_quick():
    return load_scenario("lq_mean", {"grid.n_x": 301, "grid.dt": 2e-3})


def test_frozen_ergodic_lq_oracle():
    sc = load_scenario("lq", {"grid.dt": 2.5e-4})
    sol = frozen_ergodic(sc, None, tol=1e-9)
    xs = sol.xs
    inner = np.abs(xs) <= 4.0
    assert sol.eta == pytest.approx(-1.0, abs=1e-3)
    assert np.max(np.abs(sol.phi_inf - 0.5 * xs ** 2)[inner]) <= 5e-3
    var = np.trapezoid(xs ** 2 * sol.mu_inf, xs) \
        - np.trapezoid(xs * sol.mu_inf, xs) ** 2
    assert var == pytest.approx(0.5, abs=1e-3)
    assert sol.flatness_residual <= 1e-8


def test_frozen_ergodic_trivial_zero():
    sc = load_scenario("ou")
    sol = frozen_ergodic(sc, None, tol=1e-10)
    assert abs(sol.eta) < 1e-9
    assert np.max(np.abs(sol.phi_inf)) < 1e-9
    # only solve_ergodic_mfg measures and judges the seminorm
    assert sol.fnorm_phi is None and sol.fnorm_ok is None


def _newton_and_map(sc, mu_frozen):
    """The frozen ergodic problem solved by Newton and by the horizon map."""
    src = mfg._frozen_source(sc, mu_frozen)
    g, steps = mfg._ergodic_newton(sc, src, np.zeros_like(sc.grid.xs), 1e-10)
    newton = mfg._certify_ergodic(sc, g, src, 1e-10, steps, [])
    horizon_map = frozen_ergodic(sc, mu_frozen, tol=1e-12)
    assert np.max(np.abs(newton.phi_inf - horizon_map.phi_inf)) <= 1e-9
    assert abs(newton.eta - horizon_map.eta) <= 1e-12
    return newton, horizon_map


def test_newton_matches_map_double_well():
    sc = load_scenario("double_well_small")
    mu_b = stationary_density_cc(sc.grid, sc.diffusion, sc.drift.b)
    newton, horizon_map = _newton_and_map(sc, mu_b)
    assert 1 <= newton.iterations < horizon_map.iterations


def test_newton_matches_map_varying_diffusion():
    diff = varying_diffusion(lambda x: np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x)),
                             sigma0=0.8, Sigma=1.2,
                             C_x_sigma=0.2 * np.sqrt(2.0))
    sc = Scenario(name="ou_varying", drift=linear_drift(1.0), diffusion=diff,
                  running_cost=quadratic_cost(q=1.0, C_x_L=6.0),
                  interaction=mean_interaction(0.2),
                  terminal_cost=zero_terminal(), mu0=GaussianLaw(0.0, 1.0),
                  T=1.0, regime="high", grid=Grid1D(-6.0, 6.0, 301, 1e-3))
    newton, _ = _newton_and_map(sc, GaussianLaw(0.5, 1.0).density(sc.grid.xs))
    assert newton.iterations >= 2


def test_newton_matches_map_across_upwind_switch():
    # dx = 0.25: the feedback drift -2x passes sigma^2 / dx = 8 near the
    # box edge, so the value solver switches to upwind differences there
    sc = load_scenario("lq", {"grid.n_x": 41, "grid.dt": 1e-3})
    newton, _ = _newton_and_map(sc, None)
    xs = sc.grid.xs
    a = sc.drift.b(xs) + policy(sc.running_cost, xs, newton.grad_inf)
    assert np.max(np.abs(a)) * sc.grid.dx > 2.0
    assert newton.iterations >= 2


def test_newton_step_cap_raises(monkeypatch):
    sc = load_scenario("double_well_small")
    rep = check_smallness(sc)
    monkeypatch.setattr(mfg, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(FixedPointError, match="Newton did not converge"):
        solve_ergodic_mfg(sc, smallness=rep)


def test_newton_keeps_the_cfl_guard():
    # dt = 0.05 at dx = 0.25 allows |b + w| <= 5; the solution reaches 10.
    # Newton's equation has no time step: the certifying sweep's value
    # solve raises, at the start of its unit horizon
    sc = load_scenario("lq", {"grid.n_x": 41, "grid.dt": 0.05})
    with pytest.raises(NumericalError, match=r"CFL guard at t=1\b"):
        solve_ergodic_mfg(sc, force=True)


_SOURCE_TABLE_HASH = """
import hashlib
import numpy as np
from mfglab import mfg
from mfglab.control import solve_fokker_planck
from mfglab.model import load_scenario
sc = load_scenario("double_well_small", {"horizon": 0.5})
flow = solve_fokker_planck(sc.grid, sc.T, sc.diffusion,
                           lambda t, x: sc.drift.b(x),
                           sc.mu0.density(sc.grid.xs))
source = mfg._interaction_source(sc, flow)
table = np.stack([source(t, sc.grid.xs) for t in flow.times])
print(table.shape, hashlib.sha256(table.tobytes()).hexdigest())
"""


def test_interaction_source_ignores_blas_threads():
    """The conv-tanh source table has the same bytes at 1 and 2 BLAS
    threads: its contraction does not go through BLAS, whose summation
    order depends on the thread count."""
    src_dir = str(Path(mfglab.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=src_dir)
        proc = subprocess.run([sys.executable, "-c", _SOURCE_TABLE_HASH],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        out.append(proc.stdout.strip())
    assert out[0].startswith("(2001, 401) ")
    assert out[0] == out[1]


def test_frozen_solve_no_interaction_reduces(lq_mean_quick):
    sc = lq_mean_quick
    xs = sc.grid.xs
    g = np.zeros_like(xs)
    from mfglab.control import MeasureFlow
    flat = MeasureFlow(times=np.array([0.0, sc.T]), xs=xs,
                       densities=np.tile(sc.mu0.density(xs), (2, 1)))
    value, flow = frozen_solve(sc, None, g)
    direct = solve_hjb(sc.grid, sc.T, sc.diffusion, sc.drift.b,
                       sc.running_cost, g)
    assert np.max(np.abs(value.phi - direct.phi)) == 0.0
    direct_flow = optimal_flow(direct, sc, sc.mu0.density(xs))
    assert np.max(np.abs(flow.densities - direct_flow.densities)) == 0.0


def test_frozen_solve_matches_linear_oracle(lq_mean_quick):
    # frozen problem along a prescribed exponentially decaying mean flow
    sc = lq_mean_quick
    beta, c = 3.0, 0.1
    xs = sc.grid.xs
    from mfglab.control import MeasureFlow
    ts_flow = np.linspace(0.0, sc.T, 201)
    dens = np.stack([GaussianLaw(0.8 * np.exp(-t), 0.25).density(xs)
                     for t in ts_flow])
    flow = MeasureFlow(times=ts_flow, xs=xs, densities=dens)
    value, _ = frozen_solve(sc, flow, np.zeros_like(xs))
    # backward linear offset: s' = beta s - c m_s with m_s = 0.8 e^{-s}
    ts = value.times
    n = len(ts)
    s = np.zeros(n)
    for i in range(n - 1, 0, -1):
        dt = ts[i] - ts[i - 1]

        def f(si, ti):
            return beta * si - c * 0.8 * np.exp(-ti)

        k1 = f(s[i], ts[i])
        k2 = f(s[i] - 0.5 * dt * k1, ts[i] - 0.5 * dt)
        k3 = f(s[i] - 0.5 * dt * k2, ts[i] - 0.5 * dt)
        k4 = f(s[i] - dt * k3, ts[i - 1])
        s[i - 1] = s[i] - dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    i0 = int(np.argmin(np.abs(xs)))
    measured = value.grad[:, i0]
    assert np.max(np.abs(measured - s)) < 2e-4


def test_solve_mfg_trivial_one_sweep():
    sc = load_scenario("ou")
    flow, value, trace, rep = solve_mfg(sc, tol=1e-8)
    assert len(trace) == 1
    assert trace[0]["sup_w1_change"] < 1e-12
    assert np.max(np.abs(value.phi)) < 1e-12


def test_solve_mfg_lq_mean_oracle(lq_mean_quick):
    sc = lq_mean_quick
    flow, value, trace, rep = solve_mfg(sc, tol=1e-7)
    assert len(trace) <= 30
    ts, m_oracle, _ = shoot_mean_traj(3.0, 0.1, 0.8, sc.T)
    m_solver = np.interp(ts, flow.times, flow.mean())
    assert np.max(np.abs(m_solver - m_oracle)) < 1e-3
    lam = 0.9 * rep.lambda_star
    eps = rep.epsilon(lam)
    factors = [e["contraction_factor"] for e in trace
               if "contraction_factor" in e]
    if factors:
        assert min(factors) <= eps * 1.2


def test_solve_ergodic_trivial_one_outer():
    sc = load_scenario("ou")
    sol = solve_ergodic_mfg(sc, tol=1e-9, inner_tol=1e-10)
    assert len(sol.outer_trace) == 1
    # stationary law of the unit drift: N(0, 1)
    xs = sol.xs
    var = np.trapezoid(xs ** 2 * sol.mu_inf, xs)
    assert var == pytest.approx(1.0, abs=1e-4)


def test_solve_ergodic_lq_mean(lq_mean_quick):
    sc = lq_mean_quick
    rep = check_smallness(sc)
    sol = solve_ergodic_mfg(sc, tol=1e-8, inner_tol=1e-9,
                            smallness=rep,
                            mu_init=GaussianLaw(1.0, 0.4).density(sc.grid.xs))
    xs = sol.xs
    # symmetric equilibrium: mean zero, uncontrolled stationary variance 1/3
    assert abs(np.trapezoid(xs * sol.mu_inf, xs)) < 1e-6
    assert np.trapezoid(xs ** 2 * sol.mu_inf, xs) == pytest.approx(
        1.0 / 3.0, abs=2e-3)
    factors = [e["factor"] for e in sol.outer_trace if "factor" in e]
    assert factors, sol.outer_trace
    assert max(factors) <= rep.outer_factor * 1.2
    assert sol.fnorm_ok and sol.fnorm_bound == rep.C_x_psi
    assert 0.0 <= sol.fnorm_phi <= sol.fnorm_bound


def test_ergodic_refuses_without_force():
    sc = load_scenario("double_well")      # fails the strength condition
    with pytest.raises(FixedPointError, match="force"):
        solve_ergodic_mfg(sc)


def test_solve_mfg_refuses_without_force(lq_mean_quick):
    sc = load_scenario("double_well")      # fails the strength condition
    with pytest.raises(FixedPointError, match="force") as info:
        solve_mfg(sc)
    assert info.value.trace == []
    # an unconverged iteration carries its Picard trace
    with pytest.raises(FixedPointError, match="no fixed point") as info:
        solve_mfg(lq_mean_quick, tol=1e-14, max_iters=1,
                  track_contraction=False)
    assert [e["iter"] for e in info.value.trace] == [1]


def test_turnpike_flow_bound_holds_at_start():
    # small c: W_f(0) sits well below W1(0), so an envelope on W_f compared
    # with the measured W1 fails at t = 0 unless it is divided by C_bar
    sc = load_scenario("lq_mean", {"interaction.c": 0.02, "mu0.mean": 0.4,
                                   "grid.n_x": 301, "grid.dt": 2e-3})
    rep = check_smallness(sc)
    sol = solve_ergodic_mfg(sc, smallness=rep)
    flow, value, _, _ = solve_mfg(sc, tol=1e-6, smallness=rep)
    report = turnpike_report(sc, flow, value, sol, rep)
    tc = report.constants
    assert report.W0 < report.flow.measured[0]
    assert report.flow.theoretical[0] >= tc.C_i * report.W0 / rep.tm_bar.C
    assert report.flow.theoretical[0] >= report.flow.measured[0]
    assert report.verdicts["flow_bound"]
    # d_value reads the stored gradient slice at each report time
    ref = [np.max(np.abs(value.grad[value.slice_at(t)] - sol.grad_inf))
           for t in report.value.times]
    assert np.array_equal(report.value.measured, ref)


def test_turnpike_constants_levels(lq_mean_quick):
    sc = lq_mean_quick
    rep = check_smallness(sc)
    xs = sc.grid.xs
    tm_b = rep.tm_b
    # terminal equal to the steady value: no settling time needed
    tc0 = turnpike_constants(sc, rep, np.zeros_like(xs), np.zeros_like(xs))
    assert tc0.tau_G == 0.0
    assert tc0.C_i == pytest.approx(1.0 / (1.0 - rep.epsilon(tc0.lam)))
    # seminorm 3 C_x_psi: settling time log(2) / lam_b
    g3 = 3.0 * rep.C_x_psi * tm_b.f(np.abs(xs))
    tc3 = turnpike_constants(sc, rep, g3, np.zeros_like(xs))
    assert tc3.tau_G == pytest.approx(np.log(2.0) / tm_b.lam, rel=5e-2)
    # a nonzero terminal enters the two first-moment caps differently (its
    # sup in M1, its seminorm in M1_tilde); the report judges their minimum
    assert tc3.M1 != tc3.M1_tilde
    sol = solve_ergodic_mfg(sc, smallness=rep)
    flow, value, _, _ = solve_mfg(sc, tol=1e-6, smallness=rep,
                                  terminal_values=g3)
    report = turnpike_report(sc, flow, value, sol, rep)
    assert report.verdicts["moment_cap"] == min(tc3.M1, tc3.M1_tilde)


def test_turnpike_constants_require_rate():
    sc = load_scenario("double_well")
    rep = check_smallness(sc)
    xs = sc.grid.xs
    with pytest.raises(CertificationError, match="no certified rate"):
        turnpike_constants(sc, rep, np.zeros_like(xs), np.zeros_like(xs))


def test_turnpike_exact_fixed_point(lq_mean_quick):
    # start at the ergodic pair: every distance sits at the scheme floor
    sc = lq_mean_quick
    rep = check_smallness(sc)
    sol = solve_ergodic_mfg(sc, tol=1e-10, inner_tol=1e-11, smallness=rep)
    flow, value, trace, _ = solve_mfg(
        sc, tol=1e-9, smallness=rep, mu0_density=sol.mu_inf,
        terminal_values=sol.phi_inf, track_contraction=False)
    report = turnpike_report(sc, flow, value, sol, rep)
    assert np.max(report.flow.measured) <= 1e-4
    assert np.max(report.value.measured) <= 1e-4
    assert report.verdicts["flow_bound"]


def test_moment_bound_uncontrolled(lq_mean_quick):
    # the caps M1 and M1_tilde come from the uncontrolled invariant law; the
    # report judges the equilibrium's sup_t E|X_t| over every stored slice
    sc = lq_mean_quick
    rep = check_smallness(sc)
    sol = solve_ergodic_mfg(sc, smallness=rep)
    flow, value, _, _ = solve_mfg(sc, tol=1e-6, smallness=rep)
    report = turnpike_report(sc, flow, value, sol, rep)
    v = report.verdicts
    tc = report.constants
    assert v["moment"] == max(flow.moment())
    assert v["moment_cap"] == min(tc.M1, tc.M1_tilde)
    assert v["moment_ok"]


def test_fixed_point_residual_invariant(lq_mean_quick):
    # one extra frozen sweep from the converged flow moves it by < 2 tol
    sc = lq_mean_quick
    tol = 1e-6
    flow, value, trace, rep = solve_mfg(sc, tol=tol)
    xs = sc.grid.xs
    muT = None
    g = np.zeros_like(xs)
    _, extra = frozen_solve(sc, flow, g)
    idx = np.unique(np.linspace(0, len(flow.times) - 1, 17).astype(int))
    change = max(w1_grid(xs, extra.densities[i], flow.densities[i],
                         check=False) for i in idx)
    assert change < 2.0 * tol


def test_ergodic_discrete_residuals(lq_mean_quick):
    # the ergodic triple satisfies the discretized stationary system
    sc = lq_mean_quick
    rep = check_smallness(sc)
    sol = solve_ergodic_mfg(sc, tol=1e-9, inner_tol=1e-10, smallness=rep)
    xs, dx = sol.xs, sc.grid.dx
    from mfglab.model import GridDensity, policy
    inner = slice(4, -4)
    sig2 = sc.diffusion.sigma_at(xs) ** 2
    w = policy(sc.running_cost, xs, sol.grad_inf)
    hess = np.gradient(sol.grad_inf, dx)
    F = sc.interaction.value(GridDensity(xs, sol.mu_inf), xs)
    ham = sc.running_cost.L(xs, w) + (sc.drift.b(xs) + w) * sol.grad_inf + F
    residual = sol.eta + 0.5 * sig2 * hess + ham
    assert np.max(np.abs(residual[inner])) < 5e-3
    # the invariant density is an exact zero-flux state of the forward scheme
    from mfglab.control import solve_fokker_planck
    flow = solve_fokker_planck(sc.grid, 0.1, sc.diffusion,
                               lambda t, x: sc.drift.b(x)
                               + policy(sc.running_cost, x,
                                        np.interp(x, xs, sol.grad_inf)),
                               sol.mu_inf)
    assert np.max(np.abs(flow.densities[-1] - sol.mu_inf)) < 1e-9


def test_gradient_plateau_invariant(lq_mean_quick):
    # terminal data within twice the steady seminorm keeps every slice there
    sc = lq_mean_quick
    rep = check_smallness(sc)
    flow, value, trace, _ = solve_mfg(sc, tol=1e-7, smallness=rep)
    cap = 2.0 * rep.C_x_psi
    sup_grad = float(np.max(np.abs(value.grad)))
    assert sup_grad <= cap * (1.0 + 1e-6), (sup_grad, cap)


def test_low_regime_ergodic_and_constants():
    from test_model import low_regime_scenario
    sc = low_regime_scenario()
    rep = check_smallness(sc)
    sol = solve_ergodic_mfg(sc, tol=1e-8, inner_tol=1e-9, smallness=rep,
                            mu_init=GaussianLaw(1.0, 0.4).density(sc.grid.xs))
    assert sol.fnorm_ok          # seminorm within 4x the steady budget
    assert sol.fnorm_bound == 4.0 * rep.C_x_psi
    xs = sol.xs
    assert np.trapezoid(xs ** 2 * sol.mu_inf, xs) == pytest.approx(1.0,
                                                                   abs=5e-3)
    tc = turnpike_constants(sc, rep, np.zeros_like(xs), sol.phi_inf)
    assert tc.lam == pytest.approx(0.5 * rep.tm_bar.lam)
    # the incoming branch of the envelope carries the kernel prefactor
    b_early = tc.flow_bound(0.05, sc.T, 1.0)
    b_mid = tc.flow_bound(2.0, sc.T, 1.0)
    assert b_early > b_mid > 0.0
