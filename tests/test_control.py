from dataclasses import replace

import numpy as np
import pytest

from mfglab.control import (hessian_ledger, lipschitz_ledger, optimal_flow,
                            pontryagin_residual, solve_fokker_planck,
                            solve_hjb, stability_ledger,
                            stationary_density_cc)
from mfglab import model
from mfglab.errors import CertificationError, ConfigError, NumericalError
from mfglab.metrics import build_twisted_metric
from mfglab.model import (GaussianLaw, Grid1D, Scenario, constant_diffusion,
                          linear_drift, load_scenario, no_interaction,
                          quadratic_cost, quadratic_terminal,
                          varying_diffusion, zero_terminal)


def riccati_rk4(beta, q, gx, T, dt=1e-5, sigma_sq=2.0):
    """Backward Riccati/offset oracle: P' = P^2 + 2 beta P - q, P(T) = gx."""
    n = int(round(T / dt))
    P = np.empty(n + 1)
    c = np.empty(n + 1)
    P[n], c[n] = gx, 0.0

    def f(p):
        return p * p + 2.0 * beta * p - q

    for k in range(n, 0, -1):
        p = P[k]
        k1 = f(p)
        k2 = f(p - 0.5 * dt * k1)
        k3 = f(p - 0.5 * dt * k2)
        k4 = f(p - dt * k3)
        P[k - 1] = p - dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c[k - 1] = c[k] + dt * 0.5 * sigma_sq * 0.5 * (P[k] + P[k - 1])
    return P, c


@pytest.fixture(scope="module")
def lq():
    return load_scenario("lq")   # beta=1, q=3, gx=1, T=1, dx=0.01, dt=1e-4


@pytest.fixture(scope="module")
def lq_value(lq):
    xs = lq.grid.xs
    g = lq.terminal_cost.G(None, xs)
    return solve_hjb(lq.grid, lq.T, lq.diffusion, lq.drift.b,
                     lq.running_cost, g)


def test_hjb_matches_riccati(lq, lq_value):
    # stationary Riccati point: P = 1, c_t = T - t
    P, c = riccati_rk4(1.0, 3.0, 1.0, lq.T)
    xs = lq_value.xs
    inner = np.abs(xs) <= 4.0   # outside is the extrapolation boundary layer
    worst = 0.0
    for i, t in enumerate(lq_value.times):
        k = int(round(t / 1e-5))
        exact = 0.5 * P[k] * xs ** 2 + c[k]
        worst = max(worst, float(np.max(np.abs(lq_value.phi[i] - exact)[inner])))
    assert worst <= 5e-3
    assert abs(P[0] - 1.0) < 1e-9  # the oracle sits at the stationary point


def test_hjb_zero_cases():
    grid = Grid1D(-6.0, 6.0, 241, 1e-3)
    diff = constant_diffusion(np.sqrt(2.0))
    cost = quadratic_cost(rho_uu=1.0, C_x_L=0.0)
    vf = solve_hjb(grid, 1.0, diff, lambda x: -x, cost, np.zeros(241))
    assert np.max(np.abs(vf.phi)) < 1e-12
    # zero horizon returns the terminal slice
    g = 0.3 * np.tanh(grid.xs)
    vf0 = solve_hjb(grid, 0.0, diff, lambda x: -x, cost, g)
    assert np.array_equal(vf0.phi[0], g)
    assert vf0.times[0] == 0.0


def test_hjb_rejects_incommensurate_horizon():
    grid = Grid1D(-6.0, 6.0, 241, 1e-3)
    diff = constant_diffusion(np.sqrt(2.0))
    cost = quadratic_cost(rho_uu=1.0, C_x_L=0.0)
    with pytest.raises(NumericalError, match="not a multiple of dt"):
        solve_hjb(grid, 1.0 + 1e-4 * 0.5, diff, lambda x: -x, cost,
                  np.zeros(241))


def test_hjb_guards_report_the_step_time():
    diff = constant_diffusion(np.sqrt(2.0))
    cost = quadratic_cost(rho_uu=1.0, C_x_L=0.0)
    # |b| dt / dx = 5 at the box edge: past the explicit advection guard
    coarse = Grid1D(-5.0, 5.0, 101, 0.1)
    with pytest.raises(NumericalError, match=r"CFL guard at t=1\b"):
        solve_hjb(coarse, 1.0, diff, lambda x: -x, cost, np.zeros(101))
    # flat terminal values of 1e13 trip the overflow guard on the first step
    grid = Grid1D(-6.0, 6.0, 241, 1e-3)
    with pytest.raises(NumericalError, match=r"tripped at t=0\.999\b"):
        solve_hjb(grid, 1.0, diff, lambda x: -x, cost, np.full(241, 1e13))


@pytest.fixture(scope="module")
def fp_grid():
    return Grid1D(-8.0, 8.0, 1601, 1e-3)


def test_fp_discrete_stationary_is_fixed(fp_grid):
    diff = constant_diffusion(np.sqrt(2.0))
    m0 = stationary_density_cc(fp_grid, diff, lambda x: -x)
    flow = solve_fokker_planck(fp_grid, 1.0, diff, lambda t, x: -x, m0)
    assert np.max(np.abs(flow.densities[-1] - flow.densities[0])) < 1e-9


def test_fp_gaussian_near_stationary(fp_grid):
    diff = constant_diffusion(np.sqrt(2.0))
    law = GaussianLaw(0.0, 1.0)
    flow = solve_fokker_planck(fp_grid, 1.0, diff, lambda t, x: -x,
                               law.density(fp_grid.xs))
    assert np.max(np.abs(flow.densities[-1] - flow.densities[0])) < 1e-5


def test_fp_spike_variance_matches_ou(fp_grid):
    diff = constant_diffusion(np.sqrt(2.0))
    v0 = 1e-4
    law = GaussianLaw(0.0, v0)
    flow = solve_fokker_planck(fp_grid, 2.0, diff, lambda t, x: -x,
                               law.density(fp_grid.xs))
    m = flow.mean()
    var = np.trapezoid((flow.xs[None, :] - m[:, None]) ** 2 * flow.densities,
                       flow.xs, axis=1)
    exact = 1.0 + (v0 - 1.0) * np.exp(-2.0 * flow.times)
    assert np.max(np.abs(var - exact)) < 1e-3


def test_fp_mass_conservation_pure_diffusion(fp_grid):
    diff = constant_diffusion(np.sqrt(2.0))
    law = GaussianLaw(1.0, 0.25)
    flow = solve_fokker_planck(fp_grid, 1.0, diff,
                               lambda t, x: np.zeros_like(x),
                               law.density(fp_grid.xs))
    dx = fp_grid.dx
    masses = np.sum(flow.densities, axis=1) * dx
    assert np.max(np.abs(masses - 1.0)) < 1e-9
    assert np.min(flow.densities) >= 0.0


def test_optimal_flow_lq_mean():
    sc = load_scenario("lq", {"horizon": 1.0, "grid.n_x": 501,
                              "grid.dt": 1e-3})
    xs = sc.grid.xs
    g = sc.terminal_cost.G(None, xs)
    vf = solve_hjb(sc.grid, sc.T, sc.diffusion, sc.drift.b, sc.running_cost, g)
    m0 = GaussianLaw(1.0, 0.25)
    flow = optimal_flow(vf, sc, m0.density(xs))
    # controlled drift is -(beta + P) x with P = 1: mean decays at rate 2
    exact = 1.0 * np.exp(-2.0 * flow.times)
    assert np.max(np.abs(flow.mean() - exact)) < 1e-3


def test_optimal_flow_zero_control_is_uncontrolled():
    sc = load_scenario("ou")
    grid = Grid1D(-6.0, 6.0, 601, 1e-3)
    sc = Scenario(name="ou0", drift=sc.drift, diffusion=sc.diffusion,
                  running_cost=sc.running_cost, interaction=sc.interaction,
                  terminal_cost=sc.terminal_cost, mu0=sc.mu0, T=1.0,
                  regime="high", grid=grid)
    xs = grid.xs
    vf = solve_hjb(grid, 1.0, sc.diffusion, sc.drift.b, sc.running_cost,
                   np.zeros_like(xs))
    law = GaussianLaw(0.5, 0.5)
    controlled = optimal_flow(vf, sc, law.density(xs))
    plain = solve_fokker_planck(grid, 1.0, sc.diffusion, lambda t, x: -x,
                                law.density(xs))
    assert np.max(np.abs(controlled.densities[-1] - plain.densities[-1])) < 1e-12


@pytest.fixture(scope="module")
def tm_b_unit():
    return build_twisted_metric(constant_profile_one(), 1.0)


def constant_profile_one():
    from mfglab.profiles import constant_profile
    return constant_profile(1.0, r_max=30.0)


def test_lipschitz_ledger_lq(lq, lq_value, tm_b_unit):
    led = lipschitz_ledger(lq_value, lq, tm_b_unit)
    assert led.passes, led.rows()
    control = led.extras["control"]
    assert control.passes
    # the terminal row compares the terminal seminorm against itself + slack
    assert led.measured[-1] <= led.theoretical[-1] * (1.0 + 1e-9)


def test_lipschitz_ledger_zero_cost_constant_value(tm_b_unit):
    grid = Grid1D(-6.0, 6.0, 301, 1e-3)
    diff = constant_diffusion(np.sqrt(2.0))
    cost = quadratic_cost(rho_uu=1.0, C_x_L=0.0)
    sc = Scenario(name="flat", drift=linear_drift(1.0), diffusion=diff,
                  running_cost=cost, interaction=no_interaction(),
                  terminal_cost=zero_terminal(), mu0=GaussianLaw(0.0, 1.0),
                  T=1.0, regime="high", grid=grid)
    vf = solve_hjb(grid, 1.0, diff, sc.drift.b, cost, np.zeros(301))
    led = lipschitz_ledger(vf, sc, tm_b_unit)
    assert led.passes
    assert np.max(led.theoretical) == 0.0
    assert np.max(led.measured) == 0.0


def test_hessian_ledger_small_cost_nonvacuous(tm_b_unit):
    # small state cost keeps the shifted profile healthy: finite window
    sc = load_scenario("lq", {"running_cost.q": 0.02, "terminal_cost.gx": 0.0,
                              "horizon": 4.0, "grid.n_x": 501,
                              "grid.dt": 5e-4})
    xs = sc.grid.xs
    vf = solve_hjb(sc.grid, sc.T, sc.diffusion, sc.drift.b, sc.running_cost,
                   np.zeros_like(xs))
    led = hessian_ledger(vf, sc, tm_b_unit)
    assert np.any(led.window), "expected a non-vacuous assertion window"
    assert led.passes, led.rows()
    # Riccati hessian: root of P^2 + 2P = q
    p_exact = -1.0 + np.sqrt(1.0 + 0.02)
    assert led.measured[0] == pytest.approx(p_exact, abs=2e-3)


def test_hessian_ledger_propagates_certification_failure(tm_b_unit,
                                                         monkeypatch):
    # a failed certification of the shifted metric must surface, not turn
    # into an empty window that passes vacuously
    sc = load_scenario("lq", {"running_cost.q": 0.02, "terminal_cost.gx": 0.0,
                              "grid.n_x": 201, "grid.dt": 1e-3})
    vf = solve_hjb(sc.grid, sc.T, sc.diffusion, sc.drift.b, sc.running_cost,
                   np.zeros_like(sc.grid.xs))
    assert np.any(hessian_ledger(vf, sc, tm_b_unit).window)

    def fail(profile, sigma_check):
        raise CertificationError(f"profile {profile.name!r} not certified")

    monkeypatch.setattr(model, "_build_extending", fail)
    with pytest.raises(CertificationError, match="hessbar"):
        hessian_ledger(vf, sc, tm_b_unit)


def test_hessian_ledger_rejects_what_it_cannot_bound(lq, lq_value, tm_b_unit):
    # the bound holds for a constant diffusion and declared C_x_b, C_xx_G
    varying = replace(lq, diffusion=varying_diffusion(
        lambda x: 1.5 + 0.2 * np.tanh(x), 1.0, 1.2, 0.2))
    with pytest.raises(ConfigError, match="constant diffusion"):
        hessian_ledger(lq_value, varying, tm_b_unit)
    undeclared = replace(lq, terminal_cost=replace(lq.terminal_cost,
                                                   C_xx_G=None))
    with pytest.raises(ConfigError, match="C_xx_G"):
        hessian_ledger(lq_value, undeclared, tm_b_unit)


def test_hessian_ledger_lq_vacuous_window(lq, lq_value, tm_b_unit):
    # the box-sized cost constants collapse the shifted rate: empty window
    led = hessian_ledger(lq_value, lq, tm_b_unit)
    assert led.passes
    assert led.measured[0] == pytest.approx(1.0, abs=5e-3)


def test_stability_ledger_state_perturbation(tm_b_unit):
    # perturbed running cost l + eps sin(x), shared drift (A13-type data)
    eps = 0.1
    grid = Grid1D(-6.0, 6.0, 601, 1e-3)
    diff = constant_diffusion(np.sqrt(2.0))
    cost = quadratic_cost(rho_uu=1.0, C_x_L=0.0)
    sc = Scenario(name="stab", drift=linear_drift(1.0), diffusion=diff,
                  running_cost=cost, interaction=no_interaction(),
                  terminal_cost=zero_terminal(), mu0=GaussianLaw(0.0, 1.0),
                  T=4.0, regime="high", grid=grid)
    xs = grid.xs
    base = solve_hjb(grid, sc.T, diff, sc.drift.b, cost, np.zeros_like(xs))
    pert = solve_hjb(grid, sc.T, diff, sc.drift.b, cost, np.zeros_like(xs),
                     source=lambda t, x: eps * np.sin(x))
    from mfglab.profiles import shift_profile
    from mfglab.model import _build_extending
    # shifted profile from the certified control bounds of both problems
    c_u = (eps / (0.5 * 0.5)) / 1.0
    ktilde = shift_profile(sc.drift.profile, c_u, "grad")
    _, tm_tilde = _build_extending(ktilde, diff.sigma0)
    law = GaussianLaw(0.5, 0.5)
    flow = optimal_flow(base, sc, law.density(xs))
    flow_hat = optimal_flow(pert, sc, law.density(xs))
    led = stability_ledger(base, pert, sc, tm_tilde,
                           {"C_x_delta_l": eps, "C_x_delta_g": 0.0},
                           flow=flow, flow_hat=flow_hat)
    assert led.passes, led.rows()
    lam, C = tm_tilde.lam, tm_tilde.C
    expect = eps / (C * lam) * (1.0 - np.exp(-lam * sc.T))
    assert led.theoretical[0] == pytest.approx(expect, rel=1e-9)
    assert led.extras["measured_lip"][0] <= expect
    assert led.extras["flow_wf"].passes
    assert led.extras["flow_tv"].passes


def test_stability_ledger_identical_problems(tm_b_unit):
    grid = Grid1D(-6.0, 6.0, 301, 1e-3)
    diff = constant_diffusion(np.sqrt(2.0))
    cost = quadratic_cost(rho_uu=1.0, C_x_L=0.0)
    sc = Scenario(name="same", drift=linear_drift(1.0), diffusion=diff,
                  running_cost=cost, interaction=no_interaction(),
                  terminal_cost=zero_terminal(), mu0=GaussianLaw(0.0, 1.0),
                  T=1.0, regime="high", grid=grid)
    vf = solve_hjb(grid, 1.0, diff, sc.drift.b, cost, np.zeros(301))
    led = stability_ledger(vf, vf, sc, tm_b_unit, {"C_x_delta_l": 0.0})
    assert led.passes
    assert np.max(led.measured) == 0.0


def test_stability_ledger_needs_state_cost_gap(tm_b_unit):
    grid = Grid1D(-6.0, 6.0, 101, 1e-2)
    diff = constant_diffusion(np.sqrt(2.0))
    cost = quadratic_cost(rho_uu=1.0, C_x_L=0.0)
    sc = Scenario(name="same", drift=linear_drift(1.0), diffusion=diff,
                  running_cost=cost, interaction=no_interaction(),
                  terminal_cost=zero_terminal(), mu0=GaussianLaw(0.0, 1.0),
                  T=0.1, regime="high", grid=grid)
    vf = solve_hjb(grid, sc.T, diff, sc.drift.b, cost, np.zeros(101))
    with pytest.raises(ConfigError, match="C_x_delta_l"):
        stability_ledger(vf, vf, sc, tm_b_unit, {"C_delta_l": 0.1})


def test_pontryagin_residual_lq_transient():
    # away from the stationary Riccati point the residual scales with the step
    sc = load_scenario("lq", {"terminal_cost.gx": 0.0, "grid.n_x": 501,
                              "grid.dt": 2e-4})
    xs = sc.grid.xs
    vf = solve_hjb(sc.grid, sc.T, sc.diffusion, sc.drift.b, sc.running_cost,
                   np.zeros_like(xs))
    out = pontryagin_residual(vf, sc, n_paths=1500, deltas=(0.02, 0.01, 0.005))
    for r in out["ratios"]:
        assert 1.5 <= r <= 3.0, out


def test_pontryagin_residual_lq_stationary_exact(lq, lq_value):
    # at the stationary point the costate is linear and the recursion closes
    # to roundoff (the constant diffusion also kills the trace term)
    out = pontryagin_residual(lq_value, lq, n_paths=500, deltas=(0.01,))
    assert out["rms"][0.01] < 1e-9


def test_pontryagin_zero_problem():
    grid = Grid1D(-6.0, 6.0, 301, 1e-3)
    diff = constant_diffusion(np.sqrt(2.0))
    cost = quadratic_cost(rho_uu=1.0, C_x_L=0.0)
    sc = Scenario(name="triv", drift=linear_drift(1.0), diffusion=diff,
                  running_cost=cost, interaction=no_interaction(),
                  terminal_cost=zero_terminal(), mu0=GaussianLaw(0.0, 1.0),
                  T=1.0, regime="high", grid=grid)
    vf = solve_hjb(grid, 1.0, diff, sc.drift.b, cost, np.zeros(301))
    out = pontryagin_residual(vf, sc, n_paths=200, deltas=(0.01,))
    assert out["rms"][0.01] < 1e-12


def test_box_doubling_audit():
    from mfglab.control import box_doubling_check
    sc = load_scenario("lq", {"running_cost.q": 0.1, "terminal_cost.gx": 0.1,
                              "grid.n_x": 501, "grid.dt": 5e-4})
    out = box_doubling_check(sc, lambda xs: 0.05 * xs ** 2)
    assert out["pass"], out
