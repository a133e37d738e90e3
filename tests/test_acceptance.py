"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one verdict line (run with -s to stream them).  Criterion
11 is implemented verbatim and marked strict-xfail: its pinned interaction
strength provably violates the certified strength condition for the
double-well drift (threshold ~2e-10 vs required ~4e-2), so no certified
rate exists; the calibrated companion (criterion 11b) runs the identical
pipeline and assertions at an interaction strength that passes.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mfglab.control import (pontryagin_residual, solve_fokker_planck,
                            solve_hjb, hessian_ledger, lipschitz_ledger,
                            optimal_flow, stability_ledger,
                            stationary_density_cc)
from mfglab.couplings import (CouplingConfig, moment_diagnostic,
                              simulate_coupling)
from mfglab.distances import f_norm, lip_norm, w1_grid
from mfglab.metrics import (build_quadratic_metric, build_twisted_metric,
                            check_differential_inequality,
                            lemma_kernel_integrals, q_kernel)
from mfglab.model import (GaussianLaw, Grid1D, Scenario, check_smallness,
                          constant_diffusion, linear_drift, load_scenario,
                          no_interaction, policy, quadratic_cost,
                          scenario_path, sigma_bar, zero_terminal)
from mfglab.mfg import (frozen_ergodic, solve_ergodic_mfg, solve_mfg,
                        turnpike_report)
from mfglab.profiles import constant_profile, double_well_profile, \
    shift_profile


def verdict(num, ok, desc):
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def tm_ou():
    return build_twisted_metric(constant_profile(1.0, r_max=30.0), 1.0)


@pytest.fixture(scope="module")
def ou_diff():
    return constant_diffusion(np.sqrt(2.0))


_MC_FIELDS = {"mean_f": ("bound_f", "se_f"), "p_neq": ("bound_p", "se_p"),
              "mean_f2": ("bound_f2", "se_f2")}


def mc_margins(stats, names):
    """Each estimator's smallest (bound - mean) / se over the output times
    with se > 0, as 'margin name m se, ...'."""
    parts = []
    for name in names:
        mean = getattr(stats, name)
        bound, se = (getattr(stats, a) for a in _MC_FIELDS[name])
        live = se > 0
        m = (np.min((bound[live] - mean[live]) / se[live]) if np.any(live)
             else np.inf)
        parts.append(f"{name} {m:.4g} se")
    return "margin " + ", ".join(parts)


def pair_init(r0):
    def init(n, rng):
        return np.full(n, 0.5 * r0), np.full(n, -0.5 * r0)
    return init


def test_criterion_01_rates_closed_form():
    t0 = time.perf_counter()
    tm = build_twisted_metric(constant_profile(2.0, r_max=20.0), 1.0)
    elapsed = time.perf_counter() - t0
    ok = (abs(tm.R0) <= 1e-8 and abs(tm.R1 - np.sqrt(2.0)) <= 1e-8
          and abs(tm.Z - 1.0) <= 1e-8 and abs(tm.lam - 1.0) <= 1e-8
          and abs(tm.C - 0.5) <= 1e-8
          and abs(tm.f(1.0) - (1.0 - 1.0 / 12.0)) <= 1e-8
          and elapsed < 1.0)
    verdict(1, ok, f"constant-profile closed form, {elapsed * 1e3:.0f} ms")


def test_criterion_02_differential_inequality():
    rng = np.random.default_rng(2)
    worst = 0.0
    for prof in (constant_profile(2.0, r_max=20.0),
                 shift_profile(constant_profile(2.0, r_max=20.0), 0.5),
                 double_well_profile(r_max=20.0)):
        tm = build_twisted_metric(prof, 1.0)
        rr = rng.uniform(1e-3, 19.5, 1000)
        rr = rr[np.abs(rr - tm.R1) >= 1e-3]
        _, residuals, allowance = check_differential_inequality(tm, rr)
        worst = max(worst, float(np.max(residuals / allowance)))
    verdict(2, worst <= 1.0,
            f"certified decay inequality, worst residual ratio {worst:.2e}")


def test_criterion_03_sandwich_and_monotonicity():
    rng = np.random.default_rng(3)
    base = constant_profile(2.0, r_max=20.0)
    violations = 0
    for prof in (base, double_well_profile(r_max=20.0)):
        tm = build_twisted_metric(prof, 1.0)
        rr = rng.uniform(1e-4, 19.9, 10_000)
        f, fp = tm.f(rr), tm.fprime(rr)
        violations += int(np.sum(f > rr * (1 + 1e-9) + 1e-12))
        violations += int(np.sum(f < tm.C * rr * (1 - 1e-9) - 1e-12))
        violations += int(np.sum(fp > 1 + 1e-9))
        violations += int(np.sum(fp < tm.C * (1 - 1e-9)))
    tms = [build_twisted_metric(shift_profile(base, c), 1.0)
           for c in np.linspace(0.0, 0.9, 10)]
    lams = np.array([t.lam for t in tms])
    Cs = np.array([t.C for t in tms])
    violations += int(np.sum(np.diff(lams) > 1e-12))
    violations += int(np.sum(np.diff(Cs) > 1e-12))
    verdict(3, violations == 0,
            f"sandwich at 1e4 radii + ordered rates, {violations} violations")


def test_criterion_04_reflection_contraction(tm_ou, ou_diff):
    t0 = time.perf_counter()
    cfg = CouplingConfig(kind="reflection", dt=1e-3, n_paths=100_000,
                         t_grid=(1.0, 2.0, 4.0), beta=lambda t, x: -x,
                         master_seed=20240901, n_threads=4)
    stats = simulate_coupling(cfg, ou_diff, pair_init(1.0), tm=tm_ou)
    elapsed = time.perf_counter() - t0
    ok_f = bool(np.all(stats.mean_f <= stats.bound_f + 3 * stats.se_f))
    ok_p = bool(np.all(stats.p_neq <= stats.bound_p + 3 * stats.se_p))
    verdict(4, ok_f and ok_p and elapsed < 60.0,
            f"mirror-coupling contraction and coalescence, "
            f"{mc_margins(stats, ('mean_f', 'p_neq'))}, {elapsed:.0f} s")


def test_criterion_05_interpolated_coupling(ou_diff):
    tm_half = build_twisted_metric(constant_profile(1.0, r_max=30.0),
                                   1.0 / np.sqrt(2.0))
    qtm = build_quadratic_metric(tm_half, 1.0, kappa_plus=1.0, R1_choice=1.0)
    cfg = CouplingConfig(kind="interpolated", dt=1e-3, n_paths=100_000,
                         t_grid=(1.0, 2.0, 4.0), beta=lambda t, x: -x,
                         master_seed=20240901, n_threads=4)
    stats = simulate_coupling(cfg, ou_diff, pair_init(1.0), tm=tm_half,
                              tm2=qtm)
    ok = (bool(np.all(stats.mean_f <= stats.bound_f + 3 * stats.se_f))
          and bool(np.all(stats.p_neq <= stats.bound_p + 3 * stats.se_p))
          and bool(np.all(stats.mean_f2 <= stats.bound_f2
                          + 3 * stats.se_f2)))
    verdict(5, ok, f"partial-mirror coupling with quadratic cost, "
            f"lam2={qtm.lambda2:.3f}, "
            f"{mc_margins(stats, ('mean_f', 'p_neq', 'mean_f2'))}")


@pytest.mark.slow
def test_criterion_06_drift_gap(tm_ou, ou_diff):
    c = 0.2
    lam = tm_ou.lam
    cfg = CouplingConfig(kind="approx_delta", dt=1e-3, n_paths=100_000,
                         t_grid=(1.0, 2.0, 4.0), beta=lambda t, x: -x,
                         beta_hat=lambda t, x: -x + c, delta=1e-2,
                         master_seed=20240901, n_threads=4)
    stats = simulate_coupling(cfg, ou_diff, pair_init(1.0), tm=tm_ou)
    bound = (np.exp(-lam * stats.t_grid) * stats.mean_f0
             + c * (1.0 - np.exp(-lam * stats.t_grid)) / lam)
    ok_bound = bool(np.all(stats.mean_f <= bound + 3 * stats.se_f
                           + 10.0 * cfg.delta))
    means = {}
    for delta in (1e-2, 1e-3, 1e-4):
        cfg_d = CouplingConfig(kind="approx_delta", dt=5e-5, n_paths=10_000,
                               t_grid=(1.0,), beta=lambda t, x: -x,
                               beta_hat=lambda t, x: -x + c, delta=delta,
                               master_seed=29, n_threads=4)
        means[delta] = float(simulate_coupling(cfg_d, ou_diff, pair_init(1.0),
                                               tm=tm_ou).mean_f[0])
    gap_big = abs(means[1e-2] - means[1e-3])
    gap_small = abs(means[1e-3] - means[1e-4])
    ok_gap = gap_big >= 5.0 * gap_small
    verdict(6, ok_bound and ok_gap,
            f"drift-gap contraction offset; band-width gap ratio "
            f"{gap_big / max(gap_small, 1e-300):.1f}")


@pytest.fixture(scope="module")
def lq_solved():
    sc = load_scenario("lq")  # beta=1, q=3, gx=1, dx=0.01, dt=1e-4, box [-5,5]
    xs = sc.grid.xs
    g = sc.terminal_cost.G(None, xs)
    value = solve_hjb(sc.grid, sc.T, sc.diffusion, sc.drift.b,
                      sc.running_cost, g)
    return sc, value


def test_criterion_07_hjb_oracle_and_ledgers(lq_solved, tm_ou):
    sc, value = lq_solved
    xs = value.xs
    inner = np.abs(xs) <= 4.0
    # independent fourth-order integration of the quadratic-coefficient flow
    from test_control import riccati_rk4
    P, c = riccati_rk4(1.0, 3.0, 1.0, sc.T)
    worst = 0.0
    for i, t in enumerate(value.times):
        k = int(round(t / 1e-5))
        exact = 0.5 * P[k] * xs ** 2 + c[k]
        worst = max(worst, float(np.max(np.abs(value.phi[i] - exact)[inner])))
    led = lipschitz_ledger(value, sc, tm_ou)
    hled = hessian_ledger(value, sc, tm_ou)
    ok = (worst <= 5e-3 and led.passes and led.extras["control"].passes
          and hled.passes)
    n_hess_window = int(np.sum(hled.window))
    verdict(7, ok, f"quadratic oracle sup-error {worst:.2e}; value/control "
            f"ledgers pass; hessian ledger window has {n_hess_window} rows")


def test_criterion_08_stability(tm_ou):
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
    from mfglab.model import _build_extending
    c_u = eps / (0.5 * 0.5)   # certified level of the perturbed control
    ktilde = shift_profile(sc.drift.profile, c_u, "grad")
    _, tm_tilde = _build_extending(ktilde, diff.sigma0)
    led = stability_ledger(base, pert, sc, tm_tilde,
                           {"C_x_delta_l": eps, "C_x_delta_g": 0.0})
    lam, C = tm_tilde.lam, tm_tilde.C
    expect = eps / (C * lam) * (1.0 - np.exp(-lam * (sc.T - led.times)))
    lips = led.extras["measured_lip"]
    ok_led = bool(np.all(lips <= expect + 1e-12))

    # control-gap budget under a control-coupled perturbation, 1e3 probes
    from mfglab.model import RunningCostSpec, policy_gap_bound
    pert_cost = RunningCostSpec(
        L=lambda x, u: 0.5 * u ** 2 + eps * u * np.tanh(x),
        dLu=lambda x, u: u + eps * np.tanh(x), rho_uu=1.0,
        closed_form=lambda x, p: -(p + eps * np.tanh(x)), C_u_L0=eps)
    rng = np.random.default_rng(8)
    gap = policy_gap_bound(cost, pert_cost, rng.uniform(-4, 4, 1000),
                           rng.uniform(-5, 5, 1000), C_u_delta_l=eps)
    verdict(8, ok_led and gap["pass"],
            f"perturbation ledger and policy-gap budget "
            f"(max gap {np.max(gap['gap']):.3f} <= {gap['bound']:.3f})")


def test_criterion_09_frozen_ergodic():
    sc = load_scenario("lq", {"grid.dt": 2.5e-4})
    sol = frozen_ergodic(sc, None, tol=1e-13, max_iters=24)
    xs = sol.xs
    inner = np.abs(xs) <= 4.0
    var = np.trapezoid(xs ** 2 * sol.mu_inf, xs) \
        - np.trapezoid(xs * sol.mu_inf, xs) ** 2
    rep = check_smallness(sc)
    cap = np.exp(-rep.tm_bar.lam) * 1.1
    factors = sol.contraction_factors[:9]
    geo = float(np.exp(np.mean(np.log(factors))))
    ok = (abs(sol.eta + 1.0) <= 1e-3
          and np.max(np.abs(sol.phi_inf - 0.5 * xs ** 2)[inner]) <= 5e-3
          and abs(var - 0.5) <= 1e-3
          and len(sol.contraction_factors) + 1 >= 8
          and geo <= cap)
    verdict(9, ok, f"ergodic level {sol.eta:.5f}, variance {var:.5f}, "
            f"map factor {geo:.3f} <= {cap:.3f} over "
            f"{len(sol.contraction_factors) + 1} iterates")


def test_criterion_10_full_mfg_oracle():
    sc = load_scenario("lq_mean")   # beta=3, c=0.1, dx=0.01, dt=1e-3
    rep = check_smallness(sc)
    assert rep.passes, "calibrated scenario must satisfy the strength bound"
    flow, value, trace, _ = solve_mfg(sc, tol=1e-7, smallness=rep)
    from test_mfg import shoot_mean_traj
    ts, m_oracle, _ = shoot_mean_traj(3.0, 0.1, 0.8, sc.T)
    m_solver = np.interp(ts, flow.times, flow.mean())
    sup_err = float(np.max(np.abs(m_solver - m_oracle)))
    eps = rep.epsilon(0.9 * rep.lambda_star)
    factors = [e["contraction_factor"] for e in trace
               if "contraction_factor" in e]
    ok = (sup_err <= 1e-3 and len(trace) <= 30
          and (not factors or min(factors) <= eps * 1.2))
    verdict(10, ok, f"mean-field fixed point: mean error {sup_err:.2e}, "
            f"{len(trace)} sweeps, factor "
            f"{min(factors) if factors else float('nan'):.3f} "
            f"<= {eps * 1.2:.3f}")


@pytest.mark.xfail(strict=True,
                   reason="pinned interaction strength 0.05 exceeds the "
                          "certified budget for the double-well drift by ~8 "
                          "orders of magnitude, as the test prints; no "
                          "certified rate exists, so the envelope and rate "
                          "assertions cannot be evaluated as stated")
def test_criterion_11_turnpike_verbatim():
    sc = load_scenario("double_well")     # c=0.05, T=20
    rep = check_smallness(sc)
    print(f"[criterion  11] strength value {rep.condition_value:.3e} vs "
          f"threshold {rep.threshold:.3e} (margin {rep.margin:.2e}); "
          f"lambda_star = {rep.lambda_star}")
    assert rep.lambda_star > 0.0, (
        "no rate satisfies the contraction requirement: the envelope "
        "constants of the pinned scenario are undefined")


@pytest.mark.slow
def test_criterion_11b_turnpike_calibrated():
    t0 = time.perf_counter()
    sc = load_scenario("double_well_small")   # c=0.001, T=20
    rep = check_smallness(sc)
    assert rep.passes
    sol = solve_ergodic_mfg(sc, smallness=rep)
    flow, value, trace, _ = solve_mfg(sc, tol=1e-6, smallness=rep)
    report = turnpike_report(sc, flow, value, sol, rep)
    elapsed = time.perf_counter() - t0
    v = report.verdicts
    d_flow = report.flow.measured
    i10 = int(np.argmin(np.abs(report.flow.times - 10.0)))
    plateau10 = d_flow[i10] / d_flow[0]
    half_star = 0.5 * rep.lambda_star
    rates_ok = ((v["lam_in"] is None or v["lam_in"] >= half_star)
                and (v["lam_out"] is None or v["lam_out"] >= half_star))
    ok = (v["flow_bound"] and plateau10 <= 0.05 and rates_ok
          and elapsed < 600.0)
    verdict("11b", ok,
            f"double-well envelope holds; d(10)/d(0)={plateau10:.3e}, "
            f"lam_in={v['lam_in']}, lam_out={v['lam_out']}, "
            f"lam*={rep.lambda_star:.3f}, {elapsed:.0f} s")


def test_criterion_12_exact_fixed_point():
    sc = load_scenario("lq_mean")
    rep = check_smallness(sc)
    sol = solve_ergodic_mfg(sc, tol=1e-10, inner_tol=1e-11, smallness=rep)
    flow, value, trace, _ = solve_mfg(sc, tol=1e-9, smallness=rep,
                                      mu0_density=sol.mu_inf,
                                      terminal_values=sol.phi_inf,
                                      track_contraction=False)
    report = turnpike_report(sc, flow, value, sol, rep)
    dmax = max(float(np.max(report.flow.measured)),
               float(np.max(report.value.measured)))
    verdict(12, dmax <= 1e-4,
            f"distances at the exact fixed point stay at {dmax:.2e}")


def test_criterion_13_appendix_properties(ou_diff):
    rng = np.random.default_rng(13)
    # reduced-factor matrix Lipschitz bound on random SPD pairs
    diff2 = constant_diffusion(np.sqrt(2.0))
    lo, hi = 2.0 * diff2.sigma0 ** 2 * 1.05, 2.0 * diff2.Sigma ** 2 * 4.0
    Sigma_eff = np.sqrt(hi / 2.0)
    factor = 2.0 * Sigma_eff / diff2.sigma0
    viol_a = 0
    for _ in range(1000):
        q, _r = np.linalg.qr(rng.normal(size=(2, 2)))
        eig = rng.uniform(lo, hi, 2)
        a = (q * eig) @ q.T
        sig = np.linalg.cholesky(a)
        pert = rng.normal(size=(2, 2)) * 0.02
        sig2 = sig + pert
        a2 = sig2 @ sig2.T
        w = np.linalg.eigvalsh(a2)
        if np.min(w) < lo or np.max(w) > hi:
            continue
        gap = np.linalg.norm(sigma_bar(diff2, sig) - sigma_bar(diff2, sig2),
                             "fro")
        if gap > factor * np.linalg.norm(sig - sig2, "fro") * (1 + 1e-9):
            viol_a += 1

    # policy magnitude and costate-Lipschitz budgets on 1e3 probes
    cost = quadratic_cost(rho_uu=1.3, lin_u=0.2)
    xs = rng.uniform(-4, 4, 1000)
    ps = rng.uniform(-6, 6, 1000)
    qs = rng.uniform(-6, 6, 1000)
    w_p, w_q = policy(cost, xs, ps), policy(cost, xs, qs)
    viol_b = int(np.sum(np.abs(w_p) > (cost.C_u_L0 + np.abs(ps))
                        / cost.rho_uu + 1e-12))
    viol_b += int(np.sum(np.abs(w_p - w_q) > np.abs(ps - qs) / cost.rho_uu
                         + 1e-12))

    # moment plateau for confining drifts
    law = GaussianLaw(0.0, 1.0)
    m1 = moment_diagnostic(lambda t, x: -x, ou_diff,
                           lambda n, rng_: law.sample(n, rng_), p=2, T=6.0,
                           n_paths=20_000, master_seed=20240901)
    m2 = moment_diagnostic(lambda t, x: x - x ** 3, ou_diff,
                           lambda n, rng_: np.full(n, 2.0), p=2, T=8.0,
                           n_paths=10_000, master_seed=20240901)

    # weighted kernel integrals stay below their closed forms
    viol_c = 0
    for _ in range(100):
        lam_bar = rng.uniform(0.05, 4.0)
        lam = rng.uniform(0.0, 0.95) * lam_bar
        C = rng.uniform(0.05, 0.5)
        s0 = rng.uniform(0.3, 3.0)
        t = rng.uniform(0.0, 2.0)
        T = t + rng.uniform(0.0, 30.0)
        for mode in ("forward", "backward"):
            out = lemma_kernel_integrals(C, lam_bar, s0, lam, t, T, mode)
            if out["quadrature"] > out["bound"] * (1 + 1e-9):
                viol_c += 1
    ok = (viol_a == 0 and viol_b == 0 and m1["passes"] and m2["passes"]
          and viol_c == 0)
    verdict(13, ok, f"matrix-factor Lipschitz ({viol_a}), policy budgets "
            f"({viol_b}), moment plateaus, kernel integrals ({viol_c})")


@pytest.mark.slow
def test_criterion_14_determinism(tmp_path):
    # 40,000 paths are 3 coupling chunks (16384, 16384, 7232) and the
    # moment stage's 20,000 are 2; at 8 threads the chunks run at once (the
    # reflection run draws its noise inline, as every reflected kind does),
    # so a reduction that followed the order the chunks finish in would
    # show here
    from mfglab.cli import main
    raw = json.loads(scenario_path("ou").read_text())
    raw["mc"].update(n_paths=40_000, t_grid=[0.5, 1.0])
    scenario = tmp_path / "ou_40k.json"
    scenario.write_text(json.dumps(raw))
    for threads in ("1", "8"):
        assert main(["coupling", "--scenario", str(scenario), "--out",
                     str(tmp_path / threads), "--threads", threads]) == 0
    same = [(tmp_path / "1" / "ou-coupling" / name).read_bytes()
            == (tmp_path / "8" / "ou-coupling" / name).read_bytes()
            for name in ("coupling.csv", "summary.json")]
    verdict(14, all(same),
            "coupling CSV and summary bit-identical across 1 vs 8 workers "
            "(3 coupling chunks, 2 moment chunks)")
