import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfglab.control import value_stencil
from mfglab.errors import CertificationError, ConfigError
from mfglab.model import (CATALOG_DIR, GaussianLaw, GridDensity,
                          ParticleCloud, Grid1D, MCConfig, Scenario,
                          check_smallness, constant_diffusion,
                          conv_tanh_interaction, linear_drift,
                          load_scenario, mean_interaction, no_interaction,
                          policy, policy_gap_bound, probe_assumptions,
                          quadratic_cost, sigma_bar, varying_diffusion,
                          zero_terminal)


def test_sigma_bar_constant_isotropic():
    diff = constant_diffusion(np.sqrt(2.0))
    # sigma = sqrt(2) sigma0 => reduced factor equals sigma0
    assert sigma_bar(diff, 0.3) == pytest.approx(diff.sigma0)
    xs = np.linspace(-2, 2, 7)
    assert np.allclose(diff.sigma_bar_scalar(xs), diff.sigma0)


def test_sigma_bar_scalar_formula():
    diff = varying_diffusion(lambda x: np.sqrt(2.0 + np.tanh(x) ** 2),
                             sigma0=1.0, Sigma=np.sqrt(1.5),
                             C_x_sigma=0.5)
    x = 0.7
    s = np.sqrt(2.0 + np.tanh(x) ** 2)
    assert sigma_bar(diff, x) == pytest.approx(np.sqrt(s * s - 1.0))


def test_sigma_bar_matrix_reconstruction():
    rng = np.random.default_rng(4)
    diff = constant_diffusion(np.sqrt(2.0))
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        eig = rng.uniform(2.0 * diff.sigma0 ** 2 * 1.05, 3.5, size=2)
        a = (q * eig) @ q.T
        sig = np.linalg.cholesky(a)
        sb = sigma_bar(diff, sig)
        recon = sb @ sb.T + diff.sigma0 ** 2 * np.eye(2)
        assert np.max(np.abs(recon - a)) < 1e-10


def test_sigma_bar_ellipticity_violation():
    diff = constant_diffusion(np.sqrt(2.0))
    bad = 0.5 * diff.sigma0 * np.eye(2)
    with pytest.raises(ConfigError, match="is not PSD"):
        sigma_bar(diff, bad)


def test_policy_closed_form_and_hamiltonian():
    cost = quadratic_cost(rho_uu=1.0)
    drift = linear_drift(1.0)
    x, p = 0.4, 3.0
    assert policy(cost, x, p) == pytest.approx(-3.0)
    # the solvers' Hamiltonian L(x, w) + (b + w) p, read off the value
    # stencil at phi = p x, whose gradient is p on every node
    xs = np.linspace(-1.0, 1.0, 11)
    grad, w, a, _, _ = value_stencil(p * xs, xs[1] - xs[0], xs, drift.b(xs),
                                     cost, 1.0)
    h = cost.L(xs, w) + a * grad
    np.testing.assert_allclose(h, 0.5 * 9.0 + (-xs - 3.0) * 3.0,
                               rtol=1e-12)


def test_policy_bounds_on_probes():
    # magnitude and costate-Lipschitz estimates hold on random draws
    rng = np.random.default_rng(9)
    cost = quadratic_cost(rho_uu=1.3, lin_u=0.2)
    xs = rng.uniform(-4, 4, 1000)
    ps = rng.uniform(-6, 6, 1000)
    qs = rng.uniform(-6, 6, 1000)
    w = policy(cost, xs, ps)
    assert np.all(np.abs(w) <= (cost.C_u_L0 + np.abs(ps)) / cost.rho_uu + 1e-12)
    wq = policy(cost, xs, qs)
    assert np.all(np.abs(w - wq) <= np.abs(ps - qs) / cost.rho_uu + 1e-12)


def test_policy_gap_identical_and_shift():
    cost = quadratic_cost(rho_uu=1.0)
    same = policy_gap_bound(cost, quadratic_cost(rho_uu=1.0),
                            np.linspace(-2, 2, 11), np.linspace(-2, 2, 11),
                            C_u_delta_l=0.0)
    assert same["pass"] and np.max(same["gap"]) == 0.0

    shifted = quadratic_cost(rho_uu=1.0, lin_u=0.3)  # L + c u: gap = |c|/rho
    rng = np.random.default_rng(1)
    out = policy_gap_bound(cost, shifted, rng.uniform(-3, 3, 200),
                           rng.uniform(-3, 3, 200), C_u_delta_l=0.3)
    assert out["pass"]
    assert np.max(out["gap"]) == pytest.approx(0.3, abs=1e-12)


def test_policy_gap_tanh_perturbation():
    # L_hat = L + eps * u * tanh(x): control-gradient gap eps, bound eps/rho
    eps = 0.05
    base = quadratic_cost(rho_uu=1.0)
    from mfglab.model import RunningCostSpec
    pert = RunningCostSpec(
        L=lambda x, u: 0.5 * u ** 2 + eps * u * np.tanh(x),
        dLu=lambda x, u: u + eps * np.tanh(x), rho_uu=1.0,
        closed_form=lambda x, p: -(p + eps * np.tanh(x)), C_u_L0=eps)
    rng = np.random.default_rng(12)
    out = policy_gap_bound(base, pert, rng.uniform(-3, 3, 1000),
                           rng.uniform(-3, 3, 1000), C_u_delta_l=eps)
    assert out["pass"]


def test_smallness_no_interaction_full_margin():
    rep = check_smallness(load_scenario("ou"))
    assert rep.passes and rep.margin == np.inf
    assert rep.lambda_star == pytest.approx(rep.tm_bar.lam)


def test_smallness_lq_mean_passes():
    sc = load_scenario("lq_mean")
    rep = check_smallness(sc)
    assert rep.passes
    assert rep.margin > 2.0
    assert 0.0 < rep.lambda_star < rep.tm_bar.lam
    # the high-regime root is sqrt(lam_bar^2 - C_xmu_F / (rho C_bar^2))
    lam_bar, C_bar = rep.tm_bar.lam, rep.tm_bar.C
    closed = np.sqrt(lam_bar ** 2 - sc.interaction.C_xmu_F
                     / (sc.running_cost.rho_uu * C_bar ** 2))
    assert abs(rep.lambda_star - closed) <= 1e-6 * max(1.0, closed)
    lam = 0.9 * rep.lambda_star
    assert rep.epsilon(lam) < 1.0
    # root property and monotonicity of the contraction factor curve
    assert rep.epsilon(rep.lambda_star) == pytest.approx(1.0, abs=1e-8)
    lams = np.linspace(0.0, rep.lambda_star, 20)
    vals = [rep.epsilon(l) for l in lams]
    assert np.all(np.diff(vals) > 0.0)


def test_smallness_boundary_is_a_failure():
    sc = load_scenario("lq_mean")
    rep = check_smallness(sc)
    from mfglab.model import InteractionSpec
    boundary = InteractionSpec(kind="mean", value=sc.interaction.value,
                               C_x_F=sc.interaction.C_x_F,
                               C_xmu_F=rep.threshold)
    sc2 = Scenario(name="boundary", drift=sc.drift, diffusion=sc.diffusion,
                   running_cost=sc.running_cost, interaction=boundary,
                   terminal_cost=sc.terminal_cost, mu0=sc.mu0, T=sc.T,
                   regime="high", grid=sc.grid, mc=sc.mc)
    rep2 = check_smallness(sc2)
    assert rep2.margin == pytest.approx(1.0)
    assert not rep2.passes


def test_smallness_double_well_catalog_fails():
    rep = check_smallness(load_scenario("double_well"))
    assert not rep.passes
    assert rep.lambda_star == 0.0


@pytest.mark.parametrize("regime, eps0_margin", [
    ("high", 1.0), ("mild", np.sqrt(np.e)), ("low", 1.0)])
def test_smallness_regime_identities(regime, eps0_margin):
    # eps(0) * margin is a constant of the regime, so a failed condition
    # (margin <= 1) has eps(0) >= 1 and no rate to certify
    rep = check_smallness(load_scenario(
        "double_well_small", {"interaction.c": 5e-4, "regime": regime}))
    assert rep.passes and rep.margin > 3.0
    assert rep.epsilon(0.0) * rep.margin == pytest.approx(eps0_margin,
                                                          rel=1e-9)
    if regime != "low":
        assert rep.outer_factor * rep.margin == pytest.approx(1.0, rel=1e-9)
    if regime == "mild":
        assert rep.epsilon(rep.lambda_star) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("kind", ["mean", "conv_tanh"])
@pytest.mark.parametrize("C_x_L", [2.0, 3.0, 5.0])
def test_smallness_without_certified_rate_fails(kind, C_x_L):
    # the shifted weight underflows: at 2 C_bar ** 2 is 0, at 3 and 5 the
    # shifted metric is degenerate, though the shifted profile is class K
    rep = check_smallness(load_scenario("double_well_small", {
        "interaction.kind": kind, "interaction.c": 0.01, "mu0.mean": 0.0,
        "running_cost.C_x_L": C_x_L}))
    assert not rep.passes and rep.lambda_star == 0.0
    assert rep.epsilon(0.0) == np.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides", [
    {"regime": "mild", "running_cost.C_x_L": 2.0},     # C_bar ** 2 is 0
    {"regime": "low", "running_cost.C_L_osc": 2.8}])   # the factor overflows
def test_smallness_outer_factor_past_float_range(overrides):
    # a shifted weight that underflows leaves the ergodic map's outer
    # factor at inf, with no divide-by-zero or overflow on the way
    rep = check_smallness(load_scenario("double_well_small", {
        "interaction.c": 0.01, "mu0.mean": 0.0, **overrides}))
    assert not rep.tm_bar.degenerate
    assert rep.outer_factor == np.inf
    assert rep.passes is False


def test_smallness_base_metric_without_rate_raises():
    sc = load_scenario("double_well_small", {"diffusion.sigma": 0.03})
    with pytest.raises(CertificationError, match="certifies no rate"):
        check_smallness(sc)


# the (interaction kind, regime) pairs the loader accepts: a mean
# interaction declares the constants of the high regime only
KIND_REGIMES = [("mean", "high"), ("conv_tanh", "high"),
                ("conv_tanh", "mild"), ("conv_tanh", "low")]


@given(cost=st.floats(0.0, 12.0), c=st.floats(0.0, 0.05),
       kind_regime=st.sampled_from(KIND_REGIMES))
def test_smallness_report_or_certification_error(cost, c, kind_regime):
    kind, regime = kind_regime
    cost_key = "C_L_osc" if regime == "low" else "C_x_L"
    sc = load_scenario("double_well_small", {
        "interaction.kind": kind, "interaction.c": c, "regime": regime,
        "mu0.mean": 0.0, f"running_cost.{cost_key}": cost})
    try:
        rep = check_smallness(sc)
    except CertificationError as exc:
        # nearly degenerate metrics fail the Z audit
        assert "quadrature disagreement on Z" in str(exc)
        return
    if rep.passes:
        assert not rep.tm_bar.degenerate
    else:
        assert rep.lambda_star == 0.0 and rep.epsilon(0.0) == np.inf


CATALOG_NAMES = sorted(p.stem for p in CATALOG_DIR.glob("*.json"))


def test_probes_pass_on_catalog():
    assert CATALOG_NAMES == ["double_well", "double_well_small", "lq",
                             "lq_mean", "ou"]
    for name in CATALOG_NAMES:
        report = probe_assumptions(load_scenario(name), n=1000, seed=0)
        bad = {k: v for k, v in report.items() if not v["pass"]}
        assert not bad, (name, bad)


def test_derived_constants_follow_overrides():
    # C_x_L = q * x_lim is derived at load time, so a q override moves it
    sc = load_scenario("lq", {"running_cost.q": 6.0})
    assert sc.running_cost.C_x_L == 30.0
    assert sc.running_cost.C_L_osc is None
    report = probe_assumptions(sc, n=1000, seed=0)
    assert report["running_cost_x_lipschitz"]["pass"], report
    wide = load_scenario("lq", {"grid.x_min": -6.0, "grid.x_max": 6.0,
                                "grid.n_x": 601})
    assert wide.running_cost.C_x_L == 18.0


def _fields(obj, prefix=""):
    """Every non-callable leaf field of nested dataclasses, by dotted name."""
    out = {}
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        if dataclasses.is_dataclass(val):
            out.update(_fields(val, f"{prefix}{f.name}."))
        elif not callable(val):
            out[prefix + f.name] = val
    return out


# the derived constants the catalog files declared explicitly until they
# were left to the loader
EXPLICIT_CONSTANTS = {
    "ou": {"C_x_L": 0.0, "C_L_osc": 0.0},
    "lq": {"C_x_L": 15.0},
    "lq_mean": {"C_x_L": 0.0, "C_L_osc": 0.0},
    "double_well": {"C_x_L": 0.0, "C_L_osc": 0.0},
    "double_well_small": {"C_x_L": 0.0, "C_L_osc": 0.0},
}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_matches_explicit_constants(name):
    explicit = load_scenario(name, {f"running_cost.{k}": v for k, v in
                                    EXPLICIT_CONSTANTS[name].items()})
    assert _fields(load_scenario(name)) == _fields(explicit)


def test_catalog_reconciled_values():
    lq, lq_mean = load_scenario("lq"), load_scenario("lq_mean")
    assert lq.mc.t_grid == (0.5, 1.0)
    assert lq_mean.mc.t_grid == (0.5, 1.0, 2.0)
    assert lq_mean.running_cost.C_L_osc == 0.0
    assert lq.running_cost.C_L_osc is None


def test_override_paths(tmp_path):
    sc = load_scenario("lq", {"horizon": 2.0, "grid.n_x": 501,
                              "mc.master_seed": 3})
    assert (sc.T, sc.grid.n_x, sc.mc.master_seed) == (2.0, 501, 3)
    for bad in ("grid.typo", "typo", "horizon.x", "grid.n_x.y",
                "interaction.not_a_key.c"):
        with pytest.raises(ConfigError, match="unknown scenario path"):
            load_scenario("lq", {bad: 1.0})
    # a section the file omits is created, with the loader's defaults
    raw = json.loads(json.dumps(SCENARIO_JSON))
    del raw["mc"]
    path = tmp_path / "no_mc.json"
    path.write_text(json.dumps(raw))
    sc = load_scenario(path, {"mc.master_seed": 11})
    assert sc.mc.master_seed == 11 and sc.mc.n_paths == 20_000
    with pytest.raises(ConfigError, match="KeyError"):
        load_scenario(path, {"interaction": {"c": 0.1}})
    with pytest.raises(ConfigError, match="TypeError"):
        load_scenario(path, {"mc.t_grid": 1.0})
    with pytest.raises(ConfigError, match="no such file or catalog entry"):
        load_scenario("no_such_catalog")
    # a float count would load and fail later, inside np.linspace
    for dotted, bad in (("grid.n_x", 301.0), ("mc.n_paths", True)):
        with pytest.raises(ConfigError, match="must be an integer"):
            load_scenario("lq", {dotted: bad})
    assert load_scenario("lq", {"grid.n_x": 301}).grid.xs.shape == (301,)


def test_missing_mc_section_loads_default_config(tmp_path):
    raw = json.loads(json.dumps(SCENARIO_JSON))
    del raw["mc"]
    path = tmp_path / "no_mc.json"
    path.write_text(json.dumps(raw))
    assert load_scenario(path).mc == MCConfig()
    # a listed t_grid is stored as the tuple it stands for
    sc = load_scenario(path, {"mc.t_grid": [0.5, 1.0]})
    assert sc.mc == MCConfig(t_grid=(0.5, 1.0))


def test_probes_nonconstant_sigma():
    diff = varying_diffusion(lambda x: np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x)),
                             sigma0=np.sqrt(2.0) * 0.8 / np.sqrt(2.0),
                             Sigma=np.sqrt(2.0) * 1.2 / np.sqrt(2.0),
                             C_x_sigma=np.sqrt(2.0) * 0.2)
    sc = Scenario(name="vs", drift=linear_drift(1.0), diffusion=diff,
                  running_cost=quadratic_cost(C_x_L=0.0),
                  interaction=no_interaction(), terminal_cost=zero_terminal(),
                  mu0=GaussianLaw(0.0, 1.0), T=1.0, regime="high",
                  grid=Grid1D(-6.0, 6.0, 301, 1e-3))
    report = probe_assumptions(sc, n=800, seed=5)
    bad = {k: v for k, v in report.items() if not v["pass"]}
    assert not bad, bad


def test_interaction_accepts_both_representations():
    inter = mean_interaction(0.1)
    xs = np.linspace(-5, 5, 101)
    law = GaussianLaw(0.8, 0.5)
    grid_val = inter.value(GridDensity(xs, law.density(xs)), xs)
    cloud_val = inter.value(
        ParticleCloud(law.sample(200_000, np.random.default_rng(0))), xs)
    assert np.allclose(grid_val, 0.1 * xs * 0.8, atol=1e-3)
    assert np.allclose(cloud_val, grid_val, atol=2e-3)


@st.composite
def density_batches(draw):
    """S non-negative densities on n nodes, uniform or not, any span."""
    S = draw(st.integers(1, 7))
    n = draw(st.integers(2, 64))
    x_min = draw(st.floats(-20.0, 5.0))
    span = draw(st.floats(0.1, 30.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        x = np.linspace(x_min, x_min + span, n)
    else:
        x = x_min + span * np.sort(rng.random(n))
        x[0], x[-1] = x_min, x_min + span
    p = rng.random((S, n)) * draw(st.floats(1e-3, 1e3))
    p[rng.random((S, n)) < 0.2] = 0.0
    return x, p


@given(density_batches())
def test_batched_density_matches_rows(batch):
    x, p = batch
    mu = GridDensity(x, p)
    rows = [GridDensity(x, row) for row in p]
    # the mean of a batch is the mean of each row, bit for bit
    assert np.array_equal(mu.mean(), [r.mean() for r in rows])
    inter = conv_tanh_interaction(0.7)
    at = np.linspace(x[0] - 1.0, x[-1] + 1.0, 2 * len(x) + 1)
    got = inter.value(mu, at)
    ref = np.stack([0.7 * np.trapezoid(np.tanh(at[:, None] - x[None, :])
                                       * row[None, :], x, axis=1)
                    for row in p])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # one row alone keeps the unbatched shape
    assert inter.value(rows[0], at).shape == (len(at),)
    calls = []

    def kernel(d):
        calls.append(d.shape)
        return np.tanh(d)

    mu.convolve(kernel, at)
    assert calls == [(len(at), len(x))]
    # a mean interaction keeps its per-row bytes in a batch
    mean = mean_interaction(0.2)
    assert np.array_equal(mean.value(mu, at),
                          np.stack([mean.value(r, at) for r in rows]))


def test_mu0_outside_the_mean_bound_is_rejected():
    with pytest.raises(ConfigError, match="mean_bound"):
        load_scenario("lq_mean", {"mu0.mean": 5.0})
    with pytest.raises(ConfigError, match="mean_bound"):
        load_scenario("lq_mean", {"mu0.mean": -0.6,
                                  "interaction.mean_bound": 0.5})
    # the bound itself is inside
    assert load_scenario("lq_mean", {"mu0.mean": -1.0}).mu0.mean == -1.0


def test_grid_span_guard():
    with pytest.raises(ConfigError, match="grid span"):
        Scenario(name="narrow", drift=linear_drift(1.0),
                 diffusion=constant_diffusion(np.sqrt(2.0)),
                 running_cost=quadratic_cost(C_x_L=0.0),
                 interaction=no_interaction(), terminal_cost=zero_terminal(),
                 mu0=GaussianLaw(0.0, 1.0), T=1.0, regime="high",
                 grid=Grid1D(-2.0, 2.0, 101, 1e-3))


def test_regime_constant_validation():
    with pytest.raises(ConfigError, match="needs interaction constant"):
        Scenario(name="bad", drift=linear_drift(1.0),
                 diffusion=constant_diffusion(np.sqrt(2.0)),
                 running_cost=quadratic_cost(C_x_L=0.0),
                 interaction=mean_interaction(0.1),  # lacks TV constants
                 terminal_cost=zero_terminal(), mu0=GaussianLaw(0.0, 1.0),
                 T=1.0, regime="low", grid=Grid1D(-6.0, 6.0, 301, 1e-3))


SCENARIO_JSON = {
    "name": "file_ou",
    "drift": {"kind": "linear", "beta": 1.0},
    "diffusion": {"kind": "constant", "sigma": 1.4142135623730951},
    "running_cost": {"kind": "quadratic", "rho_uu": 1.0, "q": 0.0},
    "interaction": {"kind": "none"},
    "terminal_cost": {"kind": "zero"},
    "mu0": {"mean": 0.0, "var": 1.0},
    "horizon": 4.0,
    "regime": "high",
    "grid": {"x_min": -6.0, "x_max": 6.0, "n_x": 301, "dt": 1e-3},
    "mc": {"n_paths": 1000, "dt": 1e-3, "master_seed": 7, "t_grid": [1.0]},
}


def test_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "ou.json"
    path.write_text(json.dumps(SCENARIO_JSON))
    sc = load_scenario(path)
    assert sc.name == "file_ou"
    assert sc.mc.master_seed == 7
    assert sc.drift.profile(1.0) == pytest.approx(1.0)


def test_scenario_file_rejects_unknown_keys(tmp_path):
    bad = dict(SCENARIO_JSON)
    bad["unknown_section"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match="unknown top-level key"):
        load_scenario(path)
    bad2 = json.loads(json.dumps(SCENARIO_JSON))
    bad2["grid"]["typo_key"] = 3
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps(bad2))
    with pytest.raises(ConfigError, match="grid.typo_key"):
        load_scenario(path2)


def low_regime_scenario(c=0.001):
    from mfglab.model import conv_tanh_interaction
    return Scenario(name="ou_low", drift=linear_drift(1.0),
                    diffusion=constant_diffusion(np.sqrt(2.0)),
                    running_cost=quadratic_cost(rho_uu=1.0, C_x_L=0.0,
                                                C_L_osc=0.0),
                    interaction=conv_tanh_interaction(c),
                    terminal_cost=zero_terminal(), mu0=GaussianLaw(0.5, 0.5),
                    T=4.0, regime="low",
                    grid=Grid1D(-6.0, 6.0, 601, 1e-3))


def test_smallness_low_regime():
    rep = check_smallness(low_regime_scenario())
    assert rep.regime == "low"
    assert rep.passes and rep.margin > 2.0
    # the low-regularity machinery pins the rate at half the certified one
    assert rep.lambda_star == pytest.approx(0.5 * rep.tm_bar.lam)
    assert rep.epsilon(0.1) == rep.epsilon(0.3)  # constant factor
    strong = check_smallness(low_regime_scenario(c=0.1))
    assert not strong.passes


def test_smallness_relaxed_condition():
    base = load_scenario("lq_mean")
    sc = Scenario(name="relaxed", drift=base.drift, diffusion=base.diffusion,
                  running_cost=base.running_cost,
                  interaction=base.interaction,
                  terminal_cost=base.terminal_cost, mu0=base.mu0, T=base.T,
                  regime="high", grid=base.grid, C_xx_psi=0.05)
    rep = check_smallness(sc)
    assert rep.relaxed is not None
    # the capped shift keeps more of the base rate: weaker condition
    assert rep.relaxed["dominates_base"]
    assert rep.relaxed["threshold"] >= rep.threshold
    assert rep.relaxed["passes"]
