import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupling_reference import reference_chunk
from mfglab import couplings
from mfglab.couplings import (_GLUE_KINDS, KINDS, CouplingConfig,
                              check_drift_gap_bounds, moment_diagnostic,
                              simulate_coupling)
from mfglab.errors import ConfigError, NumericalError
from mfglab.metrics import build_twisted_metric, build_quadratic_metric, \
    q_kernel
from mfglab.model import constant_diffusion, varying_diffusion, GaussianLaw
from mfglab.profiles import constant_profile


DIFF = constant_diffusion(np.sqrt(2.0))     # sigma0 = 1, sigma_bar = 1


def pair_at_distance(r0):
    def init(n, rng):
        return np.full(n, 0.5 * r0), np.full(n, -0.5 * r0)
    return init


@pytest.fixture(scope="module")
def tm_ou():
    # kappa = 1 at sigma_check = sigma0 = 1: lam = C = 1/2
    return build_twisted_metric(constant_profile(1.0, r_max=30.0), 1.0)


@pytest.fixture(scope="module")
def tm_half():
    return build_twisted_metric(constant_profile(1.0, r_max=30.0),
                                1.0 / np.sqrt(2.0))


def radial_oracle_mean_f(f, t_grid, r0=1.0, dt=5e-4, n=20_000, seed=123):
    """Fine-step absorbed radial diffusion dr = -r dt + 2 dW from r0."""
    rng = np.random.default_rng(seed)
    r = np.full(n, r0)
    alive = np.ones(n, dtype=bool)
    out = {}
    n_steps = int(round(max(t_grid) / dt))
    targets = {int(round(t / dt)): t for t in t_grid}
    for k in range(n_steps + 1):
        if k in targets:
            out[targets[k]] = float(np.mean(np.where(alive, f(np.abs(r)), 0.0)))
        if k == n_steps:
            break
        z = rng.standard_normal(n)
        r_new = r - r * dt + 2.0 * z * np.sqrt(dt)
        crossed = alive & (r_new <= 0.0)
        u = rng.random(n)
        bridge = alive & ~crossed & (u < np.exp(-np.maximum(r * r_new, 0.0)
                                                / (2.0 * dt)))
        alive = alive & ~(crossed | bridge)
        r = np.where(alive, np.abs(r_new), 0.0)
    return out


def test_synchronous_linear_contraction():
    cfg = CouplingConfig(kind="synchronous", dt=1e-3, n_paths=4000,
                         t_grid=(0.5, 1.0, 2.0), beta=lambda t, x: -x,
                         master_seed=5)
    stats = simulate_coupling(cfg, DIFF, pair_at_distance(1.0))
    # deterministic radial decay r_t = exp(-t) r_0 up to O(dt)
    assert np.allclose(stats.mean_r, np.exp(-stats.t_grid), atol=2e-3)
    assert np.max(stats.se_f) < 1e-8


def test_reflection_contraction_and_coalescence(tm_ou):
    cfg = CouplingConfig(kind="reflection", dt=1e-3, n_paths=20_000,
                         t_grid=(1.0, 2.0, 4.0), beta=lambda t, x: -x,
                         master_seed=11)
    stats = simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_ou)
    assert stats.mean_f0 == pytest.approx(tm_ou.f(1.0), rel=1e-12)
    assert np.all(stats.mean_f <= stats.bound_f + 3.0 * stats.se_f)
    assert np.all(stats.p_neq <= stats.bound_p + 3.0 * stats.se_p)
    # independent oracle: absorbed radial diffusion at a finer step
    oracle = radial_oracle_mean_f(tm_ou.f, (1.0, 2.0, 4.0))
    for i, t in enumerate(stats.t_grid):
        se = max(stats.se_f[i], 1e-4)
        assert abs(stats.mean_f[i] - oracle[t]) < 6.0 * se + 5e-3


def test_interpolated_contraction(tm_half):
    qtm = build_quadratic_metric(tm_half, 1.0, kappa_plus=1.0, R1_choice=1.0)
    cfg = CouplingConfig(kind="interpolated", dt=1e-3, n_paths=20_000,
                         t_grid=(1.0, 2.0, 4.0), beta=lambda t, x: -x,
                         master_seed=13)
    stats = simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_half,
                              tm2=qtm)
    assert np.all(stats.mean_f <= stats.bound_f + 3.0 * stats.se_f)
    assert np.all(stats.p_neq <= stats.bound_p + 3.0 * stats.se_p)
    assert np.all(stats.mean_f2 <= stats.bound_f2 + 3.0 * stats.se_f2)


def test_controlled_reflection_shared_control(tm_ou):
    # controlled reflection: a bounded control applied along the first path
    # to both dynamics leaves the separation process unchanged, so the same
    # contraction holds
    cfg = CouplingConfig(kind="reflection", dt=1e-3,
                         n_paths=10_000, t_grid=(1.0, 2.0),
                         beta=lambda t, x: -x,
                         control=lambda t, x: 0.5 * np.tanh(x),
                         master_seed=17)
    stats = simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_ou)
    assert np.all(stats.mean_f <= stats.bound_f + 3.0 * stats.se_f)


def test_approx_delta_reduces_to_reflection(tm_ou):
    base = dict(dt=1e-3, n_paths=20_000, t_grid=(1.0, 2.0),
                beta=lambda t, x: -x, master_seed=19)
    refl = simulate_coupling(CouplingConfig(kind="reflection", **base),
                             DIFF, pair_at_distance(1.0), tm=tm_ou)
    approx = simulate_coupling(
        CouplingConfig(kind="approx_delta", beta_hat=base["beta"],
                       delta=1e-2, **base),
        DIFF, pair_at_distance(1.0), tm=tm_ou)
    for i in range(len(refl.t_grid)):
        tol = 3.0 * (refl.se_f[i] + approx.se_f[i]) + tm_ou.f(1e-2)
        assert abs(refl.mean_f[i] - approx.mean_f[i]) < tol


def test_drift_gap_bounds(tm_ou):
    c = 0.2
    cfg = CouplingConfig(kind="approx_delta", dt=1e-3, n_paths=20_000,
                         t_grid=(1.0, 2.0, 4.0), beta=lambda t, x: -x,
                         beta_hat=lambda t, x: -x + c, delta=1e-2,
                         master_seed=23)

    def init(n, rng):
        return np.full(n, -0.5), np.full(n, 0.5)

    t, t0 = 4.0, 2.0
    # exact time marginals are Gaussians with equal variance
    m1 = -0.5 * np.exp(-t)
    m2 = 0.5 * np.exp(-t) + c * (1.0 - np.exp(-t))
    v = 1.0 - np.exp(-2.0 * t)
    from scipy.stats import norm
    tv_true = norm.cdf(abs(m1 - m2) / (2.0 * np.sqrt(v))) \
        - norm.cdf(-abs(m1 - m2) / (2.0 * np.sqrt(v)))
    rep = check_drift_gap_bounds(cfg, DIFF, init, tm_ou, c, t0=t0,
                                 tv_true=tv_true)
    assert rep["pass_contraction"]
    assert rep["pass_tv"]
    # the offset saturates at c / lam
    assert rep["bound_with_offset"][-1] == pytest.approx(
        np.exp(-0.5 * t) * rep["stats"].mean_f0
        + c * (1.0 - np.exp(-0.5 * t)) / 0.5, rel=1e-3)


@pytest.mark.slow
def test_drift_gap_delta_extrapolation(tm_ou):
    # common random numbers across delta: the mollification response is
    # ~linear, so a decade of delta shrinks the gap by about ten once the
    # step resolves the smallest noise-free band (dt <~ delta_min / (4 c))
    means = {}
    for delta in (1e-2, 1e-3, 1e-4):
        cfg = CouplingConfig(kind="approx_delta", dt=5e-5, n_paths=6000,
                             t_grid=(1.0,), beta=lambda t, x: -x,
                             beta_hat=lambda t, x: -x + 0.2, delta=delta,
                             master_seed=29, n_threads=4)
        st = simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_ou)
        means[delta] = float(st.mean_f[0])
    gap_big = abs(means[1e-2] - means[1e-3])
    gap_small = abs(means[1e-3] - means[1e-4])
    # smoke strength: the acceptance suite asserts the full 5x at 1e4 paths
    assert gap_big >= 4.0 * gap_small, means


def test_drift_gap_t0_run_keeps_the_config(tm_ou):
    # a shared control moves both paths of a nonlinear drift, so the
    # coupling at t0 that enters bound_tv must carry it: it equals a run of
    # the whole config stopped at t0
    def drift(t, x):
        return -x - 0.5 * x ** 3

    cfg = CouplingConfig(kind="approx_delta", dt=1e-3, n_paths=2000,
                         t_grid=(1.0,), beta=drift,
                         beta_hat=lambda t, x: drift(t, x) + 0.2,
                         control=lambda t, x: 2.0, delta=1e-2, master_seed=3)
    t0 = 0.5
    rep = check_drift_gap_bounds(cfg, DIFF, pair_at_distance(1.0), tm_ou,
                                 0.2, t0=t0)
    st0 = simulate_coupling(replace(cfg, t_grid=(t0,)), DIFF,
                            pair_at_distance(1.0), tm=tm_ou)
    ss = np.linspace(t0, 1.0, 257)
    girsanov = np.sqrt(np.trapezoid(np.full(ss.shape, 0.2 ** 2), ss) / 2.0)
    expect = q_kernel(tm_ou.C, tm_ou.lam, tm_ou.sigma_check, 1.0 - t0) \
        * float(st0.mean_f[0]) + girsanov
    assert rep["bound_tv"] == pytest.approx(expect, rel=1e-12)
    # t0 is read off the main run, whose reported stats keep the caller's
    # output times and equal a run without t0, bit for bit
    plain = simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_ou)
    for name, v in vars(plain).items():
        np.testing.assert_array_equal(getattr(rep["stats"], name), v)


def test_moment_diagnostic_ou():
    law = GaussianLaw(0.0, 1.0)
    out = moment_diagnostic(lambda t, x: -x, DIFF,
                            lambda n, rng: law.sample(n, rng), p=2, T=6.0,
                            n_paths=20_000, master_seed=3)
    assert out["passes"]
    # stationary second moment of the unit OU law
    assert out["sup_moment"] == pytest.approx(1.0, abs=5e-2)


def test_moment_diagnostic_double_well_plateau():
    out = moment_diagnostic(lambda t, x: x - x ** 3, DIFF,
                            lambda n, rng: np.full(n, 2.0), p=2, T=8.0,
                            n_paths=10_000, master_seed=4)
    assert out["passes"]
    assert np.isfinite(out["sup_moment"])


def test_moment_zero_start():
    out = moment_diagnostic(lambda t, x: -x, DIFF,
                            lambda n, rng: np.zeros(n), p=2, T=1.0,
                            n_paths=2000, master_seed=5)
    assert out["moments"][0] == 0.0


def test_moment_diagnostic_across_threads(short_switch_interval):
    # 33,000 paths are 3 chunks; every worker count returns the same values
    law = GaussianLaw(0.5, 1.0)
    runs = [moment_diagnostic(lambda t, x: -x, DIFF,
                              lambda n, rng: law.sample(n, rng), p=2, T=0.2,
                              dt=1e-2, n_paths=33_000, master_seed=6,
                              n_threads=n_threads)
            for n_threads in (1, 2, 8)]
    for out in runs[1:]:
        assert out.keys() == runs[0].keys()
        for key, value in runs[0].items():
            np.testing.assert_array_equal(out[key], value)


VARYING = varying_diffusion(lambda x: 1.5 + 0.2 * np.tanh(x), 1.0, 1.2, 0.2)


def spread_pair(n, rng):
    # draws from the chunk's stream before the first step
    return 0.5 + 0.3 * rng.standard_normal(n), np.full(n, -0.5)


def reference_stats(config, diffusion, init, tm):
    """simulate_coupling through the step-by-step reference kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(couplings, "_simulate_chunk", reference_chunk)
        return simulate_coupling(replace(config, n_threads=1), diffusion,
                                 init, tm=tm)


@pytest.fixture
def short_switch_interval():
    # threads trade the GIL often, so a noise block reused too early shows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def test_determinism_across_threads(tm_ou, short_switch_interval):
    # every kind and reflection with a shared control, both diffusion
    # paths, one chunk and three, and 1, 2 and 8 workers (the synchronous
    # and mollified kinds draw noise ahead at 8 for three chunks, at 2 for
    # one): every estimator equals the reference kernel's bit for bit
    fields = ("mean_f", "se_f", "p_neq", "se_p", "mean_r", "bound_f",
              "bound_p", "mean_f0")
    cases = [(kind, {"approx_delta": dict(beta_hat=lambda t, x: -x + 0.3,
                                          delta=0.05)}.get(kind, {}))
             for kind in KINDS]
    cases.append(("reflection", dict(control=lambda t, x: 0.5 * np.tanh(x))))
    for kind, extra in cases:
        for diff in (DIFF, VARYING):
            for chunk_size in (16384, 1024):
                cfg = CouplingConfig(kind=kind, dt=1e-2, n_paths=3000,
                                     t_grid=(0.0, 0.5, 2.0),
                                     beta=lambda t, x: -x, master_seed=31,
                                     chunk_size=chunk_size, **extra)
                ref = reference_stats(cfg, diff, spread_pair, tm_ou)
                for n_threads in (1, 2, 8):
                    got = simulate_coupling(
                        replace(cfg, n_threads=n_threads), diff,
                        spread_pair, tm=tm_ou)
                    case = (kind, sorted(extra), diff.is_constant,
                            chunk_size, n_threads)
                    for f in fields:
                        assert np.array_equal(getattr(got, f),
                                              getattr(ref, f)), (case, f)


@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(_GLUE_KINDS),
       n_paths=st.integers(1000, 1050),
       chunk_size=st.sampled_from([16384, 1024]), varying=st.booleans(),
       n_threads=st.sampled_from([1, 2]), controlled=st.booleans())
def test_reflected_kinds_match_reference(tm_ou, seed, kind, n_paths,
                                         chunk_size, varying, n_threads,
                                         controlled):
    # the kernel carries only unglued pairs and draws for them alone; the
    # full-array reference scatters the same draws to the unglued mask.
    # n_paths crosses the 1024-path chunk boundary
    extra = ({"control": lambda t, x: 0.5 * np.tanh(x)} if controlled
             else {})
    cfg = CouplingConfig(kind=kind, dt=1e-2, n_paths=n_paths,
                         t_grid=(0.0, 0.3, 0.6, 1.0, 2.0),
                         beta=lambda t, x: -x, master_seed=seed,
                         chunk_size=chunk_size, n_threads=n_threads, **extra)
    diff = VARYING if varying else DIFF
    got = simulate_coupling(cfg, diff, spread_pair, tm=tm_ou)
    ref = reference_stats(cfg, diff, spread_pair, tm_ou)
    for f in ("mean_f", "se_f", "p_neq", "se_p", "mean_r", "mean_f0"):
        assert np.array_equal(getattr(got, f), getattr(ref, f)), f
    # gluing absorbs: the unglued fraction never rises
    assert np.all(np.diff(got.p_neq) <= 0.0)


@given(seed=st.integers(0, 2 ** 32 - 1),
       delta=st.sampled_from([0.02, 0.05, 0.2]), varying=st.booleans(),
       n_paths=st.integers(1000, 1050),
       chunk_size=st.sampled_from([16384, 1024]),
       n_threads=st.sampled_from([1, 2]))
def test_mollified_kind_matches_reference(tm_ou, seed, delta, varying,
                                          n_paths, chunk_size, n_threads):
    # the kernel's in-band select and its draw layout (z1, z3, u under a
    # constant sigma_bar, z1, z3, u, z2 under a varying one) against the
    # plain expressions; one chunk at 2 workers draws its noise ahead
    cfg = CouplingConfig(kind="approx_delta", dt=1e-2, n_paths=n_paths,
                         t_grid=(0.0, 0.3, 0.6, 1.0, 2.0),
                         beta=lambda t, x: -x,
                         beta_hat=lambda t, x: -x + 0.3, delta=delta,
                         master_seed=seed, chunk_size=chunk_size,
                         n_threads=n_threads)
    diff = VARYING if varying else DIFF
    got = simulate_coupling(cfg, diff, spread_pair, tm=tm_ou)
    ref = reference_stats(cfg, diff, spread_pair, tm_ou)
    for f in ("mean_f", "se_f", "p_neq", "se_p", "mean_r", "mean_f0"):
        assert np.array_equal(getattr(got, f), getattr(ref, f)), f


def test_bridge_takes_no_underflow_path():
    # -arg spans [-1e5, 0]: the kernel's bridge test reads exp(-arg) only
    # where maybe holds (-arg > -40), and never lets exp underflow
    rng = np.random.default_rng(3)
    neg_arg = np.concatenate([np.linspace(-1e5, 0.0, 4001),
                              -40.0 + np.array([-1e-9, 0.0, 1e-9]),
                              -rng.exponential(3.0, 4000)])
    u = rng.random(len(neg_arg))
    maybe = neg_arg > -40.0
    expect = [m and ui < math.exp(a) for m, ui, a in zip(maybe, u, neg_arg)]
    below = np.empty(len(neg_arg), dtype=bool)
    with np.errstate(under="raise"):
        couplings._bridge(neg_arg.copy(), u, maybe, below)
    assert maybe.tolist() == expect
    assert 0 < np.sum(maybe) < np.sum(neg_arg > -40.0)


def test_draw_ahead_leaves_no_thread(tm_ou):
    # both early exits leave no thread: every reflected pair glued long
    # before the last output time, and the overflow guard, of a reflection
    # run (which draws inline) and of a mollified run (whose one chunk at 2
    # workers draws noise ahead: the exit waits for the fill in flight and
    # stops the drawer)
    before = threading.active_count()
    cfg = CouplingConfig(kind="reflection", dt=1e-2, n_paths=200,
                         t_grid=(1.0, 50.0), beta=lambda t, x: -x,
                         master_seed=37, n_threads=2)
    stats = simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_ou)
    assert stats.p_neq[-1] == 0.0
    assert threading.active_count() == before
    one = simulate_coupling(replace(cfg, n_threads=1), DIFF,
                            pair_at_distance(1.0), tm=tm_ou)
    assert np.array_equal(stats.mean_f, one.mean_f)
    for kind in ("reflection", "approx_delta"):
        blow_up = replace(cfg, kind=kind, dt=1e-3, t_grid=(1.0,),
                          beta=lambda t, x: 50.0 * x,
                          beta_hat=lambda t, x: 50.0 * x)
        with pytest.raises(NumericalError, match="overflow"):
            simulate_coupling(blow_up, DIFF, pair_at_distance(1.0))
        assert threading.active_count() == before


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown coupling kind"):
        CouplingConfig(kind="mystery", dt=1e-3, n_paths=10, t_grid=(1.0,),
                       beta=lambda t, x: -x)
    cfg = CouplingConfig(kind="reflection", dt=1e-3, n_paths=10,
                         t_grid=(0.0005,), beta=lambda t, x: -x)
    with pytest.raises(ConfigError, match="not on the dt grid"):
        simulate_coupling(cfg, DIFF, pair_at_distance(1.0))


def test_duplicate_output_times_rejected(tm_ou):
    # one estimate per distinct step would misalign with the time array
    for t_grid in ((0.5, 0.5), (1.0, 0.5, 1.0)):
        cfg = CouplingConfig(kind="reflection", dt=1e-2, n_paths=200,
                             t_grid=t_grid, beta=lambda t, x: -x,
                             master_seed=5)
        with pytest.raises(ConfigError, match="same step"):
            simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_ou)


def test_negative_output_time_rejected(tm_ou):
    # no step records a time before the start: its row would read zeros
    cfg = CouplingConfig(kind="reflection", dt=1e-2, n_paths=200,
                         t_grid=(-0.01, 0.01), beta=lambda t, x: -x,
                         master_seed=5)
    with pytest.raises(ConfigError, match="precedes the start"):
        simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_ou)


def test_output_time_zero_is_the_initial_pair(tm_ou):
    cfg = CouplingConfig(kind="reflection", dt=1e-2, n_paths=200,
                         t_grid=(0.0, 0.01), beta=lambda t, x: -x,
                         master_seed=5)
    stats = simulate_coupling(cfg, DIFF, pair_at_distance(1.0), tm=tm_ou)
    assert stats.mean_f[0] == pytest.approx(tm_ou.f(1.0), rel=1e-12)
    assert stats.p_neq[0] == 1.0
    assert np.all(np.isfinite(stats.bound_p))


def test_drift_gap_requires_increasing_times(tm_ou):
    cfg = CouplingConfig(kind="approx_delta", dt=1e-3, n_paths=200,
                         t_grid=(1.0,), beta=lambda t, x: -x,
                         beta_hat=lambda t, x: -x + 0.1, delta=1e-2,
                         master_seed=1)
    with pytest.raises(ConfigError, match="needs t > t0"):
        check_drift_gap_bounds(cfg, DIFF, pair_at_distance(1.0), tm_ou,
                               0.1, t0=1.0)
