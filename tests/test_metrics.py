import time

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.special import erf, erfi

from mfglab.profiles import (constant_profile, double_well_profile,
                             make_profile, shift_profile)
from mfglab.errors import CertificationError, ConfigError, NumericalError
from mfglab.metrics import (build_twisted_metric, build_quadratic_metric,
                            check_differential_inequality, gap_envelope,
                            girsanov_tv, q_kernel, q_weighted_integral,
                            lemma_kernel_integrals, save_metric, load_metric,
                            within_band, within_bound)
from mfglab.model import _build_extending


@pytest.fixture(scope="module")
def tm_const2():
    return build_twisted_metric(constant_profile(2.0, r_max=20.0), 1.0)


@pytest.fixture(scope="module")
def tm_const1():
    return build_twisted_metric(constant_profile(1.0, r_max=20.0), 1.0)


def test_constant_two_closed_form(tm_const2):
    # kappa = 2, s = 1: R0 = 0, R1 = sqrt(2), Z = 1, lam = 1, C = 1/2 and
    # f(r) = r - r^3/12 below R1 (phi = 1, g = 1 - r^2/4)
    t0 = time.perf_counter()
    tm = build_twisted_metric(constant_profile(2.0, r_max=20.0), 1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert tm.R0 == pytest.approx(0.0, abs=1e-10)
    assert tm.R1 == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert tm.Z == pytest.approx(1.0, abs=1e-8)
    assert tm.lam == pytest.approx(1.0, abs=1e-8)
    assert tm.C == pytest.approx(0.5, abs=1e-8)
    assert tm.f(1.0) == pytest.approx(1.0 - 1.0 / 12.0, abs=1e-8)
    rr = np.linspace(0.01, np.sqrt(2.0) - 1e-3, 57)
    assert np.allclose(tm.f(rr), rr - rr ** 3 / 12.0, atol=1e-7)


def test_constant_one_closed_form(tm_const1):
    assert tm_const1.R0 == pytest.approx(0.0, abs=1e-10)
    assert tm_const1.R1 == pytest.approx(2.0, abs=1e-8)
    assert tm_const1.Z == pytest.approx(2.0, abs=1e-8)
    assert tm_const1.lam == pytest.approx(0.5, abs=1e-8)
    assert tm_const1.C == pytest.approx(0.5, abs=1e-8)


def test_lambda_is_exactly_sigma_sq_over_Z(tm_const2, tm_const1):
    for tm in (tm_const2, tm_const1):
        assert tm.lam == tm.sigma_check ** 2 / tm.Z  # bitwise identity


def test_sandwich_at_random_radii(tm_const2):
    rng = np.random.default_rng(7)
    profs = [constant_profile(2.0, r_max=20.0), double_well_profile(r_max=20.0),
             shift_profile(constant_profile(2.0, r_max=20.0), 0.5)]
    for prof in profs:
        tm = build_twisted_metric(prof, 1.0)
        rr = rng.uniform(1e-4, 19.9, size=10_000)
        f, fp = tm.f(rr), tm.fprime(rr)
        assert np.all(f <= rr * (1.0 + 1e-9) + 1e-12)
        assert np.all(f >= tm.C * rr * (1.0 - 1e-9) - 1e-12)
        assert np.all(fp <= 1.0 + 1e-9)
        assert np.all(fp >= tm.C * (1.0 - 1e-9))


def test_rate_monotone_in_profile():
    base = constant_profile(2.0, r_max=20.0)
    tms = [build_twisted_metric(shift_profile(base, c), 1.0)
           for c in np.linspace(0.0, 0.9, 10)]
    lams = [tm.lam for tm in tms]
    Cs = [tm.C for tm in tms]
    # kappa decreases with the shift, so both constants must decrease
    assert np.all(np.diff(lams) <= 1e-12)
    assert np.all(np.diff(Cs) <= 1e-12)


def test_differential_inequality_catalog():
    profs = [constant_profile(2.0, r_max=20.0),
             shift_profile(constant_profile(2.0, r_max=20.0), 0.5),
             double_well_profile(r_max=20.0)]
    rng = np.random.default_rng(11)
    for prof in profs:
        tm = build_twisted_metric(prof, 1.0)
        rr = rng.uniform(1e-3, 19.5, size=1000)
        rr = rr[np.abs(rr - tm.R1) > 1e-3]
        max_res, residuals, _ = check_differential_inequality(tm, rr)
        allowance = 1e-6 * (1.0 + tm.lam * tm.f(rr))
        assert np.all(residuals <= allowance), prof.name
        assert max_res <= np.max(allowance)


def test_fsecond_closed_form(tm_const2):
    # kappa = 2: f'' = g' = -r/2 below R1, 0 above
    rr = np.array([0.3, 0.7, 1.0, 1.3])
    assert np.allclose(tm_const2.fsecond(rr), -rr / 2.0, atol=1e-7)
    assert tm_const2.fsecond(5.0) == 0.0


def test_affine_tail(tm_const2):
    r = np.array([1.6, 3.0, 7.0, 19.0])
    assert np.allclose(tm_const2.fprime(r), tm_const2.C, atol=1e-9)
    f0 = tm_const2.f(2.0)
    assert tm_const2.f(6.0) == pytest.approx(f0 + tm_const2.C * 4.0, abs=1e-7)


def test_q_kernel_values_and_continuity():
    # lam = 1, C = 1/2, s = 1, t = 1 (exponential branch)
    expect = np.sqrt(np.e) / (np.sqrt(np.pi) * 0.5) * np.exp(-1.0)
    assert q_kernel(0.5, 1.0, 1.0, 1.0) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.6844, abs=5e-4)
    for lam in (0.25, 1.0, 3.0):
        knee = 1.0 / (2.0 * lam)
        lo = q_kernel(0.5, lam, 1.0, knee * (1.0 - 1e-13))
        hi = q_kernel(0.5, lam, 1.0, knee)
        assert lo == pytest.approx(hi, rel=1e-12)
    # short-time divergence like t^(-1/2)
    assert q_kernel(0.5, 1.0, 1.0, 1e-8) == pytest.approx(
        q_kernel(0.5, 1.0, 1.0, 4e-8) * 2.0, rel=1e-12)
    with pytest.raises(ConfigError, match="t > 0"):
        q_kernel(0.5, 1.0, 1.0, 0.0)
    tt = np.array([0.1, 0.5, 2.0])
    single = [q_kernel(0.5, 1.0, 1.0, t) for t in tt]
    assert np.allclose(q_kernel(0.5, 1.0, 1.0, tt), single)


def test_kernel_integral_example():
    out = lemma_kernel_integrals(0.5, 1.0, 1.0, 0.5, 0.0, 10.0, "forward")
    expect = (1.0 / (np.sqrt(np.pi) * 0.5)) * (1.0 + 1.0 / 1.5)
    assert out["bound"] == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(1.8806, abs=5e-4)
    assert out["quadrature"] <= out["bound"]


def test_kernel_integral_random_draws():
    rng = np.random.default_rng(23)
    for _ in range(100):
        lam_bar = rng.uniform(0.05, 4.0)
        lam = rng.uniform(0.0, 0.95) * lam_bar
        C = rng.uniform(0.05, 0.5)
        sigma0 = rng.uniform(0.3, 3.0)
        t = rng.uniform(0.0, 2.0)
        T = t + rng.uniform(0.0, 30.0)
        for mode in ("forward", "backward"):
            out = lemma_kernel_integrals(C, lam_bar, sigma0, lam, t, T, mode)
            assert out["quadrature"] <= out["bound"] * (1.0 + 1e-9)


def _exp_weighted_closed_form(C, lam_bar, sigma0, mu, t, T, mode):
    """Integral over [t, T] of q_{s-t} exp(-mu s) (forward) or
    q_{s-t} exp(-mu (T-s)) (backward), in closed form."""
    span, knee = T - t, 1.0 / (2.0 * lam_bar)
    pref = 1.0 / (np.sqrt(2.0 * np.pi) * C * sigma0)
    amp = np.sqrt(lam_bar * np.e) / (np.sqrt(np.pi) * C * sigma0)
    # early branch: integral of u^(-1/2) exp(-+mu u) over [0, a]
    a = np.sqrt(mu * min(span, knee))
    if mode == "forward":
        lead, rate = np.exp(-mu * t), lam_bar + mu
        early = np.sqrt(np.pi / mu) * erf(a)
    else:
        lead, rate = np.exp(-mu * (T - t)), lam_bar - mu
        early = np.sqrt(np.pi / mu) * erfi(a)
    total = pref * lead * early
    if span > knee:   # late branch: exponential integral at rate lam_bar +- mu
        total += (amp * lead * np.exp(-rate * knee)
                  * -np.expm1(-rate * (span - knee)) / rate)
    return total


def test_q_weighted_integral_closed_form():
    # the draws of test_kernel_integral_random_draws reach integrals of
    # 1e-34: the quadrature must stay relatively accurate far below QUAD_TOL
    rng = np.random.default_rng(23)
    smallest = np.inf
    for _ in range(100):
        lam_bar = rng.uniform(0.05, 4.0)
        mu = rng.uniform(0.0, 0.95) * lam_bar
        C = rng.uniform(0.05, 0.5)
        sigma0 = rng.uniform(0.3, 3.0)
        t = rng.uniform(0.0, 2.0)
        T = t + rng.uniform(0.0, 30.0)
        weights = {"forward": lambda s: np.exp(-mu * s),
                   "backward": lambda s: np.exp(-mu * (T - s))}
        for mode, weight in weights.items():
            exact = _exp_weighted_closed_form(C, lam_bar, sigma0, mu, t, T,
                                              mode)
            got = q_weighted_integral(C, lam_bar, sigma0, t, T, weight)
            assert got == pytest.approx(exact, rel=1e-6), (mode, exact)
            lemma = lemma_kernel_integrals(C, lam_bar, sigma0, mu, t, T, mode)
            assert lemma["quadrature"] == pytest.approx(got, rel=1e-14)
            smallest = min(smallest, exact)
    assert smallest < 1e-30


def test_gap_envelope_and_girsanov_closed_form():
    # constant gap c: exp(-lam t) w0 + c (1 - exp(-lam t)) / lam, and the
    # Girsanov term c sqrt((t - t0) / 2).  The 257-node trapezoid is exact
    # for a constant integrand and overestimates a convex one by O(h^2), so
    # both stay on the safe side of the exact bound
    lam, w0, c = 0.5, 1.3, 0.2
    for t in (0.0, 0.3, 2.0, 8.0):
        expect = np.exp(-lam * t) * w0 + c * (1.0 - np.exp(-lam * t)) / lam
        got = gap_envelope(lam, w0, lambda s: c, t)
        assert expect * (1.0 - 1e-15) <= got <= expect * (1.0 + 3e-5)
    assert girsanov_tv(lambda s: c, 1.0, 3.0) == pytest.approx(c, rel=1e-12)
    got = girsanov_tv(lambda s: s, 0.0, 2.0)
    assert np.sqrt(8.0 / 6.0) <= got <= np.sqrt(8.0 / 6.0) * (1.0 + 1e-5)


def test_within_bound_slack():
    assert within_bound(1.0 + 5e-10, 1.0)
    assert not within_bound(1.0 + 2e-9, 1.0)
    assert within_bound(5e-13, 0.0) and not within_bound(2e-12, 0.0)
    assert within_bound(1e300, np.inf)
    np.testing.assert_array_equal(within_bound([0.5, 2.0], [1.0, 1.0]),
                                  [True, False])
    # within_band applies the same slack on both sides
    np.testing.assert_array_equal(
        within_band([0.5 - 2e-10, 0.5 - 2e-9, 1.0 + 5e-10, 1.0 + 2e-9],
                    0.5, 1.0), [True, False, True, False])


@given(kappa=st.floats(0.05, 5.0), sigma=st.floats(0.3, 3.0),
       c_u=st.floats(0.0, 2.0), mode=st.sampled_from([None, "grad", "hess"]))
def test_sandwich_and_concavity_property(kappa, sigma, c_u, mode):
    # C r <= f <= r and f' non-increasing, between the table nodes and on
    # the affine tail too, for constant and shifted class-K profiles
    prof = constant_profile(kappa)
    if mode is not None:
        prof = shift_profile(prof, c_u, mode)
    assume(prof.certification.is_K)
    _, tm = _build_extending(prof, sigma)
    r = np.linspace(0.0, 2.0 * tm.r_table[-1], 20001)
    f, fp = tm.f(r), tm.fprime(r)
    assert np.all(within_bound(f, r))
    assert np.all(f >= tm.C * r * (1.0 - 1e-9) - 1e-12)
    assert np.all(np.diff(fp) <= 1e-12)


def test_kernel_integral_edge_cases():
    out = lemma_kernel_integrals(0.5, 1.0, 1.0, 0.5, 2.0, 2.0)
    assert out["quadrature"] == 0.0 <= out["bound"]
    tiny = lemma_kernel_integrals(0.5, 1.0, 1.0, 1e-12, 0.0, 10.0)
    assert np.isfinite(tiny["bound"])
    with pytest.raises(ConfigError, match="lam < lam_bar"):
        lemma_kernel_integrals(0.5, 1.0, 1.0, 1.5, 0.0, 10.0)


def test_quadratic_metric_constant_one():
    prof = constant_profile(1.0, r_max=20.0)
    tm_half = build_twisted_metric(prof, 1.0 / np.sqrt(2.0))
    assert tm_half.R1 == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert tm_half.lam == pytest.approx(0.5, abs=1e-8)
    qtm = build_quadratic_metric(tm_half, 1.0, kappa_plus=1.0, R1_choice=1.0)
    assert qtm.lambda2 > 0.0
    rr = np.linspace(1e-3, 1.0, 20)
    assert np.allclose(qtm.f2(rr), tm_half.f(rr))  # f_R vanishes below R1_bar
    rr = np.linspace(1e-3, 19.9, 400)
    assert np.all(qtm.f2(rr) >= qtm.C2 * rr ** 2 - 1e-12)
    assert qtm.f2(0.0) == 0.0


def test_quadratic_metric_validation():
    prof = constant_profile(1.0, r_max=20.0)
    tm_half = build_twisted_metric(prof, 1.0 / np.sqrt(2.0))
    with pytest.raises(CertificationError, match="below kappa_plus"):
        build_quadratic_metric(tm_half, 1.0, kappa_plus=2.0, R1_choice=1.0)
    tm_wrong = build_twisted_metric(prof, 1.0)
    with pytest.raises(CertificationError, match="built at sigma0"):
        build_quadratic_metric(tm_wrong, 1.0, kappa_plus=1.0, R1_choice=1.0)


def test_r1_out_of_range_error():
    prof = constant_profile(0.02, r_max=5.0)  # needs R1 ~ 14 > r_max
    with pytest.raises(CertificationError, match="R1 not bracketed") as info:
        build_twisted_metric(prof, 1.0)
    assert isinstance(info.value.__cause__, NumericalError)
    # the model's builder recognises the unbracketed R1 and grows the grid
    grown, tm = _build_extending(prof, 1.0)
    assert grown.r_max > prof.r_max and tm.R1 <= grown.r_max
    # and re-raises, ungrown, a certification error with no bracket cause
    with pytest.raises(CertificationError,
                       match="not certified class K") as info:
        _build_extending(constant_profile(-1.0, r_max=5.0), 1.0)
    assert info.value.__cause__ is None


def test_degenerate_collapse():
    prof = shift_profile(constant_profile(1.0, r_max=20000.0), 400.0)
    tm = build_twisted_metric(prof, 1.0)
    assert tm.degenerate
    assert tm.lam == 0.0 and tm.C == 0.0
    assert tm.q(1.0) == np.inf


def test_serialization_roundtrip(tmp_path, tm_const2):
    csv_path = tmp_path / "metric.csv"
    save_metric(tm_const2, csv_path)
    back = load_metric(csv_path)
    assert back.lam == tm_const2.lam
    assert back.C == tm_const2.C
    rr = np.linspace(0.0, 19.0, 101)
    assert np.allclose(back.f(rr), tm_const2.f(rr), atol=1e-12)
    assert np.allclose(back.fprime(rr), tm_const2.fprime(rr), atol=1e-12)


@pytest.mark.parametrize("fault", ["unsorted", "duplicate", "nan"])
def test_load_metric_rejects_bad_radii(tmp_path, tm_const2, fault):
    # a table read from disk must have finite, strictly increasing radii
    csv_path = tmp_path / "metric.csv"
    save_metric(tm_const2, csv_path)
    arr = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    if fault == "unsorted":
        arr[[3, 4]] = arr[[4, 3]]
    elif fault == "duplicate":
        arr[4, 0] = arr[3, 0]
    else:
        arr[4, 0] = np.nan
    np.savetxt(csv_path, arr, delimiter=",", header="r,f,fprime", comments="")
    with pytest.raises(ValueError, match="PCHIP nodes"):
        load_metric(csv_path)
