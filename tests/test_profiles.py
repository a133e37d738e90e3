import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfglab.errors import ConfigError
from mfglab.profiles import (make_profile, certify_class_K, constant_profile,
                             double_well_profile, shift_profile)

from profile_reference import scanned_profile


def test_certify_constant_profile_trivial():
    prof = constant_profile(1.0)
    rep = certify_class_K(prof)
    assert rep.integral == 0.0
    assert rep.floor == pytest.approx(1.0)
    assert rep.is_K


def test_certify_integrable_negative_part():
    # kappa(r) = 1 - 4/r: integral over (0,1] of r*(4/r - 1) dr = 4 - 1/2
    prof = make_profile(lambda r: 1.0 - 4.0 / np.maximum(r, 1e-300), r_max=50.0)
    rep = prof.certification
    assert rep.integral == pytest.approx(3.5, abs=1e-9)
    assert rep.is_K


def test_certify_negative_constant_fails():
    prof = constant_profile(-1.0)
    assert not prof.certification.is_K
    assert prof.certification.floor == pytest.approx(-1.0)


def test_non_finite_evaluator_raises():
    with pytest.raises(ConfigError, match="non-finite value"):
        make_profile(lambda r: np.where(r > 1.0, np.nan, 1.0), r_max=10.0)


def test_profile_of_linear_drift_is_constant():
    # the drift -x contracts every pair at rate 1: the constant profile 1
    rr = np.linspace(0.1, 9.0, 40)
    assert np.allclose(scanned_profile(lambda x: -x, rr), 1.0, atol=1e-12)
    assert np.array_equal(constant_profile(1.0)(rr), np.ones_like(rr))


def test_profile_of_double_well_matches_closed_form():
    # grid scan of x - x^3 must reproduce r^2/4 - 1 (midpoint-pair infimum)
    rr = np.linspace(0.05, 7.5, 30)
    scan = scanned_profile(lambda x: x - x ** 3, rr, box=(-10.0, 10.0),
                           n_scan=20001)
    assert np.allclose(scan, rr ** 2 / 4.0 - 1.0, atol=2e-5)
    assert np.allclose(double_well_profile()(rr), scan, atol=2e-5)


def test_shift_profile_grad_mode():
    base = constant_profile(2.0)
    shifted = shift_profile(base, 0.5)
    rr = np.array([0.25, 0.5, 1.0, 3.0])
    assert np.allclose(shifted(rr), 2.0 - 1.0 / rr)
    # integral over (0, 1/2] of r*(1/r - 2) dr = 1/2 - 1/4
    assert shifted.certification.integral == pytest.approx(0.25, abs=1e-9)
    assert shifted.certification.is_K


def test_shift_profile_zero_is_identity():
    base = double_well_profile()
    shifted = shift_profile(base, 0.0)
    rr = np.linspace(0.01, 40.0, 50)
    assert np.array_equal(shifted(rr), base(rr))


def test_shift_profile_hess_mode():
    base = constant_profile(2.0)
    shifted = shift_profile(base, 0.6, mode="hess")
    # the shift is capped at 2c near zero and decays like 2c/r in the tail
    assert shifted(40.0) == pytest.approx(2.0 - 1.2 / 40.0)
    assert shifted(0.5) == pytest.approx(2.0 - 1.2)
    assert shifted.certification.is_K
    # bounded shift keeps the liminf untouched even when 2c exceeds the level
    assert shift_profile(base, 1.5, mode="hess").certification.is_K
    # capped shift dominates the unbounded one pointwise
    grad = shift_profile(base, 0.6, mode="grad")
    rr = np.geomspace(0.01, 40.0, 60)
    assert np.all(shifted(rr) >= grad(rr) - 1e-12)


def scanned_tail_inf(prof, r_lo):
    """tail_inf as a fresh scan: kappa on the sample grid at and past r_lo,
    capped by the floor."""
    grid = prof.sample_grid()
    grid = grid[grid >= r_lo]
    vals = [prof.asymptotic_floor]
    if grid.size:
        vals.append(float(np.min(prof(grid))))
    return float(min(vals))


@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from(["double_well", "constant", "grad", "hess",
                              "wavy"]))
def test_tail_inf_matches_scan(seed, shape):
    rng = np.random.default_rng(seed)
    r_max = rng.uniform(5.0, 80.0)
    if shape == "wavy":     # many local minima, not class K in general
        amp, w, tilt = rng.uniform(0.1, 2.0), rng.uniform(0.5, 20.0), \
            rng.uniform(-0.1, 0.3)
        prof = make_profile(lambda r: tilt * r + amp * np.sin(w * r),
                            r_max=r_max)
    elif shape == "constant":
        prof = constant_profile(rng.uniform(-2.0, 2.0), r_max=r_max)
    else:
        prof = double_well_profile(r_max=r_max)
        if shape != "double_well":
            prof = shift_profile(prof, rng.uniform(0.0, 3.0), mode=shape)
    grid = prof.sample_grid()
    radii = np.concatenate([[0.0, prof.r_min, r_max, 1.5 * r_max, np.inf],
                            rng.choice(grid, 8),
                            rng.uniform(0.0, 1.2 * r_max, 24)])
    for r in radii:
        got = prof.tail_inf(r)
        assert type(got) is float
        assert got == scanned_tail_inf(prof, r), r


def test_tail_inf_rejects_non_finite_kappa_anywhere_on_the_grid():
    # kappa is NaN on (1.5, 2) only: the class-K window (0, 1] and the tail
    # window [r_max/4, r_max] are finite, so the profile certifies, but
    # every tail query reads the whole grid's table and raises, also past
    # the NaN radii and past r_max
    prof = make_profile(lambda r: np.where((r > 1.5) & (r < 2.0), np.nan, 1.0),
                        r_max=50.0)
    assert prof.certification.is_K
    for r in (0.0, 10.0, 60.0):
        with pytest.raises(ConfigError, match="non-finite"):
            prof.tail_inf(r)
