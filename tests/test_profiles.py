import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfglab.errors import ConfigError
from mfglab.profiles import (make_profile, certify_class_K, constant_profile,
                             double_well_profile, profile_of_drift,
                             shift_profile)


class ConstantDiffusion1D:
    dim = 1
    is_constant = True

    def sigma_bar_at(self, x):
        return np.zeros((len(x), 1, 1))


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
    prof = profile_of_drift(lambda x: -x, ConstantDiffusion1D(),
                            np.linspace(0.1, 10.0, 25))
    rr = np.linspace(0.1, 9.0, 40)
    assert np.allclose(prof(rr), 1.0, atol=1e-12)


def test_profile_of_double_well_matches_closed_form():
    # grid scan of x - x^3 must reproduce r^2/4 - 1 (midpoint-pair infimum)
    prof = profile_of_drift(lambda x: x - x ** 3, ConstantDiffusion1D(),
                            np.linspace(0.05, 8.0, 20), box=(-10.0, 10.0),
                            n_scan=20001)
    rr = np.linspace(0.05, 7.5, 30)
    assert np.allclose(prof(rr), rr ** 2 / 4.0 - 1.0, atol=2e-5)


def test_profile_of_drift_2d_isotropic():
    class ConstDiff2D:
        dim = 2
        is_constant = True

        def sigma_bar_at(self, x):
            return np.zeros((len(x), 2, 2))

    prof = profile_of_drift(lambda x: -x, ConstDiff2D(),
                            np.linspace(0.2, 5.0, 8), seed=3)
    # exact infimum is 1; the sampled estimate is deflated by 10%
    vals = prof(np.linspace(0.3, 4.0, 9))
    assert np.all(vals <= 1.0 + 1e-9)
    assert np.all(vals >= 0.9 - 1e-9)


def test_sampled_profile_does_not_depend_on_query_order():
    class ConstDiff2D:
        dim = 2
        is_constant = True

        def sigma_bar_at(self, x):
            return np.zeros((len(x), 2, 2))

    def build():
        return profile_of_drift(lambda x: -x - 0.3 * x ** 3, ConstDiff2D(),
                                np.linspace(0.2, 5.0, 8), seed=3)

    radii = [1.7, 2.0, 3.0]
    one, two = build(), build()
    forward = [one(r) for r in radii]
    backward = [two(r) for r in radii[::-1]][::-1]
    assert forward == backward


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


def test_empty_radius_grid_rejected():
    with pytest.raises(ConfigError, match="empty radius grid"):
        profile_of_drift(lambda x: -x, ConstantDiffusion1D(), np.array([]))


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
