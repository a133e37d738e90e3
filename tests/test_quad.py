"""The table routines of _quad and the turnpike rate fit give scipy's bits,
and the level-by-level adaptive Simpson gives the classic recursion's.

scipy.stats, scipy.integrate and scipy.interpolate are imported here only,
as the oracle: the package integrates and interpolates its metric tables
with its own code (test_package checks what importing it loads).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, interpolate, stats

from mfglab._quad import Pchip, adaptive_simpson, cumulative_simpson, simpson
from mfglab.errors import NumericalError
from mfglab.mfg import _fit_rate
from simpson_reference import recursive_simpson

KINDS = ("random", "flat", "zero_runs", "sign_changes", "monotone")


def table(seed, n, kind):
    """Strictly increasing uneven nodes and data of the given kind."""
    rng = np.random.default_rng(seed)
    # spacings over six decades, so neighbouring steps differ widely
    x = rng.uniform(-5.0, 5.0) + np.cumsum(
        np.concatenate([[0.0], np.exp(rng.uniform(-9.0, 1.0, n - 1))]))
    if kind == "random":
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    elif kind == "flat":
        y = np.full(n, rng.normal())
    elif kind == "zero_runs":
        # repeated values give runs of zero secant slope
        y = np.repeat(rng.normal(size=n), rng.integers(1, 4, n))[:n]
    elif kind == "sign_changes":
        y = np.cumsum(rng.choice([-1.0, 0.0, 1.0], n) * rng.uniform(0.1, 2.0, n))
    else:
        y = np.cumsum(rng.exponential(size=n))
    return x, y


def queries(x, rng):
    """Nodes, points between nodes, the last node and both outer sides."""
    span = x[-1] - x[0]
    between = x[:-1] + rng.uniform(0.0, 1.0, len(x) - 1) * np.diff(x)
    outside = np.concatenate([x[0] - span * rng.uniform(0.0, 2.0, 3),
                              x[-1] + span * rng.uniform(0.0, 2.0, 3)])
    return np.concatenate([x, between, [x[-1], x[0]], outside])


grids = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 40),
             kind=st.sampled_from(KINDS))


@given(**grids)
def test_pchip_matches_scipy(seed, n, kind):
    # the 2-node (linear) and 3-node tables ride along with every draw
    for size in (2, 3, n):
        x, y = table(seed, size, kind)
        ours = Pchip(x, y)
        ref = interpolate.PchipInterpolator(x, y, extrapolate=True)
        assert ours.c.tobytes() == ref.c.tobytes()
        q = queries(x, np.random.default_rng(seed + 1))
        assert ours(q).tobytes() == ref(q).tobytes()
        # a 2-D array of points gives the same values in its shape
        assert ours(q[:, None]).tobytes() == ref(q[:, None]).tobytes()
        for v in q:
            value = ours(float(v))
            assert type(value) is float
            assert value == float(ref(v))


def test_pchip_rejects_what_scipy_rejects():
    x, y = table(0, 6, "random")
    bad = [(x[:1], y[:1]), (x, y[:-1]), (x[::-1], y), (x[[0, 1, 1, 2, 3, 4]], y),
           (np.where(x == x[2], np.nan, x), y), (x, np.where(x == x[2], np.inf, y))]
    for xb, yb in bad:
        with pytest.raises(ValueError):
            interpolate.PchipInterpolator(xb, yb)
        with pytest.raises(ValueError, match="PCHIP"):
            Pchip(xb, yb)


@given(**grids)
def test_cumulative_simpson_matches_scipy(seed, n, kind):
    # odd and even node counts; 2 nodes take the trapezoid
    for size in (2, 3, n):
        x, y = table(seed, size, kind)
        ours = cumulative_simpson(y, x)
        ref = integrate.cumulative_simpson(y, x=x, initial=0.0)
        assert ours.tobytes() == ref.tobytes()


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 20),
       kind=st.sampled_from(KINDS))
def test_simpson_matches_scipy(seed, n, kind):
    x, y = table(seed, 2 * n + 1, kind)
    assert simpson(y, x) == integrate.simpson(y, x=x)
    with pytest.raises(ValueError, match="odd number"):
        simpson(y[1:], x[1:])
    # the kernel quadrature's 257-node pre-pass: a list of samples
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 2.0)
    xs = np.linspace(a, a + rng.uniform(1e-3, 10.0), 257)
    ys = [float(v) for v in np.exp(-rng.uniform(0.1, 3.0) * xs) * xs]
    assert simpson(ys, xs) == integrate.simpson(ys, x=xs)


def outcome(integrate_fn, fn, a, b, **kw):
    """The integral, or the message of the NumericalError it raised."""
    try:
        return integrate_fn(fn, a, b, **kw)
    except NumericalError as exc:
        return str(exc)


def simpson_cases(seed, n, kind):
    """(integrand, interval, size) triples: a PCHIP table read past both
    of its ends, and a smooth exponential over up to a dozen decades; size
    bounds the integral's magnitude."""
    rng = np.random.default_rng(seed)
    x, y = table(seed, n, kind)
    span = x[-1] - x[0]
    a = x[0] + span * rng.uniform(-0.2, 0.9)
    b = a + span * rng.uniform(0.0, 1.3)
    fn = Pchip(x, y)
    yield fn, a, b, size(fn, a, b)
    amp, rate = 10.0 ** rng.uniform(-12, 2), rng.uniform(-2.0, 6.0)
    a = rng.uniform(-1.0, 3.0)
    b = a + rng.uniform(0.0, 8.0)
    fn = lambda v: amp * np.exp(-rate * v) * (1.0 + v * v)
    yield fn, a, b, size(fn, a, b)


def size(fn, a, b):
    return float(np.max(np.abs(fn(np.linspace(a, b, 65))))) * (b - a) + 1e-300


# absolute budgets down to 1e-12 of the integral's size: the double
# rounding of the error estimate, near 1e-16 of it, stays well inside
@given(**grids, log_tol=st.floats(-12.0, -3.0),
       rel=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
def test_adaptive_simpson_matches_recursion(seed, n, kind, log_tol, rel):
    for fn, a, b, scale in simpson_cases(seed, n, kind):
        kw = dict(tol=10.0 ** log_tol * scale, rel=rel)
        got = adaptive_simpson(fn, a, b, **kw)
        assert type(got) is float
        assert got == recursive_simpson(fn, a, b, **kw)
        # an empty or reversed interval integrates to 0
        assert adaptive_simpson(fn, b, a, **kw) == 0.0


@given(**grids, max_depth=st.integers(0, 7))
def test_adaptive_simpson_depth_limit_matches_recursion(seed, n, kind,
                                                        max_depth):
    # tight budgets and few levels: the same interval is reported stuck, or
    # both accept with the same bits
    for fn, a, b, scale in simpson_cases(seed, n, kind):
        kw = dict(tol=1e-13 * scale, max_depth=max_depth)
        got = outcome(adaptive_simpson, fn, a, b, **kw)
        assert got == outcome(recursive_simpson, fn, a, b, **kw)
    # a kink inside the interval never meets the budget in 7 levels
    kink = lambda v: np.abs(v - 0.3)
    kw = dict(tol=1e-13, max_depth=max_depth)
    got = outcome(adaptive_simpson, kink, 0.0, 1.0, **kw)
    assert got.startswith("adaptive Simpson stuck on [")
    assert got == outcome(recursive_simpson, kink, 0.0, 1.0, **kw)
    # a jump never meets any budget: only the width rule accepts the
    # interval that holds it, some 47 halvings down
    jump = 0.1 + 0.8 * np.random.default_rng(seed).random()
    step = lambda v: np.where(v < jump, 0.0, 1.0)
    got = adaptive_simpson(step, 0.0, 1.0, tol=1e-13)
    assert got == recursive_simpson(step, 0.0, 1.0, tol=1e-13)
    assert got == pytest.approx(1.0 - jump, abs=1e-13)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 60))
def test_fit_rate_matches_linregress(seed, n):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 8.0, n))
    values = np.exp(-rng.uniform(0.1, 3.0) * times + rng.normal(0.0, 0.3, n))
    floor = float(np.quantile(values, rng.uniform(0.0, 0.5)))
    mask = (values > max(3.0 * floor, 1e-12)) & np.isfinite(values)
    slope = _fit_rate(times, values, floor)
    if np.sum(mask) < 3:
        assert slope is None
    else:
        ref = stats.linregress(times[mask], np.log(values[mask])).slope
        assert slope == float(ref)
