"""The table routines of _quad and the turnpike rate fit give scipy's bits.

scipy is imported here only, as the oracle: the package integrates and
interpolates its metric tables with its own code, and a test below checks
that importing the package and certifying every catalog scenario loads no
scipy.stats, scipy.integrate or scipy.interpolate.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, interpolate, stats

import mfglab
from mfglab._quad import Pchip, cumulative_simpson, simpson
from mfglab.mfg import _fit_rate
from mfglab.model import CATALOG_DIR

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


_IMPORT_SURFACE = """
import sys
import mfglab
from mfglab.model import CATALOG_DIR, check_smallness, load_scenario
names = sorted(p.stem for p in CATALOG_DIR.glob("*.json"))
for name in names:
    check_smallness(load_scenario(name))
print(len(names), *sorted(m for m in ("scipy.stats", "scipy.integrate",
                                      "scipy.interpolate")
                          if m in sys.modules))
"""


def test_import_surface_has_no_scipy_stats_integrate_interpolate():
    """A fresh process that certifies every catalog scenario loads only
    the scipy kernels the package calls (lapack, splu, the assignment)."""
    src_dir = str(Path(mfglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SURFACE], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    n_scenarios = len(list(CATALOG_DIR.glob("*.json")))
    assert n_scenarios >= 5
    assert proc.stdout.split() == [str(n_scenarios)]
