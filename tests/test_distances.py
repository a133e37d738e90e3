import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfglab.distances import w1_grid, w1_samples, tv_grid, f_norm, lip_norm
from mfglab.errors import ConfigError
from mfglab.metrics import build_twisted_metric
from mfglab.profiles import constant_profile
from mfglab.transport import quantile_atoms, wf_atoms, wf_grid
from transport_reference import transport_lp


def gauss(x, m, v):
    return np.exp(-(x - m) ** 2 / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)


@pytest.fixture(scope="module")
def grid():
    return np.linspace(-12.0, 12.0, 4001)


def test_w1_identical_zero(grid):
    p = gauss(grid, 0.0, 1.0)
    assert w1_grid(grid, p, p) == 0.0


def test_w1_gaussian_shift(grid):
    # CDF-shift oracle: translating a density by m costs exactly |m|
    p = gauss(grid, 0.0, 1.0)
    q = gauss(grid, 0.7, 1.0)
    assert w1_grid(grid, p, q) == pytest.approx(0.7, abs=1e-6)


def test_w1_stacked_equals_per_row(grid):
    # one call on stacked densities gives each row's scalar W1, exactly
    means = np.linspace(-1.0, 1.0, 9)
    p = np.stack([gauss(grid, m, 1.0) for m in means])
    q = np.stack([gauss(grid, 0.3 * m, 0.5 + m * m) for m in means])
    stacked = w1_grid(grid, p, q)
    assert stacked.shape == (len(means),)
    np.testing.assert_array_equal(
        stacked, [w1_grid(grid, p[i], q[i]) for i in range(len(means))])
    with pytest.raises(ConfigError, match="is not 1"):
        w1_grid(grid, p, np.concatenate([q[:-1], 2.0 * q[-1:]]))


def test_stacks_against_one_law_equal_per_row(grid):
    # a stack of densities against one law broadcast to its shape gives
    # each row's scalar distance, exactly, for W1 and for TV
    p = np.stack([gauss(grid, m, 0.5 + m * m)
                  for m in np.linspace(-1.0, 1.0, 70)])
    q = gauss(grid, 0.2, 1.0)
    qs = np.broadcast_to(q, p.shape)
    for dist in (w1_grid, tv_grid):
        stacked = dist(grid, p, qs)
        assert stacked.shape == (len(p),)
        np.testing.assert_array_equal(
            stacked, [dist(grid, row, q) for row in p])


def test_w1_samples_matches_grid():
    rng = np.random.default_rng(5)
    a = rng.normal(0.0, 1.0, 40_000)
    b = rng.normal(0.5, 1.0, 40_000)
    assert w1_samples(a, b) == pytest.approx(0.5, abs=2e-2)
    c = rng.normal(0.5, 1.0, 30_000)
    assert w1_samples(a, c) == pytest.approx(0.5, abs=2e-2)


def brute_force_w1(a, b):
    """Integral of |F_a - F_b| over the merged support, in exact rationals:
    on each gap between neighbouring support points the two empirical
    distribution functions are counted afresh."""
    support = sorted(set(a) | set(b))
    total = Fraction(0)
    for lo, hi in zip(support[:-1], support[1:]):
        gap = (Fraction(sum(v <= lo for v in a), len(a))
               - Fraction(sum(v <= lo for v in b), len(b)))
        total += abs(gap) * (Fraction(hi) - Fraction(lo))
    return float(total)


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       m=st.integers(1, 40), ties=st.booleans())
def test_w1_samples_exact_against_brute_force(seed, n, m, ties):
    # equal sizes take the sorted matching, unequal ones the merged CDFs;
    # both must be the exact W1 of the two empirical laws
    rng = np.random.default_rng(seed)
    for size_b in (n, m):
        if ties:     # atoms on a coarse lattice: shared and repeated points
            a = rng.integers(-4, 5, n) * 0.25
            b = rng.integers(-4, 5, size_b) * 0.25 + rng.integers(0, 2) * 0.5
        else:
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3.0), n)
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3.0), size_b)
        exact = brute_force_w1(a.tolist(), b.tolist())
        assert w1_samples(a, b) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_tv_basic(grid):
    p = gauss(grid, 0.0, 1.0)
    assert tv_grid(grid, p, p) == 0.0
    q = gauss(grid, 0.0, 2.0)
    # one-dimensional Gaussians: TV has a closed form via the crossing points
    s1, s2 = 1.0, np.sqrt(2.0)
    xc = np.sqrt(2.0 * np.log(s2 / s1) / (1.0 / s1 ** 2 - 1.0 / s2 ** 2))
    from scipy.stats import norm
    expect = (norm.cdf(xc, 0, s1) - norm.cdf(-xc, 0, s1)) - \
             (norm.cdf(xc, 0, s2) - norm.cdf(-xc, 0, s2))
    assert tv_grid(grid, p, q) == pytest.approx(expect, abs=1e-6)


def test_unnormalized_rejected(grid):
    p = gauss(grid, 0.0, 1.0)
    with pytest.raises(ConfigError, match="density mass"):
        w1_grid(grid, p, 2.0 * p)
    with pytest.raises(ConfigError, match="density mass"):
        tv_grid(grid, 2.0 * p, p)


@pytest.fixture(scope="module")
def tm():
    return build_twisted_metric(constant_profile(1.0, r_max=30.0), 1.0)


def test_wf_point_masses(tm):
    # single atoms at 0 and a: the only coupling ships the whole mass
    for a in (0.5, 1.7, 4.0):
        assert wf_atoms([0.0], [a], tm.f) == pytest.approx(tm.f(a), rel=1e-9)
        assert w1_samples([0.0], [a]) == a


def random_clouds(seed, sizes):
    """Seeded equal-size atom pairs, some sharing atoms (cost f(0) = 0)."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        xa = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 2.0), n)
        xb = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 2.0), n)
        xb[:n // 4] = xa[:n // 4]
        yield xa, xb


def test_wf_atoms_matches_transport_lp(tm):
    sizes = np.random.default_rng(3).integers(2, 129, 24).tolist() + [128]
    for xa, xb in random_clouds(31, sizes):
        w = np.full(len(xa), 1.0 / len(xa))
        ref = transport_lp(xa, w, xb, w, tm.f)
        assert wf_atoms(xa, xb, tm.f) == pytest.approx(ref, rel=1e-7)


def test_wf_atoms_is_the_cheapest_permutation(tm):
    # brute force: an equal-weight plan is optimal at a permutation
    for xa, xb in random_clouds(41, [1, 2, 3, 4, 5, 6] * 4):
        cost = tm.f(np.abs(xa[:, None] - xb[None, :]))
        rows = np.arange(len(xa))
        best = min(cost[rows, list(perm)].sum()
                   for perm in itertools.permutations(rows))
        assert wf_atoms(xa, xb, tm.f) == pytest.approx(best / len(xa),
                                                       rel=1e-12)


def test_wf_atoms_non_finite_cost_raises(tm):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            wf_atoms([bad, 0.0], [1.0, 2.0], tm.f)


def gauss_mixture(x, parts):
    weights = np.array([w for _, _, w in parts])
    return sum(w * gauss(x, m, v) for (m, v, _), w
               in zip(parts, weights / weights.sum()))


mixtures = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.1, 2.0),
                              st.floats(0.1, 1.0)), min_size=1, max_size=3)


@given(p_parts=mixtures, q_parts=mixtures, n_atoms=st.integers(1, 128))
def test_wf_sandwich_random_pairs(grid, tm, p_parts, q_parts, n_atoms):
    atoms_p = quantile_atoms(grid, gauss_mixture(grid, p_parts), n_atoms)
    atoms_q = quantile_atoms(grid, gauss_mixture(grid, q_parts), n_atoms)
    wf = wf_atoms(atoms_p, atoms_q, tm.f)
    w1 = w1_samples(atoms_p, atoms_q)
    assert wf <= w1 * (1.0 + 1e-9)
    assert wf >= tm.C * w1 * (1.0 - 1e-9)


def test_wf_grid_with_cancellation(grid, tm):
    p = gauss(grid, 0.0, 1.0)
    q = gauss(grid, 0.25, 1.0)
    wf = wf_grid(grid, p, q, tm.f)
    w1 = w1_grid(grid, p, q)
    assert 0.0 < wf <= w1 * (1.0 + 1e-6)
    assert wf_grid(grid, p, p, tm.f) == 0.0
    # moving a fraction eps of the mass costs eps times as much, down to
    # residual masses far below any LP feasibility tolerance
    for eps in (1e-2, 1e-4, 1e-6):
        q_eps = (1.0 - eps) * p + eps * q
        assert wf_grid(grid, p, q_eps, tm.f) == pytest.approx(eps * wf,
                                                              rel=1e-9)


def test_f_norm_measures_quadratic():
    x = np.linspace(-3.0, 3.0, 601)
    v = 0.5 * x ** 2
    # Lipschitz seminorm of x^2/2 on [-3,3] is 3 (attained at the edge)
    assert lip_norm(x, v) == pytest.approx(3.0, abs=2e-2)
    got = f_norm(x, v, lambda r: r)
    assert got <= 3.0 + 1e-9


def test_quantile_atoms_mean(grid):
    p = gauss(grid, 1.3, 0.49)
    atoms = quantile_atoms(grid, p, 256)
    assert np.mean(atoms) == pytest.approx(1.3, abs=2e-3)
