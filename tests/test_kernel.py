"""Property tests of the tridiagonal kernel and the blocked solvers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfglab.control import (_BLOCK, MeasureFlow, TridiagLU, ValueFunction,
                            apply_bands, gradient_bands,
                            gradient_second_order, optimal_flow,
                            solve_fokker_planck, solve_hjb, tridiag_solve,
                            upwind_gradient)
from mfglab.errors import NumericalError
from mfglab.model import (Grid1D, constant_diffusion, load_scenario, policy,
                          varying_diffusion)


def dominant_system(n, seed, scale):
    """Random strictly diagonally dominant tridiagonal system."""
    rng = np.random.default_rng(seed)
    sub = scale * rng.uniform(-1.0, 1.0, n - 1)
    sup = scale * rng.uniform(-1.0, 1.0, n - 1)
    off = np.zeros(n)
    off[1:] += np.abs(sub)
    off[:-1] += np.abs(sup)
    sign = rng.choice([-1.0, 1.0], n)
    diag = sign * (off + scale * rng.uniform(0.1, 2.0, n))
    dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    return sub, diag, sup, dense, rng


@given(n=st.integers(3, 80), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_tridiag_matches_dense_solve(n, seed, scale):
    sub, diag, sup, dense, rng = dominant_system(n, seed, scale)
    lu = TridiagLU(sub, diag, sup)
    for _ in range(3):
        rhs = rng.normal(size=n)
        ref = np.linalg.solve(dense, rhs)
        tol = 1e-12 * np.max(np.abs(ref))
        one_shot = tridiag_solve(sub.copy(), diag.copy(), sup.copy(),
                                 rhs.copy())
        assert np.max(np.abs(one_shot - ref)) <= tol
        assert np.max(np.abs(lu.solve(rhs.copy()) - ref)) <= tol


def test_tridiag_singular_raises():
    # rows 0 and 1 coincide: elimination meets an exactly zero pivot
    sub, diag, sup = np.array([1.0, 0.0]), np.ones(3), np.array([1.0, 0.0])
    with pytest.raises(NumericalError, match="dgtsv"):
        tridiag_solve(sub.copy(), diag.copy(), sup.copy(), np.ones(3))
    with pytest.raises(NumericalError, match="dgttrf"):
        TridiagLU(sub, diag, sup)
    with pytest.raises(NumericalError, match="dgtsv failed"):
        tridiag_solve(np.zeros(3), np.zeros(4), np.zeros(3), np.ones(4))


@given(n=st.integers(3, 64), seed=st.integers(0, 2 ** 32 - 1),
       dx=st.floats(1e-3, 10.0), upwind=st.booleans())
def test_gradient_bands_match_the_stencil(n, seed, dx, upwind):
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=n)
    if upwind:
        # exact zeros keep central rows among the one-sided ones
        direction = rng.choice([-1.0, 0.0, 1.0], n) * rng.uniform(0.1, 5.0, n)
        ref = upwind_gradient(phi, dx, direction)
    else:
        direction, ref = None, gradient_second_order(phi, dx)
    bands = gradient_bands(n, dx, direction)
    got = np.zeros(n)
    for k, c in bands.items():
        for i in range(n):
            if 0 <= i + k < n:
                got[i] += c[i] * phi[i + k]
            else:
                assert c[i] == 0.0          # no weight off the grid
    tol = 1e-12 * np.max(np.abs(phi)) / dx
    assert np.max(np.abs(got - ref)) <= tol
    assert np.max(np.abs(apply_bands(bands, phi) - ref)) <= tol


def fp_grid():
    return Grid1D(-4.0, 4.0, 81, 1e-3)


@given(pull=st.floats(0.0, 3.0), push=st.floats(-2.0, 2.0),
       wobble=st.floats(0.0, 2.0), omega=st.floats(0.0, 40.0),
       theta=st.sampled_from([0.5, 1.0]), mean=st.floats(-2.0, 2.0))
def test_fp_mass_and_positivity_random_drifts(pull, push, wobble, omega,
                                              theta, mean):
    grid = fp_grid()

    def beta(t, x):
        # time-dependent: t is a column of step times, the result (B, n)
        return -pull * x + push * np.tanh(x) + wobble * np.sin(omega * t)

    m0 = np.exp(-(grid.xs - mean) ** 2 / 0.5)
    flow = solve_fokker_planck(grid, 0.2, constant_diffusion(1.0), beta, m0,
                               theta=theta)
    mass = flow.densities.sum(axis=1) * grid.dx
    assert np.max(np.abs(mass - 1.0)) <= 1e-6
    assert np.min(flow.densities) >= 0.0
    # a time-invariant drift may return one row that broadcasts
    still = solve_fokker_planck(grid, 0.2, constant_diffusion(1.0),
                                lambda t, x: -pull * x + push * np.tanh(x),
                                m0, theta=theta)
    mass = still.densities.sum(axis=1) * grid.dx
    assert np.max(np.abs(mass - 1.0)) <= 1e-6
    assert np.min(still.densities) >= 0.0


def dense_fp_reference(grid, diffusion, beta, m0, n_steps, theta, rannacher):
    """Per-step exponential-fitting solve with dense matrices."""
    xs, dx, dt = grid.xs, grid.dx, grid.dt
    n = len(xs)
    x_mid = 0.5 * (xs[1:] + xs[:-1])
    D_nodes = 0.5 * diffusion.sigma_at(xs) ** 2
    D_mid = 0.5 * (D_nodes[1:] + D_nodes[:-1])
    drift_shift = (D_nodes[1:] - D_nodes[:-1]) / dx
    m = m0 / (np.sum(m0) * dx)
    out = [m]
    for k in range(n_steps):
        b = np.broadcast_to(beta((k + 0.5) * dt, x_mid), x_mid.shape) \
            - drift_shift
        w = b * dx / D_mid
        weight = np.where(np.abs(w) < 1e-6, 0.5 - w / 12.0,
                          1.0 / w - 1.0 / np.expm1(w))
        A = np.zeros((n, n))
        for i in range(n - 1):
            # flux through face i+1/2 leaves cell i and enters cell i+1
            lo = b[i] * (1.0 - weight[i]) + D_mid[i] / dx
            hi = b[i] * weight[i] - D_mid[i] / dx
            A[i, i] -= lo / dx
            A[i, i + 1] -= hi / dx
            A[i + 1, i] += lo / dx
            A[i + 1, i + 1] += hi / dx
        th = 1.0 if k < rannacher else theta
        eye = np.eye(n)
        m = np.linalg.solve(eye - th * dt * A, (eye + (1.0 - th) * dt * A) @ m)
        m = np.maximum(m, 0.0)
        out.append(m)
    return np.array(out)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_blocked_fp_matches_dense_per_step(theta):
    # n_steps crosses a block boundary; the first two steps are implicit
    grid = Grid1D(-3.0, 3.0, 41, 1e-3)
    n_steps = _BLOCK + 3
    diffusion = varying_diffusion(lambda x: 1.0 + 0.2 * np.tanh(x), 0.5,
                                  0.5, 0.2)

    def beta(t, x):
        return -x + 0.8 * np.sin(30.0 * t) * np.cos(x)

    m0 = np.exp(-(grid.xs - 0.5) ** 2)
    flow = solve_fokker_planck(grid, n_steps * grid.dt, diffusion, beta, m0,
                               theta=theta)
    ref = dense_fp_reference(grid, diffusion, beta, m0, n_steps, theta, 2)
    assert flow.densities.shape == ref.shape
    assert np.max(np.abs(flow.densities - ref)) <= 1e-12 * np.max(ref)


@given(seed=st.integers(0, 2 ** 32 - 1), n_x=st.integers(5, 40),
       theta=st.sampled_from([0.5, 1.0]), steady=st.booleans())
def test_one_solve_theta_step_matches_dense(seed, n_x, theta, steady):
    # random generators: random drift (steady or time-dependent), diffusion
    # and initial density on a random grid size
    rng = np.random.default_rng(seed)
    grid = Grid1D(-3.0, 3.0, n_x, 1e-3)
    n_steps = 12
    c = rng.uniform(-2.0, 2.0, 4)
    amp = rng.uniform(0.0, 0.4)
    diffusion = varying_diffusion(lambda x: 1.0 + amp * np.tanh(c[3] * x),
                                  0.4, 1.0, 0.4 * abs(c[3]))

    def beta(t, x):
        still = c[0] * x + c[1] * np.sin(x)
        return still if steady else still + c[2] * np.cos(40.0 * t + x)

    m0 = rng.uniform(0.0, 1.0, n_x)
    flow = solve_fokker_planck(grid, n_steps * grid.dt, diffusion, beta, m0,
                               theta=theta)
    ref = dense_fp_reference(grid, diffusion, beta, m0, n_steps, theta, 2)
    assert flow.densities.shape == ref.shape
    assert np.max(np.abs(flow.densities - ref)) <= 1e-12 * np.max(ref)
    mass = flow.densities.sum(axis=1) * grid.dx
    assert np.max(np.abs(np.diff(mass))) <= 1e-12


def scalar_at(flow, t):
    """Linear interpolation of one stored density row at the time t."""
    ts = flow.times
    if t <= ts[0]:
        return flow.densities[0]
    if t >= ts[-1]:
        return flow.densities[-1]
    i = int(np.searchsorted(ts, t))
    w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
    return (1.0 - w) * flow.densities[i - 1] + w * flow.densities[i]


@given(seed=st.integers(0, 2 ** 32 - 1), n_times=st.integers(1, 30),
       n_extra=st.integers(0, 20))
def test_measure_flow_at_array_matches_scalar(seed, n_times, n_extra):
    rng = np.random.default_rng(seed)
    times = np.cumsum(np.concatenate([[0.0],
                                      rng.uniform(1e-3, 1.0, n_times - 1)]))
    T = times[-1]
    dens = rng.uniform(0.0, 1.0, (n_times, 9))
    flow = MeasureFlow(times=times, xs=np.arange(9.0), densities=dens)
    ts = np.concatenate([[0.0, T], times,
                         rng.uniform(-0.5, T + 0.5, n_extra)])
    rng.shuffle(ts)
    rows = flow.at(ts)
    stacked = np.stack([flow.at(float(s)) for s in ts])
    reference = np.stack([scalar_at(flow, float(s)) for s in ts])
    assert rows.shape == (len(ts), 9)
    assert rows.tobytes() == stacked.tobytes() == reference.tobytes()
    # a column of times, as the value solver passes them, gives the rows
    assert flow.at(ts[:, None]).tobytes() == rows.tobytes()
    np.testing.assert_array_equal(flow.at(times), dens)


@given(seed=st.integers(0, 2 ** 32 - 1), n_times=st.integers(1, 20),
       n_x=st.integers(2, 300))
def test_measure_flow_moment_matches_trapezoid(seed, n_times, n_x):
    # the matrix-vector moment is the trapezoid of |x| times each slice
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-10.0, 5.0)
    xs = np.linspace(lo, lo + rng.uniform(1e-2, 20.0), n_x)
    dens = rng.uniform(1e-3, 2.0, (n_times, n_x))
    flow = MeasureFlow(times=np.arange(float(n_times)), xs=xs, densities=dens)
    reference = np.trapezoid(np.abs(xs) * dens, xs, axis=1)
    np.testing.assert_allclose(flow.moment(), reference, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_value_grad_at_one_slice():
    # solve_hjb at T = 0 stores one slice; every time, the stored one
    # included, reads its gradient, with no 0/0 weight
    sc = load_scenario("ou", {"grid.n_x": 61})
    g = 0.1 * sc.grid.xs ** 2
    value = solve_hjb(sc.grid, 0.0, sc.diffusion, sc.drift.b,
                      sc.running_cost, g)
    assert value.grad.shape == (1, 61)
    for t in (0.0, 0.5, -1.0):
        np.testing.assert_array_equal(value.grad_at(t), value.grad[0])
    ts = np.array([0.0, -1.0, 0.0, 2.0])
    np.testing.assert_array_equal(value.grad_at(ts),
                                  np.tile(value.grad[0], (4, 1)))


def test_hjb_block_source_matches_per_step_rows():
    # n_steps crosses two block boundaries and ends inside a block
    sc = load_scenario("ou", {"grid.n_x": 61, "grid.dt": 1e-3})
    grid, xs = sc.grid, sc.grid.xs
    n_steps = 2 * _BLOCK + 5
    T = n_steps * grid.dt
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, T, 11)
    table = MeasureFlow(times=times, xs=xs,
                        densities=rng.normal(size=(len(times), len(xs))))
    seen = []

    def block(t, x):
        seen.append(np.array(t))
        return table.at(t)

    def per_row(t, x):
        return np.stack([table.at(float(s)) for s in np.ravel(t)])

    g = 0.1 * xs ** 2
    blocked = solve_hjb(grid, T, sc.diffusion, sc.drift.b, sc.running_cost,
                        g, source=block)
    rows = solve_hjb(grid, T, sc.diffusion, sc.drift.b, sc.running_cost, g,
                     source=per_row)
    np.testing.assert_array_equal(blocked.phi, rows.phi)
    np.testing.assert_array_equal(blocked.grad, rows.grad)
    assert all(t.ndim == 2 and t.shape[1] == 1 for t in seen)
    np.testing.assert_array_equal(np.concatenate(seen).ravel(),
                                  np.arange(n_steps, 0, -1) * grid.dt)


def test_optimal_flow_matches_per_step_interpolation():
    # the blocked time-then-space interpolation of the stored gradients
    # reproduces np.interp of grad_at(t) step by step, bit for bit
    sc = load_scenario("ou", {"grid.n_x": 61, "grid.dt": 1e-3})
    xs = sc.grid.xs
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 0.1, 7)
    grad = np.cumsum(rng.normal(size=(len(times), len(xs))), axis=0) * 0.1
    value = ValueFunction(times=times, xs=xs, phi=np.zeros_like(grad),
                          grad=grad)
    cost = sc.running_cost

    def per_step(t, x):
        rows = [np.interp(x, xs, value.grad_at(float(s))) for s in t.ravel()]
        return sc.drift.b(x) + policy(cost, x, np.array(rows))

    m0 = sc.mu0.density(xs)
    blocked = optimal_flow(value, sc, m0)
    reference = solve_fokker_planck(sc.grid, 0.1, sc.diffusion, per_step, m0)
    np.testing.assert_array_equal(blocked.densities, reference.densities)
