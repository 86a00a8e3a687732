import math

import numpy as np
import pytest

import cograte.achievable as achievable
from cograte.achievable import _two_block_program, _two_block_rates
from cograte.channel import composite_matrices
from cograte.errors import NonPositivePower, SolverDiverged, ZeroChannel
from cograte.solvers import (
    NEG_INF,
    SolverSettings,
    central_slope,
    golden_section,
    make_group_projection,
    maximize_multistart,
    scan_then_golden,
    waterfill,
)


def test_neg_inf_ordering():
    assert NEG_INF < -1e300
    assert not (NEG_INF > 0.0)
    assert max(NEG_INF, -5.0) == -5.0
    assert NEG_INF == NEG_INF and NEG_INF <= NEG_INF


def test_neg_inf_arithmetic_forbidden():
    with pytest.raises(TypeError):
        NEG_INF + 1.0
    with pytest.raises(TypeError):
        2.0 * NEG_INF


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(starts=0)
    with pytest.raises(ValueError):
        SolverSettings(rel_tol=0.0)
    s = SolverSettings()
    assert s.starts == 16 and s.max_iters == 2000


def test_golden_section_quadratic():
    x, fx = golden_section(lambda t: (t - 1.3) ** 2, -4.0, 5.0, tol=1e-12)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-12)


def _recording(f):
    """``f`` returning ``(value, slope)``, with every x it was called at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


def test_scan_then_golden_flags_two_minima():
    f = lambda t: (math.cos(3 * t), -3 * math.sin(3 * t))  # minima at pi/3 and pi
    res = scan_then_golden(f, np.linspace(0.0, 4.0, 40))
    assert res.non_unimodal


def test_scan_then_golden_flat():
    res = scan_then_golden(lambda t: (1.0, 0.0), np.linspace(0.0, 1.0, 10))
    assert res.flat and res.value == 1.0


def test_slope_search_finds_a_quadratic_minimum_in_few_steps():
    f, seen = _recording(lambda t: ((t - 1.3) ** 2, 2 * (t - 1.3)))
    res = scan_then_golden(f, np.linspace(-4.0, 5.0, 15), tol=1e-10)
    assert res.x == pytest.approx(1.3, abs=1e-10)
    assert (res.edge, res.non_unimodal, res.flat) == (0, False, False)
    assert len(seen) <= 15 + 3  # a linear slope is one secant step from its root
    assert res.x in seen


def test_slope_search_closes_on_a_kink():
    # the slope of |x - c| is a step, so the search bisects down to tol
    c = 0.7734
    f, seen = _recording(lambda t: (abs(t - c), math.copysign(1.0, t - c)))
    res = scan_then_golden(f, np.linspace(-4.0, 5.0, 15), tol=1e-8)
    assert res.x == pytest.approx(c, abs=1e-8)
    assert res.x in seen and res.edge == 0


def test_slope_search_flags_two_minima_and_polishes_the_lower():
    # minima near -1 (value about 0) and +1 (about 0.3): the lower one is polished
    f = lambda t: ((t * t - 1) ** 2 + 0.15 * (1 + t), 4 * t * (t * t - 1) + 0.15)
    g, seen = _recording(f)
    res = scan_then_golden(g, np.linspace(-2.0, 2.0, 21), tol=1e-10)
    assert res.non_unimodal and res.edge == 0
    assert res.x < 0 and f(res.x)[1] == pytest.approx(0.0, abs=1e-8)
    assert res.x in seen and res.value == min(f(x)[0] for x in seen)


@pytest.mark.parametrize("sign, edge", [(1.0, -1), (-1.0, 1)])
def test_slope_search_reports_a_monotone_function_at_its_edge(sign, edge):
    f, seen = _recording(lambda t: (sign * t, sign))
    xs = np.linspace(0.0, 4.0, 10)
    res = scan_then_golden(f, xs)
    assert res.edge == edge and not res.non_unimodal
    assert len(seen) == len(xs)  # an edge is left for the caller to widen, not polished
    assert res.x == (xs[0] if edge < 0 else xs[-1])


def test_slope_search_returns_the_lowest_evaluated_point():
    # a slope that is wrong in sign near the root (as a noisy solve's can be)
    # still leaves an evaluated point, the lowest one seen
    f, seen = _recording(lambda t: ((t - 0.5) ** 2, 2 * (t - 0.5) + 0.01 * math.sin(1e3 * t)))
    res = scan_then_golden(f, np.linspace(-1.0, 2.0, 9), tol=1e-12)
    assert res.x in seen
    assert res.value == min((t - 0.5) ** 2 for t in seen)


def test_central_slope_of_a_value_only_function():
    value, slope = central_slope(math.exp)(0.3)
    assert value == math.exp(0.3)
    assert slope == pytest.approx(math.exp(0.3), rel=1e-9)


def test_group_projection_scales_each_group():
    project = make_group_projection([(np.array([0, 1]), 4.0), (np.array([2]), 1.0)])
    out = project(np.array([[3.0, 4.0, 2.0], [0.1, 0.1, 0.5]]))
    assert np.sum(out[0, :2] ** 2) == pytest.approx(4.0)
    assert out[0, 2] == pytest.approx(1.0)
    assert np.allclose(out[1], [0.1, 0.1, 0.5])  # inside both balls: untouched


def test_group_projection_puts_rows_past_the_float_square_on_the_sphere():
    project = make_group_projection([(np.arange(3), 10.0)])
    rows = np.array([[1e200, 0.0, 0.0], [-3e160, 4e160, 1.0], [3.0, 4.0, 0.0]])
    out = project(rows)
    assert np.sum(out**2, axis=1) == pytest.approx([10.0, 10.0, 10.0], rel=1e-15)
    assert out[0, 0] > 0 and out[1, 1] > 0
    # a row whose sum of squares is finite takes the plain formula
    assert np.array_equal(out[2], rows[2] * np.sqrt(10.0 / 25.0))


def test_multistart_concave_toy():
    # maximize -(theta - c)^2 over the ball of radius 1: optimum is c / ||c||
    c = np.array([2.0, 1.0])

    def objective(thetas):
        thetas = np.atleast_2d(thetas)
        return -np.sum((thetas - c) ** 2, axis=1), lambda: -2.0 * (thetas - c)

    project = make_group_projection([(np.array([0, 1]), 1.0)])
    val, theta = maximize_multistart(
        objective, 2, project, SolverSettings(starts=4, seed=2), scale=1.0
    )
    assert np.allclose(theta, c / np.linalg.norm(c), atol=1e-5)


def test_multistart_raises_on_nan():
    def objective(thetas):
        thetas = np.atleast_2d(thetas)
        return np.full(thetas.shape[0], math.nan), lambda: np.zeros_like(thetas)

    project = make_group_projection([(np.array([0]), 1.0)])
    with pytest.raises(SolverDiverged):
        maximize_multistart(objective, 1, project, SolverSettings(starts=1, seed=0))


def test_multistart_raises_on_non_finite_gradient():
    def objective(thetas):
        thetas = np.atleast_2d(thetas)
        return -np.sum(thetas**2, axis=1), lambda: np.full(thetas.shape, math.nan)

    project = make_group_projection([(np.array([0, 1]), 1.0)])
    with pytest.raises(SolverDiverged, match="gradient"):
        maximize_multistart(objective, 2, project, SolverSettings(starts=1, seed=0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ascent_whose_step_outgrows_the_float_square_runs_clean(monkeypatch, sec7):
    # a broadcast program over coupled noise, [[I, q], [q†, I]], whitened into
    # the cognitive term: on the sum-power ball's boundary the ascent's step
    # grows fourfold per iteration up to the overflow guard, so its candidate
    # rows pass 1e154, whose squares overflow, and the projection takes them
    # onto the sphere in units of their largest entry
    q = np.array([[0.3, -0.2]])
    sigma_z = np.block([[np.eye(1), q], [q.T, np.eye(2)]])
    mats = composite_matrices(sec7, 1.0)
    ga = mats.g_alpha
    kw = np.linalg.solve(np.linalg.cholesky(sigma_z), np.vstack([ga, mats.k]))
    program = _two_block_program(sec7, ga, ga, kw)
    budget, zero = sec7.p_p + sec7.p_c, np.zeros((2, 2))
    starts = [
        (waterfill(ga, budget, real_mode=True)[1], zero),
        (zero, waterfill(kw, budget, real_mode=True)[1]),
        ((0.25 * budget) * np.eye(2), (0.25 * budget) * np.eye(2)),
    ]
    largest = []

    def watched(groups):
        project = make_group_projection(groups)

        def wrapper(theta):
            largest.append(float(np.abs(theta).max()))
            return project(theta)

        return wrapper

    monkeypatch.setattr(achievable, "make_group_projection", watched)
    groups = [(np.arange(program.n_params), budget)]
    theta = achievable._solve(program, 1.0, groups, SolverSettings(starts=4, seed=1), starts)
    q_p, q_c = program.decode(theta)
    value = _two_block_rates(sec7, ga, ga, kw, q_p, q_c).mu_sum(1.0)
    assert value == pytest.approx(3.537974049, abs=1e-6)
    assert np.trace(q_p + q_c) <= budget + 1e-9
    assert max(largest) > 1e150


def test_waterfill_flipped_row_channel():
    capacity, sigma = waterfill(np.array([[1.4435, 0.799]]), 10.0, real_mode=True)
    assert capacity == pytest.approx(2.40934687718198, abs=1e-12)
    assert np.trace(sigma) == pytest.approx(10.0, abs=1e-9)


def test_waterfill_symmetric_diagonal():
    capacity, sigma = waterfill(np.eye(2), 2.0, real_mode=True)
    assert np.allclose(sigma, np.eye(2), atol=1e-9)
    assert capacity == pytest.approx(1.0, abs=1e-12)


def test_waterfill_tiny_power_single_mode():
    capacity, sigma = waterfill(np.diag([2.0, 0.01]), 0.1, real_mode=True)
    assert sigma[0, 0] == pytest.approx(0.1, abs=1e-9)
    assert sigma[1, 1] == pytest.approx(0.0, abs=1e-12)
    assert capacity == pytest.approx(0.5 * math.log2(1 + 4 * 0.1), abs=1e-9)


def test_waterfill_first_order_optimality(rng):
    h = rng.standard_normal((3, 3))
    capacity, sigma = waterfill(h, 4.0)

    def cap_of(s):
        return float(np.linalg.slogdet(np.eye(3) + h @ s @ h.T)[1] / math.log(2))

    assert cap_of(sigma) == pytest.approx(capacity, abs=1e-9)
    for _ in range(20):
        d = rng.standard_normal((3, 3))
        d = 0.5 * (d + d.T)
        d -= np.eye(3) * np.trace(d) / 3.0  # trace-preserving direction
        cand = sigma + 1e-3 * d / np.linalg.norm(d)
        w = np.linalg.eigvalsh(cand)
        if w[0] < 0:
            continue  # left the PSD cone; not a feasible perturbation
        assert cap_of(cand) <= capacity + 1e-6


def test_waterfill_errors():
    with pytest.raises(ZeroChannel):
        waterfill(np.zeros((2, 2)), 1.0)
    with pytest.raises(NonPositivePower):
        waterfill(np.eye(2), 0.0)
