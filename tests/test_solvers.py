import math

import numpy as np
import pytest

from cograte.errors import NonPositivePower, SolverDiverged, ZeroChannel
from cograte.solvers import (
    NEG_INF,
    SolverSettings,
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
        SolverSettings(gap=1e-12, rel_tol=1e-9)
    s = SolverSettings()
    assert s.starts == 16 and s.max_iters == 2000


def test_golden_section_quadratic():
    x, fx = golden_section(lambda t: (t - 1.3) ** 2, -4.0, 5.0, tol=1e-12)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_scan_then_golden_flags_two_minima():
    f = lambda t: math.cos(3 * t)  # minima near t = pi/3 and t = pi
    res = scan_then_golden(f, np.linspace(0.0, 4.0, 40))
    assert res.non_unimodal


def test_scan_then_golden_flat():
    res = scan_then_golden(lambda t: 1.0, np.linspace(0.0, 1.0, 10))
    assert res.flat and res.value == 1.0


def test_group_projection_scales_each_group():
    project = make_group_projection([(np.array([0, 1]), 4.0), (np.array([2]), 1.0)])
    out = project(np.array([[3.0, 4.0, 2.0], [0.1, 0.1, 0.5]]))
    assert np.sum(out[0, :2] ** 2) == pytest.approx(4.0)
    assert out[0, 2] == pytest.approx(1.0)
    assert np.allclose(out[1], [0.1, 0.1, 0.5])  # inside both balls: untouched


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
