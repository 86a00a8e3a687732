import itertools
import math

import numpy as np
import pytest
from conftest import covariance_rates, ladder, polish_report, record_polish

import cograte.achievable as achievable
from cograte.achievable import _dpc_matrices, _two_block_program
from cograte.channel import CognitiveChannel, composite_matrices
from cograte.errors import BracketUnbounded, NonPositivePower, SolverDiverged, ZeroChannel
from cograte.outer import _bound_corners, _power_split_bound, mu_sum_partial_outer
from cograte.solvers import (
    _GRADIENT_TOL,
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
    assert s.starts == 16 and s.max_iters == 20


@pytest.mark.parametrize("field, value", [
    ("starts", 0), ("starts", 2.5), ("starts", True), ("max_iters", 0), ("max_iters", 2.5),
    ("rel_tol", 0.0), ("rel_tol", -1e-9), ("rel_tol", math.inf), ("rel_tol", math.nan),
    ("rel_tol", "1e-9"), ("rel_tol", True),
    ("seed", -1), ("seed", 1.5), ("seed", "1"), ("seed", False),
])
def test_settings_reject_a_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SolverSettings(**{field: value})


def test_settings_take_any_index_integer():
    s = SolverSettings(starts=np.int64(3), max_iters=np.int32(5), seed=np.uint8(7))
    assert (s.starts, s.max_iters, s.seed) == (3, 5, 7)
    assert SolverSettings(rel_tol=np.float64(1e-6)).rel_tol == 1e-6


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
    # minima at pi/3 and pi; the scan starts past 0, where the slope is -0.0 (an edge)
    f = lambda t: (math.cos(3 * t), -3 * math.sin(3 * t))
    res = scan_then_golden(f, np.linspace(0.1, 4.0, 40))
    assert res.non_unimodal and res.widened == (0, 0)


def test_scan_then_golden_flat():
    res = scan_then_golden(lambda t: (1.0, 0.0), np.linspace(0.0, 1.0, 10))
    assert res.flat and res.value == 1.0


def test_slope_search_finds_a_quadratic_minimum_in_few_steps():
    f, seen = _recording(lambda t: ((t - 1.3) ** 2, 2 * (t - 1.3)))
    res = scan_then_golden(f, np.linspace(-4.0, 5.0, 15), tol=1e-10)
    assert res.x == pytest.approx(1.3, abs=1e-10)
    assert (res.widened, res.non_unimodal, res.flat) == ((0, 0), False, False)
    assert len(seen) <= 15 + 3  # a linear slope is one secant step from its root
    assert res.x in seen


def test_slope_search_closes_on_a_kink():
    # the slope of |x - c| is a step, so the search bisects down to tol
    c = 0.7734
    f, seen = _recording(lambda t: (abs(t - c), math.copysign(1.0, t - c)))
    res = scan_then_golden(f, np.linspace(-4.0, 5.0, 15), tol=1e-8)
    assert res.x == pytest.approx(c, abs=1e-8)
    assert res.x in seen and res.widened == (0, 0)


def test_slope_search_flags_two_minima_and_polishes_the_lower():
    # minima near -1 (value about 0) and +1 (about 0.3): the lower one is polished
    f = lambda t: ((t * t - 1) ** 2 + 0.15 * (1 + t), 4 * t * (t * t - 1) + 0.15)
    g, seen = _recording(f)
    res = scan_then_golden(g, np.linspace(-2.0, 2.0, 21), tol=1e-10)
    assert res.non_unimodal and res.widened == (0, 0)
    assert res.x < 0 and f(res.x)[1] == pytest.approx(0.0, abs=1e-8)
    assert res.x in seen and res.value == min(f(x)[0] for x in seen)


@pytest.mark.parametrize("sign, edge", [(1.0, -1), (-1.0, 1)])
def test_slope_search_widens_past_a_monotone_edge_three_times_then_raises(sign, edge):
    f, seen = _recording(lambda t: (sign * t, sign))
    xs = np.linspace(0.0, 4.0, 10)
    with pytest.raises(BracketUnbounded, match="bracket edge"):
        scan_then_golden(f, xs)
    # one point ln 10 (a tenfold alpha) further past the falling end each time
    end = xs[0] if edge < 0 else xs[-1]
    assert seen == list(xs) + [end + edge * k * math.log(10.0) for k in (1, 2, 3)]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_slope_search_widens_to_a_minimum_past_either_edge(sign):
    # the minimum at +-5 lies past one end of the scan over [-1, 1]: the
    # second point added there, 1 + 2 ln 10 = 5.6 from the centre, passes it
    c = 5.0 * sign
    f, seen = _recording(lambda t: ((t - c) ** 2, 2 * (t - c)))
    xs = np.linspace(-1.0, 1.0, 5)
    res = scan_then_golden(f, xs, tol=1e-10)
    assert res.x == pytest.approx(c, abs=1e-10) and res.x in seen
    assert res.widened == ((0, 2) if sign > 0 else (2, 0))
    assert not res.non_unimodal and not res.flat


def test_slope_search_widens_the_lower_end_first():
    # a maximum at -0.2 leaves both end slopes pointing out of [-1, 1]; the
    # high end is the lower one and stays so, so every added point goes there
    f, seen = _recording(lambda t: (-((t + 0.2) ** 2), -2 * (t + 0.2)))
    with pytest.raises(BracketUnbounded):
        scan_then_golden(f, np.linspace(-1.0, 1.0, 3))
    assert seen[3:] == pytest.approx([1.0 + k * math.log(10.0) for k in (1, 2, 3)])


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


def _gathered_projection(groups, rows):
    """Each group's rows gathered, scaled onto its ball when outside: the
    projection as first written."""
    want = rows.copy()
    for idx, budget in groups:
        sq = np.sum(rows[:, idx] ** 2, axis=1)
        want[:, idx] = rows[:, idx] * np.where(sq > budget, np.sqrt(budget / sq), 1.0)[:, None]
    return want


def test_group_projection_sums_squares_as_a_gathered_copy(rng):
    # contiguous groups are scaled through slice views; summing the squares
    # of a view rounds differently in the last bit for most rows of 8 entries
    # or more, which moved every multi-antenna solve
    groups = [(np.arange(0, 9), 3.0), (np.arange(9, 20), 5.0)]
    rows = rng.standard_normal((200, 20))
    assert np.array_equal(make_group_projection(groups)(rows), _gathered_projection(groups, rows))


def test_group_projection_of_scattered_groups_is_exact(rng):
    groups = [(np.array([0, 2, 5]), 2.0), (np.array([4, 1]), 0.5), (np.array([3]), 1.0)]
    project = make_group_projection(groups)
    rows = 2.0 * rng.standard_normal((40, 6))
    assert np.array_equal(project(rows), _gathered_projection(groups, rows))
    # past the float square, each scattered group still lands on its sphere
    out = project(np.array([[1e200, 3.0, -1e200, 5.0, 4e160, 2e180]]))
    for idx, budget in groups:
        assert np.sum(out[0, idx] ** 2) == pytest.approx(budget, rel=1e-15)


def test_momentum_table_is_the_recurrence_to_the_bit():
    from cograte.solvers import _MAX_MOMENTUM, _momentum_table

    t_next, extrapolate, advance = _momentum_table()
    t, place = np.ones(1), 0
    for _ in range(2 * len(t_next)):
        after = np.minimum(0.5 + np.sqrt(0.25 + t * t), _MAX_MOMENTUM)
        assert t_next[place] == after[0] and extrapolate[place] == ((t - 1.0) / after)[0]
        t, place = after, advance[place]
    assert t[0] == _MAX_MOMENTUM and place == len(t_next) - 1


def test_multistart_concave_toy():
    # maximize -(theta - c)^2 over the ball of radius 1: optimum is c / ||c||
    c = np.array([2.0, 1.0])

    def objective(thetas):
        thetas = np.atleast_2d(thetas)
        return lambda w: -np.sum((thetas - c) ** 2, axis=1), lambda w: -2.0 * (thetas - c)

    project = make_group_projection([(np.array([0, 1]), 1.0)])
    val, theta = maximize_multistart(
        objective, 2, project, SolverSettings(starts=4, seed=2), [[1.0]], scale=1.0
    )
    assert np.allclose(theta, c / np.linalg.norm(c), atol=1e-5)


def test_multistart_raises_on_nan():
    def objective(thetas):
        thetas = np.atleast_2d(thetas)
        return lambda w: np.full(thetas.shape[0], math.nan), lambda w: np.zeros_like(thetas)

    project = make_group_projection([(np.array([0]), 1.0)])
    with pytest.raises(SolverDiverged):
        maximize_multistart(objective, 1, project, SolverSettings(starts=1, seed=0), [[1.0]])


def test_multistart_raises_on_non_finite_gradient():
    def objective(thetas):
        thetas = np.atleast_2d(thetas)
        return lambda w: -np.sum(thetas**2, axis=1), lambda w: np.full(thetas.shape, math.nan)

    project = make_group_projection([(np.array([0, 1]), 1.0)])
    with pytest.raises(SolverDiverged, match="gradient"):
        maximize_multistart(objective, 2, project, SolverSettings(starts=1, seed=0), [[1.0]])


def _loop_ascent(objective, n_params, project, settings, w, scale, extra_starts):
    """One weighting's ascent with its per-start extrapolation and update as
    a Python loop: the reference that the lockstep ascent must reproduce
    exactly."""
    from cograte.solvers import _LADDER, _MAX_MOMENTUM, _MAX_STEP

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(settings.seed)))
    starts = list(extra_starts)
    for i in range(settings.starts):
        starts.append(scale * (0.3 if i % 2 else 1.0) * rng.standard_normal(n_params))
    thetas = project(np.asarray(starts, dtype=float))
    vals = objective(thetas)[0](w)
    prev = thetas.copy()
    t = [1.0] * len(thetas)
    step = np.full(len(thetas), 0.25 * scale)
    stall = np.zeros(len(thetas), dtype=int)
    active = np.ones(len(thetas), dtype=bool)
    for _ in range(settings.max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        t_next = [min((1.0 + math.sqrt(1.0 + 4.0 * t[s] * t[s])) / 2.0, _MAX_MOMENTUM) for s in idx]
        y = np.array([
            thetas[s] + ((t[s] - 1.0) / tn) * (thetas[s] - prev[s]) for s, tn in zip(idx, t_next)
        ])
        grad = objective(y)[1](w)
        gnorm = np.linalg.norm(grad, axis=1)
        keep = gnorm >= 1e-15
        active[idx[~keep]] = False
        idx, y, grad, gnorm = idx[keep], y[keep], grad[keep], gnorm[keep]
        t_next = [tn for tn, kept in zip(t_next, keep) if kept]
        if idx.size == 0:
            continue
        ladders = _LADDER[None, :] * step[idx][:, None]
        cands = y[:, None, :] + ladders[:, :, None] * (grad / gnorm[:, None])[:, None, :]
        cands = project(cands.reshape(-1, n_params)).reshape(len(idx), -1, n_params)
        cvals = objective(cands.reshape(-1, n_params))[0](w).reshape(len(idx), -1)
        for local, start in enumerate(idx):
            b = max(range(len(_LADDER)), key=lambda r: (cvals[local, r], r))
            if cvals[local, b] > vals[start]:
                gain = cvals[local, b] - vals[start]
                prev[start] = thetas[start]
                thetas[start], vals[start] = cands[local, b], cvals[local, b]
                step[start] = min(max(ladders[local, b], 1e-14), _MAX_STEP)
                t[start] = t_next[local]
                if gain < settings.rel_tol * (1.0 + abs(vals[start])) * t_next[local]:
                    stall[start] += 1
                    active[start] = stall[start] < 3
                    t[start], prev[start] = 1.0, thetas[start]
                else:
                    stall[start] = 0
            elif t[start] > 1.0:
                t[start], prev[start] = 1.0, thetas[start]
            else:
                step[start] *= 0.25
                active[start] = step[start] >= 1e-13 * scale
    return vals.max(), thetas[np.argmax(vals)]


def _quadratic_or_plateau(c, a, r):
    """Weights ``(1, 0)`` climb ``-|θ - c|²``; weights ``(0, 1)`` climb
    ``-max(0, |θ - a|² - r²)``, whose gradient vanishes within ``r`` of ``a``.
    Row by row, so a row's values do not depend on its batch."""

    def objective(thetas):
        to_c, to_a = thetas - c, thetas - a
        over = np.sum(to_a**2, axis=1) - r * r
        return (
            lambda w: -w[..., 0] * np.sum(to_c**2, axis=1) - w[..., 1] * np.maximum(over, 0.0),
            lambda w: -2.0 * (w[..., :1] * to_c + w[..., 1:] * (over > 0.0)[:, None] * to_a),
        )

    return objective


def test_dead_gradients_retire_with_their_values_while_the_rest_climb_alone():
    a = np.array([0.5, 0.5])
    objective = _quadratic_or_plateau(np.array([3.0, 0.0]), a, 0.1)
    project = make_group_projection([(np.arange(2), 4.0)])
    opts, weights = SolverSettings(starts=6, seed=3), np.array([[1.0, 0.0], [0.0, 1.0]])
    gradient_rows = []

    def watched(thetas):
        values, gradient = objective(thetas)
        return values, lambda w: gradient_rows.append(len(thetas)) or gradient(w)

    # the plateau's extra start at a has a dead gradient from the first iteration
    values, thetas = maximize_multistart(watched, 2, project, opts, weights, extra_starts=[(), [a]])
    assert gradient_rows[0] == 13 and gradient_rows[1] <= 12
    for m, extra in enumerate([(), [a]]):
        want = _loop_ascent(objective, 2, project, opts, weights[m], 1.0, list(extra))
        assert values[m] == want[0] and np.array_equal(thetas[m], want[1])
    (alone,), (alone_theta,) = maximize_multistart(objective, 2, project, opts, weights[:1])
    assert values[0] == alone and np.array_equal(thetas[0], alone_theta)
    assert values[1] == 0.0 and np.sum((thetas[1] - a) ** 2) <= 0.01


def test_an_all_dead_batch_ends_the_call():
    calls = []

    def flat(thetas):
        calls.append(len(thetas))
        return lambda w: np.full(len(thetas), 2.0), lambda w: np.zeros_like(thetas)

    project = make_group_projection([(np.arange(3), 1.0)])
    firsts = np.array([[2.0, 0.0, 0.0], [0.1, -0.2, 0.3]])  # each weighting's first start
    values, thetas = maximize_multistart(
        flat, 3, project, SolverSettings(starts=2, seed=4), [[1.0], [2.0]],
        extra_starts=[firsts[:1], firsts[1:]],
    )
    assert calls == [6, 6]  # the starts' values, then one gradient call
    assert np.array_equal(values, [2.0, 2.0]) and np.array_equal(thetas, project(firsts))


def _partial_ascent(ch):
    """The partial bound at alpha = 1 as :func:`maximize_multistart` climbs
    it: the DPC program, its projection, its corner starts and its scale."""
    program = _two_block_program(ch, *_dpc_matrices(ch))
    budget = ch.p_p + ch.p_c
    project = make_group_projection([(np.arange(program.n_params), budget)])
    starts = [program.encode(*pair) for pair in _bound_corners(ch, 1.0, budget)]
    return program, project, starts, math.sqrt(budget)


@pytest.mark.parametrize("channel", ["bundled", "mimo"])
def test_lockstep_ascent_equals_a_per_start_loop(sec7, channel):
    if channel == "mimo":
        sec7 = ladder(2)
    program, project, starts, scale = _partial_ascent(sec7)
    # a grid of one, since a wider batch may round the objective's matrix
    # product differently in the last digit (test_outer covers grids)
    settings = SolverSettings(starts=4, seed=5)
    for mu in (3.0, 1.0, 0.25):
        w = program.weights(mu)
        (value,), (theta,) = maximize_multistart(
            program.objective, program.n_params, project, settings, w[None], scale, [starts]
        )
        want = _loop_ascent(
            program.objective, program.n_params, project, settings, w, scale, starts
        )
        assert value == want[0] and np.array_equal(theta, want[1])


def test_each_line_search_tries_the_ladder_alone(monkeypatch, sec7):
    # every iteration's line search evaluates the ladder's rungs, and nothing
    # else, at each start whose gradient does not vanish
    from cograte.solvers import _LADDER

    calls = []

    def watched(objective, *args, **kwargs):
        def wrapped(thetas):
            values, gradient = objective(thetas)

            def counted_gradient(w):
                grad = gradient(w)
                live = np.sqrt((grad * grad).sum(axis=1)) >= 1e-15
                calls.append(("gradient", int(live.sum())))
                return grad

            def counted_values(w):
                calls.append(("values", len(thetas)))
                return values(w)

            return counted_values, counted_gradient

        return maximize_multistart(wrapped, *args, **kwargs)

    monkeypatch.setattr(achievable, "maximize_multistart", watched)
    achievable.mu_sum_achievable(sec7, [2.0, 0.5], SolverSettings(starts=4, seed=0))
    assert calls[0][0] == "values"  # the starts
    searches = [(prev, call) for prev, call in zip(calls[1:], calls[2:]) if call[0] == "values"]
    assert len(searches) > 10
    assert all(prev[0] == "gradient" for prev, _ in searches)
    assert all(rows == len(_LADDER) * prev[1] for prev, (_, rows) in searches)


def _recorded(objective, calls):
    """``objective`` that appends ``("values", values)`` and ``("gradient",
    rows)`` to ``calls`` at each call of its two functions."""

    def wrapped(thetas):
        values, gradient = objective(thetas)

        def recorded_values(w):
            out = values(w)
            calls.append(("values", out.copy()))  # the ascent writes into its start values
            return out

        return recorded_values, lambda w: calls.append(("gradient", len(thetas))) or gradient(w)

    return wrapped


@pytest.mark.parametrize("upper", [None, math.inf], ids=["none", "inf"])
def test_no_finite_upper_value_leaves_the_ascent_as_it_was(sec7, upper):
    program, project, starts, scale = _partial_ascent(sec7)
    settings = SolverSettings(starts=4, seed=5)
    for mu in (1e6, 1.0):
        w = program.weights(mu)
        (value,), (theta,) = maximize_multistart(
            program.objective, program.n_params, project, settings, w[None], scale, [starts],
            upper=None if upper is None else [upper],
        )
        want = _loop_ascent(program.objective, program.n_params, project, settings, w, scale, starts)
        assert value == want[0] and np.array_equal(theta, want[1])


def test_a_weighting_proven_at_a_corner_retires_its_losing_starts_at_once(sec7):
    # at mu = 1e6 the licensed corner meets the power-split bound at the start
    # values: the other six starts of that weighting retire before the first
    # gradient, and the corner ends where the uncertified ascent ends; the
    # uncertified weighting beside it climbs bit for bit as alone
    program, project, starts, scale = _partial_ascent(sec7)
    settings = SolverSettings(starts=4, seed=5)
    weights = program.weights([1e6, 1.0])
    upper = [_power_split_bound(sec7, [1.0], [1e6])[0], math.inf]
    calls = []
    values, thetas = maximize_multistart(
        _recorded(program.objective, calls), program.n_params, project, settings, weights, scale,
        [starts, starts], upper=upper,
    )
    (_, start_values), (_, rows) = calls[:2]
    n = len(starts) + settings.starts
    assert start_values[0] >= upper[0] * (1.0 - settings.rel_tol) > start_values[1:n].max()
    assert rows == 1 + n
    for m, w in enumerate(weights):
        (alone,), (alone_theta,) = maximize_multistart(
            program.objective, program.n_params, project, settings, w[None], scale, [starts]
        )
        assert values[m] == alone and np.array_equal(thetas[m], alone_theta)
    # alone, the incumbent is not returned at once: it climbs until it stalls
    calls.clear()
    maximize_multistart(_recorded(program.objective, calls), program.n_params, project, settings,
                        weights[:1], scale, [starts], upper=upper[:1])
    rows = [n for kind, n in calls if kind == "gradient"]
    assert len(rows) >= 3 and set(rows) == {1}


def test_a_weighting_that_meets_its_upper_value_mid_ascent_is_certified_then():
    # a maximum of 1: the rule is relative, so it gives an upper value of 0 no slack
    target = np.array([0.3, -0.2])

    def objective(thetas):
        return (lambda w: w[:, 0] * (1.0 - np.sum((thetas - target) ** 2, axis=1)),
                lambda w: -2.0 * w[:, :1] * (thetas - target))

    project = make_group_projection([(np.arange(2), 4.0)])
    settings = SolverSettings(starts=6, seed=1)
    certified, free = [], []
    (value,), _ = maximize_multistart(_recorded(objective, certified), 2, project, settings,
                                      [[1.0]], upper=[1.0])
    maximize_multistart(_recorded(objective, free), 2, project, settings, [[1.0]])
    # the start values, then one line search per iteration, each after a gradient
    searches = [v.max() for kind, v in certified if kind == "values"]
    rows = [n for kind, n in certified if kind == "gradient"]
    first = next(i for i, top in enumerate(searches) if top >= 1.0 - settings.rel_tol)
    assert first >= 2 and value >= 1.0 - settings.rel_tol
    assert rows[first - 1] > 1 and rows[first] == 1  # the losing starts retire at once
    free_rows = [n for kind, n in free if kind == "gradient"]
    assert rows[:first] == free_rows[:first] and free_rows[first] > 1


@pytest.mark.parametrize(
    "solve, floor",
    [
        (lambda ch, opts: achievable.mu_sum_achievable(ch, 2.0, opts), 43.3236006180),
        (lambda ch, opts: mu_sum_partial_outer(ch, 1.0, 2.0, opts), 43.4177927343),
    ],
    ids=["achievable", "partial_outer"],
)
def test_four_antenna_solves_end_below_the_cap(monkeypatch, solve, floor):
    # a random complex 4-antenna channel at p = 10, mu = 2, alpha = 1: the
    # ascent without momentum ran both solves to the 2,000-iteration cap,
    # with these floors as values.  The ascent now runs its short budget and
    # the Newton polish converges its winner: its gradient norm ends under
    # the polish's tolerance
    rng = np.random.default_rng(4)
    h = [(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2.0)
         for _ in range(4)]
    ch = CognitiveChannel(*h, p_p=10.0, p_c=10.0)
    polished = record_polish(monkeypatch)
    result = solve(ch, SolverSettings(starts=8, seed=0))
    ((_, value, norm, certified),) = (polish_report(call) for call in polished)
    assert not certified[0] and norm[0] <= _GRADIENT_TOL * (1.0 + abs(value[0]))
    assert result.value >= floor - 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ascent_on_the_power_ball_boundary_keeps_its_step_bounded(monkeypatch, sec7):
    # a broadcast program over coupled noise, [[I, q], [q†, I]], whitened into
    # the cognitive term: on the sum-power ball's boundary the ladder's rungs
    # project to nearly the same point, and a step that grew fourfold on each
    # near-tie would pass 1e150, where squares overflow; the ascent keeps its
    # candidate rows within a few thousand of the ball (radius sqrt(10))
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
    opts = SolverSettings(starts=4, seed=1)
    _, (theta,) = achievable._solve(program, [1.0], groups, opts, [starts])
    q_p, q_c = program.decode(theta)
    value = covariance_rates(program, q_p, q_c).mu_sum(1.0)
    assert value == pytest.approx(3.537974049, abs=1e-6)
    assert np.trace(q_p + q_c) <= budget + 1e-9
    assert max(largest) < 1e4


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


def _waterfill_by_active_sets(h, p_total):
    """Water-filling capacity by brute force: the best allocation over every
    nonempty set of active modes, each filled to its common level."""
    inv = 1.0 / np.linalg.svd(h, compute_uv=False) ** 2
    best = 0.0
    for size in range(1, len(inv) + 1):
        for active in itertools.combinations(range(len(inv)), size):
            level = (p_total + inv[list(active)].sum()) / size
            powers = level - inv[list(active)]
            if (powers >= 0.0).all():
                best = max(best, float(np.sum(np.log2(level / inv[list(active)]))))
    return best


@pytest.mark.parametrize("complex_mode", [False, True])
def test_waterfill_matches_brute_force_over_active_sets(rng, complex_mode):
    for _ in range(40):
        rows, cols = rng.integers(1, 5, size=2)
        h = rng.standard_normal((rows, cols)) * rng.uniform(0.05, 3.0, size=cols)
        if complex_mode:
            h = h + 1j * rng.standard_normal((rows, cols))
        p_total = float(10.0 ** rng.uniform(-3, 3))
        capacity, sigma = waterfill(h, p_total)
        assert capacity == pytest.approx(_waterfill_by_active_sets(h, p_total), rel=1e-12)
        m = np.eye(rows) + h @ sigma @ np.conj(h.T)
        assert float(np.linalg.slogdet(m)[1] / math.log(2)) == pytest.approx(capacity, rel=1e-12)
        assert np.trace(sigma).real == pytest.approx(p_total, rel=1e-12)


def test_column_scale_climbs_the_objective_at_the_scaled_columns():
    # maximize_multistart with a column scale c per weighting ends where the
    # same ascent of y -> f(c * y), handed over as an objective, ends
    target = np.array([0.3, -0.2, 0.1])

    def objective(thetas):
        return (
            lambda w: -np.sum((thetas - target) ** 2, axis=1) * w[:, 0],
            lambda w: -2.0 * (thetas - target) * w[:, :1],
        )

    def scaled(c):
        def wrapped(thetas):
            values, gradient = objective(c * thetas)
            return values, lambda w: c * gradient(w)

        return wrapped

    project = make_group_projection([(np.arange(3), 1.0)])
    opts = SolverSettings(starts=3, seed=2, max_iters=2000)  # the ascent alone, to its stall
    cols = np.array([[1.0, 2.0, 0.5], [3.0, 1.0, 1.0]])
    values, thetas = maximize_multistart(
        objective, 3, project, opts, [[1.0], [1.0]], extra_starts=[(), ()], column_scale=cols
    )
    for c, value, theta in zip(cols, values, thetas):
        (want_value,), (want_theta,) = maximize_multistart(scaled(c), 3, project, opts, [[1.0]])
        assert value == pytest.approx(want_value, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(theta, want_theta, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(c * theta, target, atol=1e-4)


def test_waterfill_errors():
    with pytest.raises(ZeroChannel):
        waterfill(np.zeros((2, 2)), 1.0)
    with pytest.raises(NonPositivePower):
        waterfill(np.eye(2), 0.0)
