import dataclasses
import math

import numpy as np
import pytest
from conftest import ORACLE_GAP, ladder

import cograte.achievable as achievable
import cograte.outer as outer
from cograte.achievable import (
    DpcAllocation,
    dpc_rate_caps,
    dpc_rates,
    is_feasible,
    mu_sum_achievable,
    trace_boundary,
)
from cograte.channel import CognitiveChannel, mc_mutual_info
from cograte.errors import BracketUnbounded, InfeasibleAllocation
from cograte.linalg import log_det_id_plus
from cograte.oracles import grid_oracle
from cograte.outer import partial_outer_rates, trace_outer_boundary
from cograte.solvers import SolverSettings

# frozen from the direct scalar evaluation of the two log-det formulas
MAX_RP = 2.354204853970093
RC_FULL = 1.6856244190235852
RP_MIXED = 0.9006449377402712


def scalar_alloc(sp, scp, scc, q):
    return DpcAllocation([[sp]], [[scp]], [[scc]], [[q]])


def test_dpc_rates_full_cooperation(sec7):
    rate = dpc_rates(sec7, scalar_alloc(5.0, 5.0, 0.0, 5.0))
    assert rate.r_p == pytest.approx(MAX_RP, abs=1e-12)
    assert rate.r_c == 0.0


def test_dpc_rates_zero_allocation(sec7):
    rate = dpc_rates(sec7, scalar_alloc(0.0, 0.0, 0.0, 0.0))
    assert rate.r_p == 0.0 and rate.r_c == 0.0


def test_dpc_rates_split(sec7):
    rate = dpc_rates(sec7, scalar_alloc(5.0, 0.0, 5.0, 0.0))
    assert rate.r_p == pytest.approx(RP_MIXED, abs=1e-12)
    assert rate.r_c == pytest.approx(RC_FULL, abs=1e-12)


def test_dpc_rates_names_violated_constraint(sec7):
    with pytest.raises(InfeasibleAllocation, match="licensed budget"):
        dpc_rates(sec7, scalar_alloc(6.0, 0.0, 0.0, 0.0))
    with pytest.raises(InfeasibleAllocation, match="cognitive budget"):
        dpc_rates(sec7, scalar_alloc(5.0, 5.0, 1.0, 0.0))
    with pytest.raises(InfeasibleAllocation, match="not PSD"):
        dpc_rates(sec7, scalar_alloc(1.0, 1.0, 0.0, 1.5))


def test_feasibility_tolerance_scales_with_the_budget(sec7):
    # one ulp of a 1e12 budget is 1.2e-4, far above the absolute 1e-9 tolerance
    ch = dataclasses.replace(sec7, p_p=1e12, p_c=1e12)
    ulp_over = math.nextafter(1e12, math.inf)
    assert is_feasible(ch, scalar_alloc(ulp_over, 0.0, 0.0, 0.0))
    assert is_feasible(ch, scalar_alloc(0.0, 0.0, ulp_over, 0.0))
    # the stacked block [[p, q], [q, p]] has eigenvalue p - q = -1e-3
    assert is_feasible(ch, scalar_alloc(1e12, 1e12, 0.0, 1e12 + 1e-3))
    over = 1e12 * (1.0 + 1e-9)
    assert not is_feasible(ch, scalar_alloc(over, 0.0, 0.0, 0.0))
    assert not is_feasible(ch, scalar_alloc(0.0, 0.0, over, 0.0))
    assert not is_feasible(ch, scalar_alloc(1e12, 1e12, 0.0, over))


def test_is_feasible_examples(sec7):
    assert is_feasible(sec7, scalar_alloc(0.0, 0.0, 0.0, 0.0))
    assert not is_feasible(sec7, scalar_alloc(5.0, 5.0, 1.0, 0.0))
    # the stacked block [[1, 1.5], [1.5, 1]] has eigenvalue -0.5
    assert not is_feasible(sec7, scalar_alloc(1.0, 1.0, 0.0, 1.5))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_every_budget_check_rejects_a_bad_tolerance(sec7, tol):
    # the allocation breaks every budget; a nan or infinite slack let it pass.
    # A bad tolerance is named before the shapes are checked
    a = scalar_alloc(50.0, 40.0, -3.0, 0.0)
    misshaped = DpcAllocation(np.eye(2), [[1.0]], [[1.0]], [[0.0], [0.0]])
    for check in (
        lambda: is_feasible(sec7, a, tol=tol),
        lambda: dpc_rates(sec7, a, tol=tol),
        lambda: partial_outer_rates(sec7, 1.0, a.sigma_p_net, a.sigma_cc, tol=tol),
        lambda: is_feasible(sec7, misshaped, tol=tol),
        lambda: dpc_rates(sec7, misshaped, tol=tol),
        lambda: partial_outer_rates(sec7, 1.0, np.eye(3), [[0.0]], tol=tol),
    ):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check()


def test_a_non_finite_covariance_breaks_its_budget_by_name(sec7):
    # every comparison with nan is false, so a nan trace and eigenvalue
    # passed each budget check, and only RatePair rejected the nan rate
    a = DpcAllocation([[math.nan]], [[1.0]], [[1.0]], [[0.0]])
    assert not is_feasible(sec7, a)
    with pytest.raises(InfeasibleAllocation, match="stacked covariance block has a non-finite"):
        dpc_rates(sec7, a)
    with pytest.raises(InfeasibleAllocation, match="q_p has a non-finite entry"):
        partial_outer_rates(sec7, 1.0, np.diag([math.nan, 0.0]), [[0.0]])


def test_a_grid_witness_over_its_budget_is_named_by_mu(monkeypatch, sec7):
    solve = achievable._solve

    def doubled(*args, **kwargs):
        mus, thetas = solve(*args, **kwargs)
        return mus, thetas * np.array([[1.0], [2.0]])  # the second at four times its power

    monkeypatch.setattr(achievable, "_solve", doubled)
    with pytest.raises(InfeasibleAllocation, match=r"exceeds \w+ budget 5 \(at mu=0.5\)$"):
        mu_sum_achievable(sec7, [2.0, 0.5], SolverSettings(starts=1, max_iters=5))


@pytest.mark.parametrize("n_pt", [1, 2])
@pytest.mark.parametrize("n_ct", [1, 2])
def test_from_net_splits_the_stacked_block(n_pt, n_ct):
    rng = np.random.default_rng([n_pt, n_ct])

    def psd(dim):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return a @ np.conj(a.T)

    q = rng.standard_normal((n_pt, n_ct)) + 1j * rng.standard_normal((n_pt, n_ct))
    a = DpcAllocation(psd(n_pt), psd(n_ct), psd(n_ct), q)
    back = DpcAllocation.from_net(a.sigma_p_net, a.sigma_cc)
    for name in ("sigma_p", "sigma_cp", "sigma_cc", "q"):
        assert np.array_equal(getattr(back, name), getattr(a, name)), name


def test_rate_caps_ignore_budgets(sec7):
    rate = dpc_rate_caps(sec7, scalar_alloc(50.0, 0.0, 0.0, 0.0))
    assert rate.r_p > MAX_RP


def test_mu_sum_large_mu_hits_peak(sec7, fast):
    res = mu_sum_achievable(sec7, 1e6, fast)
    assert res.rate.r_p == pytest.approx(MAX_RP, abs=1e-6)
    assert res.rate.r_c == pytest.approx(0.0, abs=1e-9)
    assert res.value == pytest.approx(1e6 * res.rate.r_p + res.rate.r_c)
    assert is_feasible(sec7, res.witness, tol=1e-8)


@pytest.mark.parametrize("mu", [1e155, 1e200, 1e300])
def test_mu_sum_past_the_float_square_of_the_gradient_hits_peak(sec7, fast, mu):
    # from mu ~ 1e155 the gradient's plain sum of squares overflows (a
    # RuntimeWarning, an error in this suite), and a zero-norm ascent read
    # r_c = 1.35e-12 where mu = 1e150 reads 0
    res = mu_sum_achievable(sec7, mu, fast)
    assert res.rate.r_c == 0.0
    assert res.rate.r_p == pytest.approx(MAX_RP, abs=1e-9)


def test_mu_sum_zero_mu_maximizes_cognitive_rate(sec7, fast):
    res = mu_sum_achievable(sec7, 0.0, fast)
    assert res.rate.r_c == pytest.approx(RC_FULL, abs=1e-8)


def test_mu_sum_vanishing_power():
    ch = CognitiveChannel(
        h_pp=[[1.4435]], h_pc=[[-0.351], [0.6232]], h_cp=[[0.799]],
        h_cc=[[0.9409], [-0.9921]], p_p=1e-12, p_c=1e-12, real_mode=True,
    )
    res = mu_sum_achievable(ch, 1.0, SolverSettings(starts=2, seed=0))
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_mu_sum_rejects_bad_mu(sec7, fast):
    with pytest.raises(ValueError):
        mu_sum_achievable(sec7, -1.0, fast)
    with pytest.raises(ValueError):
        mu_sum_achievable(sec7, math.inf, fast)
    # a grid: empty, or with one bad weight among good ones
    for grid in ([], [1.0, math.nan], [2.0, -1.0]):
        with pytest.raises(ValueError, match="mu"):
            mu_sum_achievable(sec7, grid, fast)


def test_grid_solve_encodes_each_shared_corner_once(monkeypatch, sec7):
    # every mu of a grid starts from the same corner objects; encoding them
    # (eigh and Cholesky per block) once per mu cost as much as the grid, and
    # once per corner cost LAPACK's per-matrix overhead on 1x1 and 2x2 blocks
    calls = []
    encode = achievable.encode_psd
    monkeypatch.setattr(
        achievable, "encode_psd", lambda *a, **k: calls.append(a[0]) or encode(*a, **k)
    )
    opts = SolverSettings(starts=1, max_iters=2)
    grid = [2.0, 1.0, 0.5]
    mu_sum_achievable(sec7, grid, opts)
    corners = len(achievable._corner_starts(sec7))
    assert [len(stack) for stack in calls] == [corners, corners]  # one stacked call per block
    # a bound family: each alpha's 3 corners once, and each weighting's warm
    # start (the region's witness at its mu, mapped to its alpha), in one
    # stacked call per block
    region = trace_boundary(sec7, grid, opts)
    calls.clear()
    trace_outer_boundary(sec7, [0.5, 1.0, 2.0], grid, opts, warm_boundary=region)
    assert [len(stack) for stack in calls] == [3 * 3 + 9, 3 * 3 + 9]


def test_mu_sum_matches_oracle(sec7, fast):
    for mu in (0.0, 1.0):
        solver = mu_sum_achievable(sec7, mu, fast).value
        oracle = grid_oracle(sec7, mu, 400)
        assert solver == pytest.approx(oracle, abs=ORACLE_GAP)


def test_power_monotonicity(rng):
    for _ in range(5):
        gains = rng.standard_normal(3)
        base = CognitiveChannel(
            h_pp=[[gains[0]]], h_pc=[[0.2]], h_cp=[[gains[1]]],
            h_cc=[[gains[2]]], p_p=2.0, p_c=2.0, real_mode=True,
        )
        richer = CognitiveChannel(
            h_pp=[[gains[0]]], h_pc=[[0.2]], h_cp=[[gains[1]]],
            h_cc=[[gains[2]]], p_p=2.0, p_c=4.0, real_mode=True,
        )
        opts = SolverSettings(starts=4, seed=13)
        for mu in (0.5, 2.0):
            low = mu_sum_achievable(base, mu, opts).value
            high = mu_sum_achievable(richer, mu, opts).value
            assert high >= low - 1e-8


def test_decoupled_channel_rate(sec7):
    ch = CognitiveChannel(
        h_pp=[[1.1]], h_pc=[[0.3], [0.1]], h_cp=[[0.0]],
        h_cc=[[0.9], [-0.5]], p_p=4.0, p_c=3.0, real_mode=True,
    )
    for scc in (0.0, 1.0, 3.0):
        rate = dpc_rates(ch, scalar_alloc(4.0, 0.0, scc, 0.0))
        expected = 0.5 * log_det_id_plus(4.0 * ch.h_pp @ ch.h_pp.T)
        assert rate.r_p == pytest.approx(expected, abs=1e-12)


def test_cognitive_rate_ignores_licensed_side(sec7):
    base = dpc_rates(sec7, scalar_alloc(1.0, 2.0, 2.0, 0.5)).r_c
    for sp, q in ((0.0, 0.0), (5.0, 0.0), (2.0, -1.0)):
        assert dpc_rates(sec7, scalar_alloc(sp, 2.0, 2.0, q)).r_c == pytest.approx(
            base, abs=1e-12
        )


def test_cognitive_rate_cross_checked_by_monte_carlo(sec7):
    rate = dpc_rates(sec7, scalar_alloc(0.0, 0.0, 4.0, 0.0))
    est = mc_mutual_info(
        sec7.h_cc, np.array([[4.0]]), np.eye(2), 10**6, seed=21, real_mode=True
    )
    assert est == pytest.approx(rate.r_c, abs=0.02)


def test_trace_boundary_single_points(sec7, fast):
    top = trace_boundary(sec7, [1e6], fast)
    assert top.points[0].rate.r_p == pytest.approx(MAX_RP, abs=1e-6)
    bottom = trace_boundary(sec7, [0.0], fast)
    assert bottom.points[0].rate.r_c == pytest.approx(RC_FULL, abs=1e-8)


def test_trace_boundary_pareto_order(sec7, fast):
    boundary = trace_boundary(sec7, np.geomspace(0.05, 50, 9), fast)
    mus = [p.mu for p in boundary.points]
    assert mus == sorted(mus, reverse=True)
    rps = [p.rate.r_p for p in boundary.points]
    rcs = [p.rate.r_c for p in boundary.points]
    assert all(a >= b - 1e-9 for a, b in zip(rps, rps[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(rcs, rcs[1:]))
    assert boundary.metadata["channel"] == sec7.digest()


def test_trace_boundary_zero_power_channel():
    ch = CognitiveChannel(
        h_pp=[[1.0]], h_pc=[[0.1], [0.1]], h_cp=[[0.5]],
        h_cc=[[1.0], [1.0]], p_p=1e-12, p_c=1e-12, real_mode=True,
    )
    boundary = trace_boundary(ch, [0.1, 1.0, 10.0], SolverSettings(starts=2, seed=0))
    for p in boundary.points:
        assert p.rate.r_p <= 1e-9 and p.rate.r_c <= 1e-9


def test_trace_boundary_deterministic(sec7):
    opts = SolverSettings(starts=4, seed=7)
    a = trace_boundary(sec7, [0.1, 1.0, 10.0], opts)
    b = trace_boundary(sec7, [0.1, 1.0, 10.0], opts)
    assert a.to_csv() == b.to_csv()


def test_trace_boundary_consistent_with_direct_solves(sec7, fast):
    # each grid mu climbs from its own cold starts and pooled rescoring may
    # only help: every traced point scores at least what an independent cold
    # solve of the same mu finds
    grid = [0.2, 2.0, 20.0]
    boundary = trace_boundary(sec7, grid, fast)
    by_mu = {p.mu: p for p in boundary.points}
    for mu in grid:
        direct = mu_sum_achievable(sec7, mu, fast)
        assert by_mu[mu].rate.mu_sum(mu) >= direct.value - 1e-9


def test_boundary_csv_shape(sec7, fast):
    boundary = trace_boundary(sec7, [1.0, 2.0], fast)
    lines = boundary.to_csv().strip().splitlines()
    assert lines[0] == "mu,r_p,r_c"
    assert len(lines) == 3


def _uncertified(monkeypatch):
    monkeypatch.setattr(outer, "_licensed_corner_upper",
                        lambda ch, mus: np.full(len(mus), math.inf))


@pytest.mark.parametrize("channel", ["bundled", "ladder"])
def test_certified_achievable_values_are_the_uncertified_ones(monkeypatch, sec7, channel):
    # mu* is 2.93 on the bundled channel and 3.68 on the 2-antenna rung: the
    # weights past max(1, mu*) are certified, at mu times the least licensed
    # cap over alpha, which no solve passes; the others run as before
    ch = sec7
    if channel == "ladder":
        ch = ladder(2)
    mus = [1e6, 100.0, 10.0, 4.0, 2.0, 1.0, 0.5]
    opts = SolverSettings(starts=4, seed=0)
    upper = outer._licensed_corner_upper(ch, mus)
    assert np.isfinite(upper).tolist() == [True] * 4 + [False] * 3
    certified = mu_sum_achievable(ch, mus, opts)
    _uncertified(monkeypatch)
    free = mu_sum_achievable(ch, mus, opts)
    for u, got, want in zip(upper, certified, free):
        assert got.value == pytest.approx(want.value, rel=1e-9)
        assert want.value <= u * (1.0 + 1e-12)
    assert upper[0] == pytest.approx(1e6 * outer.inf_alpha_max_rp(ch).value, rel=1e-15)


def test_a_proven_peak_ends_within_a_few_iterations(monkeypatch, sec7):
    # reproduce-paper's peak at mu = 1e6: 27 iterations uncertified
    gradient_calls = []
    objective = achievable.LogDetProgram.objective

    def counted(program, thetas):
        values, gradient = objective(program, thetas)
        return values, lambda w: gradient_calls.append(len(thetas)) or gradient(w)

    monkeypatch.setattr(achievable.LogDetProgram, "objective", counted)
    opts = SolverSettings(starts=8, seed=0)
    peak = mu_sum_achievable(sec7, 1e6, opts)
    assert len(gradient_calls) <= 5 and peak.rate.r_p == pytest.approx(MAX_RP, rel=1e-9)
    gradient_calls.clear()
    _uncertified(monkeypatch)
    assert mu_sum_achievable(sec7, 1e6, opts).value == pytest.approx(peak.value, rel=1e-9)
    assert len(gradient_calls) > 20


def test_the_least_cap_is_taken_only_when_a_weight_qualifies(monkeypatch, sec7):
    def fail(*args):
        raise AssertionError("inf_alpha_max_rp called")

    monkeypatch.setattr(outer, "inf_alpha_max_rp", fail)
    assert mu_sum_achievable(sec7, [2.9, 1.0], SolverSettings(starts=2, seed=0, max_iters=50))


def test_a_least_cap_that_fails_leaves_the_solve_uncertified(sec7):
    # with h_cp = 0 the cap falls as alpha does and the scan raises
    # BracketUnbounded: no upper value, and the solve goes on
    ch = dataclasses.replace(sec7, h_cp=np.zeros((1, 1)), h_cc=np.zeros((2, 1)))
    assert ch.licensed_weight == 0.0
    with pytest.raises(BracketUnbounded):
        outer.inf_alpha_max_rp(ch)
    assert outer._licensed_corner_upper(ch, [2.0, 0.5]).tolist() == [math.inf] * 2
    res = mu_sum_achievable(ch, 2.0, SolverSettings(starts=2, seed=0))
    assert res.rate.r_p == pytest.approx(0.5 * math.log2(1.0 + 1.4435**2 * 5.0), rel=1e-9)
