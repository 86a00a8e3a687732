import dataclasses
import json
import math
import os

import numpy as np
import pytest
from conftest import ORACLE_GAP

import cograte.outer as outer
from cograte.achievable import (
    DpcAllocation,
    _dpc_matrices,
    _two_block_program,
    dpc_rate_caps,
    mu_sum_achievable,
    scale_allocation,
    trace_boundary,
)
from cograte.channel import CognitiveChannel, composite_matrices, load_channel, scaled_channel
from cograte.errors import InfeasibleAllocation, SolverDiverged, UnsupportedMu
from cograte.linalg import log_det_id_plus
from cograte.outer import (
    _alpha_slope,
    bc_mu_sum,
    condition_check,
    inf_alpha_partial_outer,
    mu_sum_partial_outer,
    partial_outer_max_rp,
    partial_outer_rates,
    trace_outer_boundary,
)
from cograte.oracles import grid_oracle
from cograte.regions import RatePair, sweep_mu
from cograte.solvers import SolverSettings, golden_section, waterfill

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
MAX_RP = 2.354204853970093
FLIPPED_A1 = 2.40934687718198

# channel where the unstructured cognitive covariance strictly beats the
# block-structured one at mu = 1 (found by randomized search, gap ~ 0.40 bits
# certified against the exhaustive scalar oracle)
GAP_CHANNEL = CognitiveChannel(
    h_pp=[[-0.8138]], h_pc=[[0.1]], h_cp=[[1.232]], h_cc=[[1.129]],
    p_p=5.0, p_c=5.0, real_mode=True,
)


def test_partial_rates_examples(sec7):
    zero = partial_outer_rates(sec7, 1.0, np.zeros((2, 2)), [[0.0]])
    assert zero.r_p == 0.0 and zero.r_c == 0.0
    rc_only = partial_outer_rates(sec7, 1.0, np.zeros((2, 2)), [[10.0]])
    assert rc_only.r_c == pytest.approx(2.149898980469891, abs=1e-12)
    beam = partial_outer_rates(sec7, 1.0, np.full((2, 2), 5.0), [[0.0]])
    assert beam.r_p == pytest.approx(MAX_RP, abs=1e-12)
    assert beam.r_c == 0.0


def test_partial_rates_tolerance_scales_with_the_budget(sec7):
    alpha = 1e50
    budget = sec7.p_p + alpha * sec7.p_c
    # one ulp of a 5e50 budget is 6e34, far above the absolute 1e-9 tolerance
    rate = partial_outer_rates(sec7, alpha, np.diag([math.nextafter(budget, math.inf), 0.0]), [[0.0]])
    assert rate.r_p > 0.0 and rate.r_c == 0.0
    with pytest.raises(InfeasibleAllocation, match="sum budget"):
        partial_outer_rates(sec7, alpha, np.diag([budget * (1.0 + 1e-9), 0.0]), [[0.0]])


def test_partial_rates_are_dpc_rates_on_the_scaled_channel():
    rng = np.random.default_rng(7)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h = {name: draw((2, 2)) for name in ("h_pp", "h_pc", "h_cp", "h_cc")}
    ch = CognitiveChannel(**h, p_p=3.0, p_c=2.0)
    alpha = 0.7
    budget = ch.p_p + alpha * ch.p_c
    a, b = draw((4, 4)), draw((2, 2))
    q_p = a @ np.conj(a.T)
    q_p *= 0.6 * budget / np.trace(q_p).real
    s_cc = b @ np.conj(b.T)
    s_cc *= 0.3 * budget / np.trace(s_cc).real
    got = partial_outer_rates(ch, alpha, q_p, s_cc)

    split = DpcAllocation(q_p[:2, :2], q_p[2:, 2:], s_cc, q_p[:2, 2:])
    via_dpc = dpc_rate_caps(scaled_channel(ch, alpha), split)
    # the bound's own formula: the cognitive covariance is seen divided by alpha
    ga = composite_matrices(ch, alpha).g_alpha
    intf = ch.h_cp @ s_cc @ np.conj(ch.h_cp.T) / alpha
    direct = RatePair(
        r_p=log_det_id_plus(ga @ q_p @ np.conj(ga.T) + intf) - log_det_id_plus(intf),
        r_c=log_det_id_plus(ch.h_cc @ s_cc @ np.conj(ch.h_cc.T) / alpha),
    )
    assert got.r_p > 0.1 and got.r_c > 0.1
    for want in (via_dpc, direct):
        assert got.r_p == pytest.approx(want.r_p, rel=1e-12)
        assert got.r_c == pytest.approx(want.r_c, rel=1e-12)


def test_partial_mu_sum_large_mu(sec7, fast):
    res = mu_sum_partial_outer(sec7, 1.0, 1e6, fast)
    assert res.value / 1e6 == pytest.approx(FLIPPED_A1, abs=1e-6)
    assert partial_outer_max_rp(sec7, 1.0) == pytest.approx(FLIPPED_A1, abs=1e-12)


def test_partial_mu_sum_at_balanced_alpha(sec7, fast):
    # stationarity of (p_p + a p_c)(hpp^2 + hcp^2/a) at a = hcp/hpp for equal
    # budgets; there the bound meets the achievable peak exactly
    alpha = 0.799 / 1.4435
    res = mu_sum_partial_outer(sec7, alpha, 1e6, fast)
    assert res.value / 1e6 == pytest.approx(MAX_RP, abs=1e-6)


def test_partial_mu_sum_zero_power():
    ch = CognitiveChannel(
        h_pp=[[1.0]], h_pc=[[0.1], [0.1]], h_cp=[[0.5]],
        h_cc=[[1.0], [1.0]], p_p=1e-12, p_c=1e-12, real_mode=True,
    )
    res = mu_sum_partial_outer(ch, 1.0, 1.0, SolverSettings(starts=2, seed=0))
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_partial_mu_sum_matches_oracle(sec7, fast):
    # the tiny alphas put entries near 1/alpha into the cognitive log-det
    for mu, alpha in ((0.0, 1.0), (1.0, 0.5), (2.0, 2.0), (1.0, 1e-15), (1.0, 1e-16), (1.0, 1e-100)):
        solver = mu_sum_partial_outer(sec7, alpha, mu, fast).value
        oracle = grid_oracle(sec7, mu, 400, "partial_outer", alpha)
        assert solver == pytest.approx(oracle, abs=ORACLE_GAP)


def test_achievable_witness_maps_into_bound(sec7, fast):
    res = mu_sum_achievable(sec7, 1.5, fast)
    for alpha in (0.3, 1.0, 3.0):
        scaled = scale_allocation(res.witness, alpha)
        mapped = partial_outer_rates(sec7, alpha, scaled.sigma_p_net, scaled.sigma_cc)
        assert mapped.r_p == pytest.approx(res.rate.r_p, abs=1e-10)
        assert mapped.r_c == pytest.approx(res.rate.r_c, abs=1e-10)


def test_inf_alpha_meets_achievable_peak(sec7):
    opts = SolverSettings(starts=4, seed=3)
    res = inf_alpha_partial_outer(sec7, 1e6, opts=opts)
    assert res.n_value / 1e6 == pytest.approx(MAX_RP, abs=1e-3)
    assert 0.4 < res.alpha_star < 0.7  # analytic minimizer is hcp/hpp = 0.5535
    assert not res.non_unimodal
    ach = mu_sum_achievable(sec7, 1e6, opts).value
    assert res.n_value >= ach - 1e-6


def test_inf_alpha_symmetric_channel():
    ch = CognitiveChannel(
        h_pp=[[1.0]], h_pc=[[0.1]], h_cp=[[1.0]], h_cc=[[1.0]],
        p_p=3.0, p_c=3.0, real_mode=True,
    )
    res = inf_alpha_partial_outer(ch, 1e6, opts=SolverSettings(starts=3, seed=5))
    assert res.alpha_star == pytest.approx(1.0, rel=0.05)


def test_inf_alpha_unattained_infimum_reports_unbounded(sec7):
    # at mu = 0 the bound's mu-sum decreases monotonically in alpha (the
    # cognitive rate sees the budget p_p/alpha + p_c), so the minimizer rides
    # the upper bracket edge through every widening
    from cograte.errors import BracketUnbounded

    with pytest.raises(BracketUnbounded):
        inf_alpha_partial_outer(
            sec7, 0.0, alpha_bracket=(0.5, 2.0), opts=SolverSettings(starts=2, seed=1),
            n_scan=8,
        )


def _ladder(monkeypatch, n):
    monkeypatch.syspath_prepend(BENCH)
    from inputs import mimo_channel

    return load_channel(json.dumps(mimo_channel(n, 1)))


def _golden_alpha_reference(ch, mu, opts, n_scan):
    """The alpha search as it was before the slope search: golden section to
    1e-6 in log alpha on re-solved values between the neighbours of the scan
    minimum, with the same warm chain, inner settings and final solve."""
    inner = dataclasses.replace(
        opts, starts=max(2, opts.starts // 3), max_iters=min(opts.max_iters, 400)
    )
    cache, warm = {}, []

    def value(log_a):
        a = math.exp(log_a)
        if a not in cache:
            cache[a] = mu_sum_partial_outer(ch, a, mu, inner, extra_starts=warm[-1:])
            warm.append(cache[a].theta)
        return cache[a].value

    xs = np.log(np.geomspace(1e-3, 1e3, n_scan))
    i = int(np.argmin([value(x) for x in xs]))
    assert 0 < i < n_scan - 1
    golden_section(value, xs[i - 1], xs[i + 1], tol=1e-6)
    best = min(cache, key=lambda a: cache[a].value)
    return mu_sum_partial_outer(ch, best, mu, opts, extra_starts=[cache[best].theta]).value


@pytest.mark.parametrize(
    "case, mu, n_scan",
    [("bundled", 1e6, 20), ("bundled", 2.0, 20), ("ladder", 4.0, 15)],
)
def test_slope_search_is_not_above_the_golden_section_value(monkeypatch, sec7, case, mu, n_scan):
    ch = sec7 if case == "bundled" else _ladder(monkeypatch, 2)
    opts = SolverSettings(starts=2, seed=0)
    res = inf_alpha_partial_outer(ch, mu, opts=opts, n_scan=n_scan)
    reference = _golden_alpha_reference(ch, mu, opts, n_scan)
    assert res.n_value <= reference * (1.0 + 1e-9)
    assert res.evaluations <= n_scan + 8
    # alpha* is a stationary point: its witness-path slope is a rounding-size
    # residual, where one scan step away the slope is of the value's order
    assert abs(res.slope) <= 1e-4 * max(1.0, res.n_value)


@pytest.mark.parametrize("case, mu", [("bundled", 2.0), ("ladder", 4.0)])
def test_witness_path_slope_matches_re_solved_differences(monkeypatch, sec7, case, mu):
    ch = sec7 if case == "bundled" else _ladder(monkeypatch, 2)
    opts = SolverSettings(starts=2, seed=0, rel_tol=1e-12)
    alpha, h = 2.0, 1e-3
    res = mu_sum_partial_outer(ch, alpha, mu, opts)
    slope = _alpha_slope(ch, alpha, mu, res.roots)
    up, down = (
        mu_sum_partial_outer(ch, alpha * math.exp(s), mu, opts, extra_starts=[res.theta]).value
        for s in (h, -h)
    )
    assert slope == pytest.approx((up - down) / (2 * h), rel=1e-4)


def test_alpha_sweep_makes_few_partial_solves(monkeypatch, sec7):
    calls = []
    solve = outer.mu_sum_partial_outer

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(outer, "mu_sum_partial_outer", counted)
    n_scan = 12
    res = inf_alpha_partial_outer(sec7, 1e6, opts=SolverSettings(starts=2, seed=0), n_scan=n_scan)
    assert len(calls) == res.evaluations <= n_scan + 8
    assert res.alpha_star == calls[-1]


@pytest.mark.parametrize("path", ["dpc", "partial"])
def test_witness_rates_come_from_its_factors_at_huge_power(path):
    # at p = 1e16 the witness's sigma_cc is rank one, zero-forced at the
    # licensed receiver; a square root of its rounded covariance puts power
    # back where h_cp hears it, and misread r_p by 0.03-0.25 bits.  The
    # licensed receive side is scalar, so the singular values of the
    # factors' F give r_p exactly.
    ch = CognitiveChannel(
        h_pp=[[1.0]], h_pc=[[0.3], [0.2]], h_cp=[[1.0, 0.5]], h_cc=[[1.0, 0.2], [0.3, 1.0]],
        p_p=1e16, p_c=1e16, real_mode=True,
    )
    opts = SolverSettings(starts=2, seed=0)
    if path == "dpc":
        res, scored = mu_sum_achievable(ch, 2.0, opts), ch
    else:
        res, scored = mu_sum_partial_outer(ch, 1.0, 2.0, opts), scaled_channel(ch, 1.0)
    g, h_int, _ = _dpc_matrices(scored)
    low_p, low_c = _two_block_program(scored, *_dpc_matrices(scored)).lower_factors(res.theta)

    def bits(f):
        return 0.5 * np.sum(np.log1p(np.linalg.svd(f, compute_uv=False) ** 2)) / math.log(2)

    r_p = bits(np.hstack([g @ low_p, h_int @ low_c])) - bits(h_int @ low_c)
    assert res.rate.r_p == pytest.approx(r_p, abs=1e-9)


def test_partial_bound_diverges_at_alpha_extremes(sec7, fast):
    mid = mu_sum_partial_outer(sec7, 0.5535, 1.0, fast).value
    lo = mu_sum_partial_outer(sec7, 1e-4, 1.0, fast).value
    hi = mu_sum_partial_outer(sec7, 1e4, 1.0, fast).value
    assert lo >= mid + 1.0
    assert hi >= mid + 1.0


def test_bc_mu_sum_degenerate_cognitive_channel(fast):
    ch = CognitiveChannel(
        h_pp=[[1.2]], h_pc=[[0.1]], h_cp=[[0.7]], h_cc=[[1e-12]],
        p_p=4.0, p_c=4.0, real_mode=True,
    )
    res = bc_mu_sum(ch, 1.0, 1e6, fast)
    wf = partial_outer_max_rp(ch, 1.0)
    assert res.value / 1e6 == pytest.approx(wf, abs=1e-6)


def test_bc_mu_sum_zero_cognitive_channel(fast):
    # h_cc = 0 zeroes k, so the water-filling start on k raises ZeroChannel
    ch = CognitiveChannel(
        h_pp=[[1.2]], h_pc=[[0.1]], h_cp=[[0.7]], h_cc=[[0.0]],
        p_p=4.0, p_c=4.0, real_mode=True,
    )
    alpha, mu = 0.5, 2.0
    res = bc_mu_sum(ch, alpha, mu, fast)
    capacity, _ = waterfill(
        composite_matrices(ch, alpha).g_alpha, ch.p_p + alpha * ch.p_c, real_mode=True
    )
    assert res.rate.r_c == 0.0
    assert res.value == pytest.approx(mu * capacity, abs=1e-6)


def test_bc_mu_sum_bundled_large_mu(sec7, fast):
    res = bc_mu_sum(sec7, 1.0, 1e6, fast)
    assert res.value / 1e6 == pytest.approx(FLIPPED_A1, abs=1e-6)


def test_bc_mu_sum_rejects_small_mu(sec7, fast):
    with pytest.raises(UnsupportedMu):
        bc_mu_sum(sec7, 1.0, 0.5, fast)
    with pytest.raises(UnsupportedMu):
        condition_check(sec7, 1.0, 0.5, 1e-3, fast)


def test_bc_mu_sum_scalar_degraded_grid_oracle():
    # with h_cp = 0 only (q_p)_11 and (q_c)_22 matter; 2-D grid as oracle
    ch = CognitiveChannel(
        h_pp=[[1.1]], h_pc=[[0.05]], h_cp=[[0.0]], h_cc=[[0.8]],
        p_p=3.0, p_c=3.0, real_mode=True,
    )
    res = bc_mu_sum(ch, 1.0, 1.0, SolverSettings(starts=8, seed=4))
    budget = ch.p_p + ch.p_c
    qp = np.linspace(0.0, budget, 600)[:, None]
    qc = np.linspace(0.0, budget, 600)[None, :]
    mask = qp + qc <= budget
    rp = 0.5 * np.log2(1.0 + 1.1**2 * qp) * np.ones_like(qc)
    rc = 0.5 * np.log2(1.0 + 0.8**2 * qc) * np.ones_like(qp)
    oracle = float(np.max(np.where(mask, rp + rc, -np.inf)))
    assert res.value == pytest.approx(oracle, abs=1e-2)


def test_bc_dominates_partial(sec7, fast):
    from cograte.outer import _embed_structured

    for alpha, mu in ((0.5, 1.0), (1.0, 2.0), (2.0, 1e3)):
        part = mu_sum_partial_outer(sec7, alpha, mu, fast)
        embed = (part.q_p, _embed_structured(sec7, part.sigma_cc))
        bc = bc_mu_sum(sec7, alpha, mu, fast, extra_starts=[embed])
        assert bc.value >= part.value - 1e-8


def test_condition_check_degenerate_true(fast):
    ch = CognitiveChannel(
        h_pp=[[1.2]], h_pc=[[0.1]], h_cp=[[0.7]], h_cc=[[1e-12]],
        p_p=4.0, p_c=4.0, real_mode=True,
    )
    assert condition_check(ch, 1.0, 1e6, 1e-3, fast)


def test_condition_check_bundled_at_alpha_star(sec7, fast):
    assert condition_check(sec7, 0.5535, 1e6, 1e-3, fast)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_condition_check_rejects_bad_tol(sec7, tol):
    with pytest.raises(ValueError, match="tol"):
        condition_check(sec7, 0.5535, 1e6, tol)


def test_condition_check_gap_fixture():
    opts = SolverSettings(starts=10, seed=7)
    part = mu_sum_partial_outer(GAP_CHANNEL, 1.0, 1.0, opts)
    oracle = grid_oracle(GAP_CHANNEL, 1.0, 4000, "partial_outer", 1.0)
    assert part.value == pytest.approx(oracle, abs=1e-4)
    bc = bc_mu_sum(GAP_CHANNEL, 1.0, 1.0, opts)
    assert bc.value - part.value > 0.3
    assert not condition_check(GAP_CHANNEL, 1.0, 1.0, 1e-3, opts)


def test_trace_outer_boundary_endpoint(sec7, fast):
    boundary = trace_outer_boundary(sec7, 1.0, [1e6], fast)
    assert boundary.points[0].rate.r_p == pytest.approx(FLIPPED_A1, abs=1e-6)
    assert boundary.points[0].rate.r_c == pytest.approx(0.0, abs=1e-8)
    assert boundary.metadata["alpha"] == 1.0


def test_trace_outer_boundary_dominates_region(sec7, fast):
    grid = np.geomspace(0.05, 50, 7)
    region = trace_boundary(sec7, grid, fast)
    for alpha in (0.25, 1.0, 4.0):
        bound = trace_outer_boundary(sec7, alpha, grid, fast, warm_boundary=region)
        for bp, rp in zip(bound.points, region.points):
            assert bp.mu == rp.mu
            assert bp.rate.mu_sum(bp.mu) >= rp.rate.mu_sum(rp.mu) - 1e-6


def test_tracers_keep_repeated_mus(sec7, fast):
    grid = [2.0, 1.0, 1.0]
    region = trace_boundary(sec7, grid, fast)
    bound = trace_outer_boundary(sec7, 1.0, grid, fast, warm_boundary=region)
    for boundary in (region, bound):
        assert [p.mu for p in boundary.points] == grid


def test_sweep_mu_warm_starts_largest_first_and_names_the_failing_mu():
    seen = []

    def solve(mu, warm):
        seen.append((mu, warm))
        if mu < 1.0:
            raise SolverDiverged("non-finite objective")
        return RatePair(mu, 1.0), {"mu": mu}, f"theta at {mu:g}"

    mus, rates, witnesses = sweep_mu([1.0, 3.0, 1.0], solve)
    assert mus == [3.0, 1.0, 1.0] and [w["mu"] for w in witnesses] == mus
    assert seen == [(3.0, None), (1.0, "theta at 3"), (1.0, "theta at 1")]
    with pytest.raises(SolverDiverged, match=r"objective \(at mu=0.5, alpha=2\)$"):
        sweep_mu([2.0, 0.5], solve, where=", alpha=2")


def test_containment_on_randomized_channels(rng):
    # the bound contains the region for every (alpha, mu), whatever the
    # channel; checked with the mapped witness so solver noise cannot flip it
    opts = SolverSettings(starts=4, seed=29)
    for _ in range(8):
        gains = rng.normal(0, 1.2, size=3)
        if min(abs(g) for g in gains) < 0.05:
            continue
        ch = CognitiveChannel(
            h_pp=[[gains[0]]], h_pc=[[0.1]], h_cp=[[gains[1]]],
            h_cc=[[gains[2]]], p_p=float(rng.uniform(1, 6)),
            p_c=float(rng.uniform(1, 6)), real_mode=True,
        )
        for mu in (0.0, 1.7):
            ach = mu_sum_achievable(ch, mu, opts)
            for alpha in (0.3, 1.0, 4.0):
                bound = mu_sum_partial_outer(
                    ch, alpha, mu, opts, extra_starts=[ach.witness]
                )
                assert bound.value >= ach.value - 1e-9


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mu", [1.0, 4.0])
def test_bc_mu_sum_gap_bounds_a_long_solve(monkeypatch, n, mu):
    # the Frank-Wolfe gap makes value + gap_bits an upper value: no longer
    # solve may end above it (complex ladder channels of the benchmark)
    monkeypatch.syspath_prepend(BENCH)
    from inputs import mimo_channel

    ch = load_channel(json.dumps(mimo_channel(n, 1)))
    res = bc_mu_sum(ch, 1.0, mu, SolverSettings(starts=2, seed=0))
    long = bc_mu_sum(ch, 1.0, mu, SolverSettings(starts=2, seed=0, max_iters=20000, rel_tol=1e-15))
    assert res.gap_bits >= 0.0
    assert res.value + res.gap_bits >= long.value
