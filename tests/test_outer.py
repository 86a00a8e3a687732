import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from conftest import (
    ORACLE_GAP,
    ascent_rates,
    bound_start,
    embed_structured,
    ladder,
    random_channel,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cograte.achievable as achievable
import cograte.oracles as oracles
import cograte.outer as outer
from cograte.achievable import (
    DpcAllocation,
    LogDetProgram,
    _dpc_matrices,
    _two_block_program,
    dpc_rate_caps,
    mu_sum_achievable,
    scale_allocation,
    trace_boundary,
)
from cograte.channel import CognitiveChannel, composite_matrices, scaled_channel
from cograte.errors import InfeasibleAllocation, SolverDiverged, UnsupportedMu
from cograte.linalg import log_det_id_plus
from cograte.outer import (
    _alpha_slope,
    _power_split_bound,
    bc_mu_sum,
    condition_check,
    inf_alpha_partial_outer,
    mu_sum_partial_outer,
    partial_outer_max_rp,
    partial_outer_rates,
    scan_points,
    trace_outer_boundary,
)
from cograte.oracles import grid_oracle, kyfan_gap
from cograte.regions import RatePair, RegionBoundary
from cograte.solvers import (
    SolverSettings,
    central_slope,
    golden_section,
    scan_then_golden,
    waterfill,
)

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


def test_inf_alpha_unattained_infimum_reports_unbounded_from_the_edges_alone(sec7):
    # a scan of the two bracket edges sees the same monotone slope
    from cograte.errors import BracketUnbounded

    with pytest.raises(BracketUnbounded):
        inf_alpha_partial_outer(
            sec7, 0.0, alpha_bracket=(0.5, 2.0), opts=SolverSettings(starts=2, seed=1),
            n_scan=2,
        )


def test_alpha_sweep_widens_a_bracket_above_alpha_star(sec7):
    # alpha* = 0.55 lies below (1, 10): one tenfold alpha past the low edge reaches it
    opts = SolverSettings(starts=8, seed=0)
    wide = inf_alpha_partial_outer(sec7, 1e6, opts=opts)
    narrow = inf_alpha_partial_outer(sec7, 1e6, (1.0, 10.0), opts)
    assert narrow.bracket == (0.1, 10.0)
    assert narrow.alpha_star == pytest.approx(wide.alpha_star, rel=1e-6)


@pytest.mark.parametrize("n_scan", [0, 1])
def test_alpha_sweep_rejects_a_scan_without_both_edges(monkeypatch, sec7, n_scan):
    # the slope brackets the minimum between two scan points, so a scan
    # needs both bracket edges
    def fail(*_args, **_kwargs):
        pytest.fail("the sweep solved before checking n_scan")

    monkeypatch.setattr(outer, "mu_sum_partial_outer", fail)
    with pytest.raises(ValueError, match="n_scan"):
        inf_alpha_partial_outer(sec7, 1e6, opts=SolverSettings(starts=2, seed=0), n_scan=n_scan)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("search", ["max_rp", "partial", "kyfan"])
@pytest.mark.parametrize("bracket", [(1.0, 1.0), (10.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                     (1.0, math.inf), (math.nan, 1.0)],
                         ids=["flat", "reversed", "zero", "negative", "infinite", "nan"])
def test_every_alpha_search_rejects_a_bad_bracket_before_any_work(monkeypatch, sec7, search,
                                                                  bracket):
    # a flat bracket scans one alpha only; a zero or negative edge has no log
    def fail(*_args, **_kwargs):
        pytest.fail("an alpha search water-filled or solved before checking its bracket")

    for module, name in ((outer, "scan_then_golden"), (outer, "waterfill"),
                         (achievable, "maximize_multistart"), (oracles, "grid_oracle"),
                         (oracles, "mu_sum_achievable")):
        monkeypatch.setattr(module, name, fail)
    opts = SolverSettings(starts=2, seed=0)
    run = {"max_rp": lambda: outer.inf_alpha_max_rp(sec7, bracket),
           "partial": lambda: inf_alpha_partial_outer(sec7, 2.0, bracket, opts),
           "kyfan": lambda: kyfan_gap(sec7, 2.0, opts, alpha_bracket=bracket)}[search]
    with pytest.raises(ValueError, match=r"invalid alpha bracket \("):
        run()


def _count_sweep_reads(monkeypatch):
    """Alphas handed to each partial solve and alphas the sweep's objective
    reads, in order, one entry per (alpha, mu) weighting or read."""
    solved, read = [], []
    solve, scan = outer.mu_sum_partial_outer, outer.scan_then_golden

    def counted(*args, **kwargs):
        solved.extend(np.atleast_1d(args[1]))
        return solve(*args, **kwargs)

    def scanned(f, xs, *args, **kwargs):
        return scan(lambda x: read.append(math.exp(x)) or f(x), xs, *args, **kwargs)

    monkeypatch.setattr(outer, "mu_sum_partial_outer", counted)
    monkeypatch.setattr(outer, "scan_then_golden", scanned)
    return solved, read


@pytest.mark.parametrize("n_scan", [2, 3, 6])
def test_alpha_sweep_evaluates_both_bracket_edges(monkeypatch, sec7, n_scan):
    # mu = 2 lies below the bundled channel's mu* = 2.93, so every scan alpha
    # is solved; past it the scan reads the closed form at the same alphas.
    # A fresh channel: the session's may already keep that scan
    ch = dataclasses.replace(sec7)
    opts = SolverSettings(starts=2, seed=0)
    for mu in (2.0, 1e6):
        solved, read = _count_sweep_reads(monkeypatch)
        res = inf_alpha_partial_outer(ch, mu, opts=opts, n_scan=n_scan)
        assert res.bracket == (1e-3, 1e3)  # interior minimum: no widening
        # the scan runs in log alpha, so an edge comes back within an ulp or two
        for alphas in (read, solved) if mu == 2.0 else (read,):
            assert alphas[0] == pytest.approx(1e-3, rel=1e-15)
            assert alphas[n_scan - 1] == pytest.approx(1e3, rel=1e-15)
            assert min(alphas) == alphas[0] and max(alphas) == alphas[n_scan - 1]
    assert solved == [res.alpha_star] and res.evaluations == 1


def _golden_alpha_reference(ch, mu, opts, n_scan):
    """The alpha search as it was before the slope search: golden section to
    1e-6 in log alpha on re-solved values between the neighbours of the scan
    minimum, each solve warm-started from the one before, and a final solve
    with all the starts, warm-started from the best alpha's witness."""
    inner = dataclasses.replace(
        opts, starts=max(2, opts.starts // 3), max_iters=min(opts.max_iters, 400)
    )
    cache, warm = {}, []

    def value(log_a):
        a = math.exp(log_a)
        if a not in cache:
            cache[a] = mu_sum_partial_outer(ch, a, mu, inner, extra_starts=warm[-1:])
            warm.append((cache[a].q_p, cache[a].sigma_cc))
        return cache[a].value

    xs = np.log(np.geomspace(1e-3, 1e3, n_scan))
    i = int(np.argmin([value(x) for x in xs]))
    assert 0 < i < n_scan - 1
    golden_section(value, xs[i - 1], xs[i + 1], tol=1e-6)
    best = min(cache, key=lambda a: cache[a].value)
    start = (cache[best].q_p, cache[best].sigma_cc)
    return mu_sum_partial_outer(ch, best, mu, opts, extra_starts=[start]).value


#: Scan points of the golden-section reference of each channel.
_GOLDEN_SCAN = {"bundled": 20, "ladder": 15}
_golden_values: dict = {}


@pytest.mark.parametrize(
    "case, mu, n_scan",
    [
        (case, mu, n_scan)
        for case, mu in (("bundled", 1e6), ("bundled", 2.0), ("ladder", 4.0))
        for n_scan in (_GOLDEN_SCAN[case], 3, 6)
    ],
)
def test_slope_search_is_not_above_the_golden_section_value(sec7, case, mu, n_scan):
    # the coarse scans are held to the dense golden-section reference too
    ch = sec7 if case == "bundled" else ladder(2)
    opts = SolverSettings(starts=2, seed=0)
    res = inf_alpha_partial_outer(ch, mu, opts=opts, n_scan=n_scan)
    if (case, mu) not in _golden_values:
        _golden_values[case, mu] = _golden_alpha_reference(ch, mu, opts, _GOLDEN_SCAN[case])
    reference = _golden_values[case, mu]
    assert res.n_value <= reference * (1.0 + 1e-9)
    # the root finder polishes a coarse scan's wider bracket in a few more
    # steps, yet no sweep of fewer than 6 points makes more solves than 6 do
    assert res.evaluations <= max(n_scan, 6) + 8
    # alpha* is a stationary point: its witness-path slope is a rounding-size
    # residual, where one scan step away the slope is of the value's order
    assert abs(res.slope) <= 1e-4 * max(1.0, res.n_value)


@pytest.mark.parametrize("case, mu", [("bundled", 2.0), ("ladder", 4.0)])
def test_witness_path_slope_matches_re_solved_differences(sec7, case, mu):
    ch = sec7 if case == "bundled" else ladder(2)
    opts = SolverSettings(starts=2, seed=0, rel_tol=1e-12)
    alpha, h = 2.0, 1e-3
    res = mu_sum_partial_outer(ch, alpha, mu, opts)
    slope = _alpha_slope(ch, alpha, mu, res.roots)
    up, down = (
        mu_sum_partial_outer(ch, alpha * math.exp(s), mu, opts,
                             extra_starts=[(res.q_p, res.sigma_cc)]).value
        for s in (h, -h)
    )
    assert slope == pytest.approx((up - down) / (2 * h), rel=1e-4)


def _scaled_channel_slope(ch, alpha, mu, roots):
    """The witness-path slope as first written: three re-scores, each on
    ``scaled_channel(ch, a)`` of its own ``a``."""
    budget = ch.p_p + alpha * ch.p_c

    def along(log_a):
        a = math.exp(log_a)
        scaled = scaled_channel(ch, a)
        c = math.sqrt((ch.p_p + a * ch.p_c) / budget)
        program = _two_block_program(scaled, *_dpc_matrices(scaled))
        return program.factor_rates([c * r for r in roots])[0]

    return central_slope(lambda log_a: along(log_a).mu_sum(mu))(math.log(alpha))[1]


@pytest.mark.parametrize("case, mu", [("bundled", 2.0), ("ladder", 4.0)])
def test_witness_path_slope_matches_the_scaled_channel_form(sec7, case, mu):
    # one stacked re-score on the alpha = 1 matrices, the factors scaled by s
    # of each alpha, against the per-alpha scaled channels
    ch = sec7 if case == "bundled" else ladder(2)
    opts = SolverSettings(starts=2, seed=0)
    for alpha in (0.05, 0.3, 7.0):
        roots = mu_sum_partial_outer(ch, alpha, mu, opts).roots
        want = _scaled_channel_slope(ch, alpha, mu, roots)
        assert abs(want) > 1e-2  # away from the minimizer, where the slope is rounding
        assert _alpha_slope(ch, alpha, mu, roots) == pytest.approx(want, rel=1e-9)


def test_alpha_sweep_makes_few_partial_solves(monkeypatch, sec7):
    calls = []
    solve = outer.mu_sum_partial_outer

    def counted(*args, **kwargs):
        calls.extend(np.atleast_1d(args[1]))  # one entry per (alpha, mu) weighting
        return solve(*args, **kwargs)

    monkeypatch.setattr(outer, "mu_sum_partial_outer", counted)
    n_scan, opts = 12, SolverSettings(starts=2, seed=0)
    # below mu* = 2.93 every alpha read is solved; past it alpha* alone
    for mu, most in ((2.0, n_scan + 8), (1e6, 1)):
        calls.clear()
        res = inf_alpha_partial_outer(sec7, mu, opts=opts, n_scan=n_scan)
        assert len(calls) == res.evaluations <= most
        assert res.alpha_star == calls[-1]


def _sweep_budgets(monkeypatch, ch, *args, mu=1e6, **kwargs):
    """An alpha sweep at ``mu`` and ``[alphas, max_iters, iterations]`` of
    each of its partial solves, an iteration being a gradient call."""
    calls = []
    solve, ascend = outer.mu_sum_partial_outer, achievable.maximize_multistart

    def recorded(ch, alpha, mu, opts, *rest, **options):
        calls.append([np.atleast_1d(alpha).tolist(), opts.max_iters, 0])
        return solve(ch, alpha, mu, opts, *rest, **options)

    def counted(objective, *args, **kwargs):
        def wrapped(thetas):
            values, gradient = objective(thetas)
            return values, lambda w: calls[-1].__setitem__(2, calls[-1][2] + 1) or gradient(w)

        return ascend(wrapped, *args, **kwargs)

    monkeypatch.setattr(outer, "mu_sum_partial_outer", recorded)
    monkeypatch.setattr(achievable, "maximize_multistart", counted)
    return inf_alpha_partial_outer(ch, mu, *args, **kwargs), calls


def test_each_alpha_sweep_solve_gets_its_own_budget(monkeypatch, sec7):
    # below mu* the scan, each polish step and the final solve all get the one
    # ascent budget of opts; the Newton polish of each winner converges the
    # point.  Past mu* the final solve is the only one, with that budget
    opts = SolverSettings(starts=2, seed=0)
    res, calls = _sweep_budgets(monkeypatch, sec7, mu=2.0, opts=opts, n_scan=6)
    (scan, scan_budget, _), *polish, (final, final_budget, _) = calls
    assert len(scan) == 6 and scan_budget == opts.max_iters
    assert polish and all(len(alphas) == 1 and budget == opts.max_iters
                          for alphas, budget, _ in polish)
    assert final == [res.alpha_star] and final_budget == opts.max_iters == 20

    capped_opts = dataclasses.replace(opts, max_iters=60)
    _, capped = _sweep_budgets(monkeypatch, sec7, mu=2.0, opts=capped_opts)
    assert len(capped) > 2 and {budget for _, budget, _ in capped} == {60}
    res, calls = _sweep_budgets(monkeypatch, sec7, opts=capped_opts, n_scan=6)
    assert [alphas for alphas, _, _ in calls] == [[res.alpha_star]]
    assert calls[0][1] == 60


def test_a_widening_solve_keeps_the_polish_budget(monkeypatch, sec7):
    # alpha* = 0.57 lies below (1, 10) at mu = 2 < mu*, so the scan gains the
    # point 0.1, whose solve gets the same budget as every other; past mu* the
    # closed form widens the same way and alpha* alone is solved
    opts = SolverSettings(starts=2, seed=0)
    res, calls = _sweep_budgets(monkeypatch, sec7, (1.0, 10.0), opts, mu=2.0)
    assert res.bracket == (0.1, 10.0)
    widening = [budget for alphas, budget, _ in calls if alphas[0] == pytest.approx(0.1, rel=1e-12)]
    assert widening == [opts.max_iters]
    assert calls[0][1] == opts.max_iters
    res, calls = _sweep_budgets(monkeypatch, sec7, (1.0, 10.0), opts)
    assert res.bracket == (0.1, 10.0)
    assert [(alphas, budget) for alphas, budget, _ in calls] == [
        ([res.alpha_star], opts.max_iters)]


@pytest.mark.parametrize("n_scan", [3, 6])
@pytest.mark.parametrize("case, mu", [("bundled", 1e6), ("bundled", 2.0), ("ladder", 4.0)])
def test_the_short_scan_budget_keeps_the_sweep_result(monkeypatch, sec7, case, mu, n_scan):
    # the same sweep with every ascent, the scan's too, at 400 iterations: the
    # scan's brackets and every result the polish and the final solve fix
    # are unchanged
    ch = sec7 if case == "bundled" else ladder(3)
    opts = SolverSettings(starts=2, seed=0)
    short = inf_alpha_partial_outer(ch, mu, opts=opts, n_scan=n_scan)
    long = inf_alpha_partial_outer(ch, mu, opts=dataclasses.replace(opts, max_iters=400),
                                   n_scan=n_scan)
    assert (short.bracket, short.non_unimodal) == (long.bracket, long.non_unimodal)
    assert abs(math.log(short.alpha_star / long.alpha_star)) <= 2e-6
    assert short.n_value == pytest.approx(long.n_value, rel=1e-11)


def test_the_sweep_certifies_every_solve(monkeypatch, sec7):
    # at mu = 1e6 the licensed corner meets the power-split bound at every
    # alpha, so the sweep's one solve, at alpha*, ends a few iterations after
    # its start values and skips the Newton polish: its result is bit for bit
    # the one with the polish patched out.  Below mu* every solve, the scan's
    # too, asks the power-split bound for its upper values
    opts = SolverSettings(starts=8, seed=0)  # reproduce-paper's
    res, calls = _sweep_budgets(monkeypatch, sec7, opts=opts)
    assert [alphas for alphas, _, _ in calls] == [[res.alpha_star]] and calls[0][2] <= 5

    uppers = []
    split = outer._power_split_bound
    monkeypatch.setattr(outer, "_power_split_bound",
                        lambda ch, alphas, mus: uppers.append(list(alphas))
                        or split(ch, alphas, mus))
    _, low_calls = _sweep_budgets(monkeypatch, sec7, mu=2.0, opts=opts, n_scan=6)
    assert len(low_calls[0][0]) == 6 and len(low_calls) >= 4
    assert uppers == [alphas for alphas, _, _ in low_calls]

    monkeypatch.setattr(outer, "_power_split_bound", split)
    monkeypatch.setattr(achievable, "newton_polish",
                        lambda _f, _groups, _opts, _w, thetas, values, *rest: (values, thetas))
    free, _ = _sweep_budgets(monkeypatch, sec7, opts=opts)
    for field in dataclasses.fields(res):
        got, want = getattr(res, field.name), getattr(free, field.name)
        assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want


def _no_upper(ch, alphas, mus):
    """A stand-in for ``outer._power_split_bound`` that certifies no solve."""
    return np.full(len(mus), np.inf)


def _uncertified(*args, **kwargs):
    """:func:`mu_sum_partial_outer` with every upper value at ``+inf``, so no
    weighting of its ascent is certified."""
    with mock.patch.object(outer, "_power_split_bound", _no_upper):
        return mu_sum_partial_outer(*args, **kwargs)


def test_the_closed_form_sweep_is_the_uncertified_solver_driven_one(monkeypatch, sec7):
    # reproduce-paper's sweep against one that solves every alpha it reads
    # (no weight reaches an infinite mu*) and certifies none of its solves
    opts = SolverSettings(starts=8, seed=0)  # reproduce-paper's
    res = inf_alpha_partial_outer(sec7, 1e6, opts=opts)
    monkeypatch.setattr(CognitiveChannel, "licensed_weight", property(lambda _: math.inf))
    monkeypatch.setattr(outer, "_power_split_bound", _no_upper)
    solved = inf_alpha_partial_outer(sec7, 1e6, opts=opts)
    assert res.evaluations == 1 < solved.evaluations
    assert (solved.bracket, solved.non_unimodal) == (res.bracket, res.non_unimodal)
    assert solved.n_value == pytest.approx(res.n_value, rel=1e-12)


def test_past_the_licensed_weight_a_mimo_sweep_solves_once(monkeypatch):
    # mimo_tightness's sweep: mu = 4 lies past mu* = 3.68, where the bound is
    # the licensed corner's value; the power-split form alone lies bits above
    ch = ladder(2)
    opts = SolverSettings(starts=2, seed=0)
    res, calls = _sweep_budgets(monkeypatch, ch, mu=4.0, opts=opts, n_scan=scan_points(100))
    assert [alphas for alphas, _, _ in calls] == [[res.alpha_star]] and res.evaluations == 1
    assert calls[0][1] == opts.max_iters and calls[0][2] <= 5
    probe = mu_sum_partial_outer(ch, 1.0, 4.0, opts)
    assert probe.value == pytest.approx(4.0 * partial_outer_max_rp(ch, 1.0), rel=1e-9)
    assert res.n_value == pytest.approx(4.0 * partial_outer_max_rp(ch, res.alpha_star), rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(complex_mode=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_past_the_licensed_weight_the_bound_is_the_licensed_corner(complex_mode, seed):
    # from mu = max(1, mu*) on, U is mu C(g_alpha, p_p + alpha p_c), which the
    # licensed corner meets and no solve passes
    ch = random_channel(np.random.default_rng(seed), complex_mode)
    assume(math.isfinite(ch.licensed_weight))
    alphas = np.repeat([0.2, 1.0, 5.0], 3)
    mus = max(1.0, ch.licensed_weight) * np.array([1.0, 1.5, 30.0] * 3)
    opts = SolverSettings(starts=2, max_iters=200, seed=0)
    free = _uncertified(ch, alphas, mus, opts)
    for a, mu, u, want in zip(alphas, mus, _power_split_bound(ch, alphas, mus), free):
        assert u == pytest.approx(mu * partial_outer_max_rp(ch, a), rel=1e-12)
        assert want.value <= u * (1.0 + 1e-12)
        assert want.value == pytest.approx(u, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(complex_mode=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_past_the_licensed_weight_the_sweep_is_the_solver_driven_one(complex_mode, seed):
    # from mu = max(1, mu*) on the sweep reads the closed form and solves
    # alpha* alone; with the closed form patched out (no weight reaches an
    # infinite mu*) it solves every alpha it reads, to the same value
    ch = random_channel(np.random.default_rng(seed), complex_mode)
    assume(math.isfinite(ch.licensed_weight))
    opts = SolverSettings(starts=2, seed=0)
    for mu in max(1.0, ch.licensed_weight) * np.array([1.0, 1.5, 30.0]):
        res = inf_alpha_partial_outer(ch, mu, opts=opts)
        with mock.patch.object(CognitiveChannel, "licensed_weight", property(lambda _: math.inf)):
            solved = inf_alpha_partial_outer(ch, mu, opts=opts)
        assert res.evaluations == 1 < solved.evaluations
        assert res.n_value == pytest.approx(solved.n_value, rel=1e-9)
        rate = partial_outer_rates(ch, res.alpha_star, res.q_p, res.sigma_cc)
        assert rate.mu_sum(mu) == pytest.approx(res.n_value, rel=1e-9)


def test_below_one_the_sweep_still_solves(monkeypatch):
    # mu* = 0.395 on the one-antenna rung, but at mu = 0.5 < 1 the bound's
    # least over alpha lies 0.79 bits above mu min_alpha C(g_alpha, B), at an
    # alpha* (6.79) far from that closed form's (2.16): the sweep must solve
    # the alphas it reads
    ch = ladder(1)
    assert ch.licensed_weight < 0.5
    calls = []
    solve = outer.mu_sum_partial_outer
    monkeypatch.setattr(outer, "mu_sum_partial_outer",
                        lambda *args, **kwargs: calls.append(args[1]) or solve(*args, **kwargs))
    res = inf_alpha_partial_outer(ch, 0.5, opts=SolverSettings(starts=4, seed=0))
    assert len(calls) > 2 and res.evaluations > 2
    closed = outer.inf_alpha_max_rp(ch)
    assert res.n_value > 0.5 * closed.value + 0.5
    assert abs(math.log(res.alpha_star) - closed.x) > 1.0


@settings(max_examples=20, deadline=None)
@given(complex_mode=st.booleans(), mu=st.floats(0.1, 10.0),
       log_alpha=st.floats(math.log(0.1), math.log(10.0)), seed=st.integers(0, 2**32 - 1))
def test_the_partial_bound_holds_the_mapped_achievable_winner(complex_mode, mu, log_alpha, seed):
    # scale_allocation maps the DPC region into each alpha's bound with its
    # rate pair, so the bound seeded with the winner ends no lower
    ch, alpha = random_channel(np.random.default_rng(seed), complex_mode), math.exp(log_alpha)
    opts = SolverSettings(starts=2, seed=0)
    win = mu_sum_achievable(ch, mu, opts)
    start = bound_start(win.witness, alpha)
    rate = partial_outer_rates(ch, alpha, *start)
    np.testing.assert_allclose([rate.r_p, rate.r_c], [win.rate.r_p, win.rate.r_c], atol=1e-9)
    bound = mu_sum_partial_outer(ch, alpha, mu, opts, [start])
    assert bound.value >= win.value - 1e-9 * abs(win.value)


def test_below_one_the_licensed_corner_bounds_nothing(monkeypatch):
    # mu* = 0.395 on the one-antenna rung, but at mu = 0.5 < 1 the cognitive
    # rate is worth more than the interference it causes: the solve lies more
    # than a bit above mu C(g, B), and the certificates stay away
    ch = ladder(1)
    assert ch.licensed_weight < 0.5
    free = _uncertified(ch, 1.0, 0.5, SolverSettings(starts=4, seed=0))
    (upper,) = _power_split_bound(ch, [1.0], [0.5])
    assert free.value > 0.5 * partial_outer_max_rp(ch, 1.0) + 1.0
    assert free.value <= upper
    assert outer._licensed_corner_upper(ch, [0.5, 0.99]).tolist() == [math.inf] * 2


def test_the_power_split_bound_is_the_licensed_corner_at_every_sweep_alpha(monkeypatch, sec7):
    # at mu = 1e6 all power goes to the licensed rate, so the power-split
    # bound at each alpha the sweep reads is mu times the value the sweep's
    # scan reads there: the water-filled capacity of g_alpha under p_p +
    # alpha p_c.  A fresh channel: the session's may already keep that scan
    ch = dataclasses.replace(sec7)
    reads = []
    scan = outer.scan_then_golden

    def recorded(f, xs, *args, **kwargs):
        return scan(lambda x: reads.append((math.exp(x), f(x)[0])) or f(x), xs, *args, **kwargs)

    monkeypatch.setattr(outer, "scan_then_golden", recorded)
    res = inf_alpha_partial_outer(ch, 1e6, opts=SolverSettings(starts=2, seed=0))
    alphas, values = zip(*reads)
    assert len(reads) >= 10 and res.alpha_star in alphas
    upper = _power_split_bound(ch, alphas, [1e6] * len(alphas))
    for a, value, u in zip(alphas, values, upper):
        assert value == partial_outer_max_rp(ch, a)
        assert u == pytest.approx(1e6 * value, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(complex_mode=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(complex_mode=False, seed=128)  # certified 1.03e-9 low under an absolute floor
@example(complex_mode=True, seed=785)  # a capped solve moved with its batch's size
def test_the_power_split_bound_lies_above_every_partial_solve(complex_mode, seed):
    # mu = 0 is the cognitive corner, where the bound is the maximum itself;
    # a certified solve ends where the uncertified one does
    ch = random_channel(np.random.default_rng(seed), complex_mode)
    alphas, mus = np.repeat([0.2, 1.0, 5.0], 5), [0.0, 0.3, 1.0, 3.0, 30.0] * 3
    opts = SolverSettings(starts=2, max_iters=200, seed=0)  # any point's value lies below
    free = _uncertified(ch, alphas, mus, opts)
    certified = mu_sum_partial_outer(ch, alphas, mus, opts)
    for u, got, want in zip(_power_split_bound(ch, alphas, mus), certified, free):
        assert want.value <= u + 1e-12 * max(1.0, u)
        assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-12)


def test_the_power_split_bound_is_the_optimum_without_interference():
    # with h_cp = 0 the licensed receiver hears no interference and the bound
    # is the partial bound's maximum, here with power on both sides: the best
    # split of p_p + alpha p_c between the two water-fillings
    ch = CognitiveChannel(h_pp=[[1.2, 0.3], [-0.4, 0.9]], h_pc=[[0.2, 0.1], [0.3, -0.1]],
                          h_cp=np.zeros((2, 2)), h_cc=[[0.8, 0.2], [0.1, 1.1]], p_p=3.0, p_c=2.0)
    alpha, mu = 0.7, 1.5
    (upper,) = _power_split_bound(ch, [alpha], [mu])
    g, budget = composite_matrices(ch, alpha).g_alpha, ch.p_p + alpha * ch.p_c

    def lost(p0):
        return -(mu * waterfill(g, p0)[0] + waterfill(ch.h_cc / math.sqrt(alpha), budget - p0)[0])

    split, best = golden_section(lost, 1e-9, budget - 1e-9, tol=1e-12)
    assert 0.1 * budget < split < 0.9 * budget
    assert upper == pytest.approx(-best, rel=1e-12)
    res = _uncertified(ch, alpha, mu, SolverSettings(starts=4, seed=0))
    assert res.rate.r_p > 1.0 and res.rate.r_c > 1.0
    assert res.value == pytest.approx(upper, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(complex_mode=st.booleans(), seed=st.integers(0, 2**32 - 1),
       mu=st.floats(0.1, 10.0), t=st.floats(1.0, 4.0))
def test_rates_are_monotone_in_power(complex_mode, seed, mu, t):
    # scaling both powers by t >= 1 grows the feasible sets of the DPC region
    # and of the partial bound, so neither maximal mu-sum may fall
    ch = random_channel(np.random.default_rng(seed), complex_mode)
    more = dataclasses.replace(ch, p_p=t * ch.p_p, p_c=t * ch.p_c)
    opts = SolverSettings(starts=2, seed=0)
    for solve in (lambda c: mu_sum_achievable(c, mu, opts),
                  lambda c: mu_sum_partial_outer(c, 1.0, mu, opts)):
        value = solve(ch).value
        assert solve(more).value >= value - 1e-9 * max(1.0, value)


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
    low_p, low_c = res.roots

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
    part = mu_sum_partial_outer(sec7, 1.0, 0.5, fast)
    with pytest.raises(UnsupportedMu):
        condition_check(sec7, 1.0, 0.5, part.value, 1e-3, fast)


@pytest.mark.parametrize("start, message", [
    ((np.full((2, 2), math.nan), np.zeros((2, 2))), "q_p has a non-finite entry"),
    ((np.zeros((2, 2)), 6.0 * np.eye(2)), "exceeds sum budget"),
], ids=["nan", "over-budget"])
def test_bc_mu_sum_rejects_a_bad_start_before_its_solve(monkeypatch, sec7, start, message):
    def fail(*_args, **_kwargs):
        pytest.fail("a bad start reached the ascent")

    monkeypatch.setattr(achievable, "maximize_multistart", fail)
    with pytest.raises(InfeasibleAllocation, match=message):
        bc_mu_sum(sec7, 1.0, 2.0, SolverSettings(starts=1), extra_starts=[start])


def test_a_misshaped_covariance_is_named_before_any_solve(monkeypatch, sec7):
    # numpy's matmul rejected these inside the rate scorer, and bc_mu_sum
    # only after its whole dual solve
    def fail(*_args, **_kwargs):
        pytest.fail("a mis-shaped start reached the solve")

    monkeypatch.setattr(outer, "_solve", fail)
    with pytest.raises(InfeasibleAllocation, match=r"q_p has shape \(3, 3\), expected \(2, 2\)"):
        partial_outer_rates(sec7, 1.0, np.eye(3), [[0.0]])
    with pytest.raises(InfeasibleAllocation, match=r"sigma_cc has shape \(2, 2\), expected \(1, 1\)"):
        partial_outer_rates(sec7, 1.0, np.eye(2), np.eye(2))
    opts = SolverSettings(starts=1)
    with pytest.raises(InfeasibleAllocation, match=r"q_p has shape \(3, 3\), expected \(2, 2\)"):
        bc_mu_sum(sec7, 1.0, 2.0, opts, extra_starts=[(np.eye(3), np.eye(3))])
    with pytest.raises(InfeasibleAllocation, match=r"q_c has shape \(1, 1\), expected \(2, 2\)"):
        bc_mu_sum(sec7, 1.0, 2.0, opts, extra_starts=[(np.eye(2), [[1.0]])])


def test_grid_witnesses_take_one_eigenvalue_check_per_block(monkeypatch, sec7):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(np.shape(m)) or eigvalsh(m))
    opts = SolverSettings(starts=1, max_iters=5)
    mu_sum_achievable(sec7, [4.0, 2.0, 1.0, 0.5], opts)
    assert calls == [(4, 2, 2), (4, 1, 1)]
    calls.clear()
    mu_sum_partial_outer(sec7, [0.5, 1.0, 2.0], 2.0, opts)
    assert calls == [(3, 2, 2), (3, 1, 1)]


def test_a_grid_witness_over_its_budget_is_named_by_mu_and_alpha(monkeypatch, sec7):
    solve = outer._solve

    def doubled(*args, **kwargs):
        mus, phis = solve(*args, **kwargs)
        return mus, phis * np.array([[1.0], [2.0], [1.0]])  # the second at twice its radius

    monkeypatch.setattr(outer, "_solve", doubled)
    with pytest.raises(InfeasibleAllocation, match=r"sum budget 7.5 \(at mu=2, alpha=0.5\)$"):
        mu_sum_partial_outer(sec7, [1.0, 0.5, 2.0], 2.0, SolverSettings(starts=1, max_iters=5))


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
    for alpha, mu in ((0.5, 1.0), (1.0, 2.0), (2.0, 1e3)):
        part = mu_sum_partial_outer(sec7, alpha, mu, fast)
        embed = (part.q_p, embed_structured(sec7, part.sigma_cc))
        bc = bc_mu_sum(sec7, alpha, mu, fast, extra_starts=[embed])
        assert bc.value >= part.value - 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_capacity_sandwich_closes_on_the_ladder_at_large_mu(n):
    # at large mu the broadcast upper bound at the alpha of the licensed-rate
    # cap meets the DPC lower one, so an ascent that settles below the global
    # maximum of the achievable mu-sum opens the sandwich
    ch = ladder(n)
    scan = scan_then_golden(
        central_slope(lambda log_a: partial_outer_max_rp(ch, math.exp(log_a))),
        np.log(np.geomspace(1e-3, 1e3, 6)),
        tol=1e-12,
    )
    opts = SolverSettings(starts=8, seed=0)
    for mu in (30.0, 1e3):
        bc = bc_mu_sum(ch, math.exp(scan.x), mu, opts)
        gap = bc.value + bc.gap_bits - mu_sum_achievable(ch, mu, opts).value
        assert -1e-9 * mu <= gap <= 1e-6 * mu


def _condition_at(ch, alpha, mu, tol, opts):
    """condition_check at the partial bound's own value at (alpha, mu)."""
    part = mu_sum_partial_outer(ch, alpha, mu, opts)
    return condition_check(ch, alpha, mu, part.value, tol, opts)


def test_condition_check_degenerate_true(fast):
    ch = CognitiveChannel(
        h_pp=[[1.2]], h_pc=[[0.1]], h_cp=[[0.7]], h_cc=[[1e-12]],
        p_p=4.0, p_c=4.0, real_mode=True,
    )
    assert _condition_at(ch, 1.0, 1e6, 1e-3, fast)


def test_condition_check_bundled_at_alpha_star(sec7, fast):
    assert _condition_at(sec7, 0.5535, 1e6, 1e-3, fast)


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_condition_check_rejects_bad_tol(sec7, fast, tol):
    with pytest.raises(ValueError, match="tol"):
        _condition_at(sec7, 0.5535, 1e6, tol, fast)


def test_condition_check_gap_fixture():
    opts = SolverSettings(starts=10, seed=7)
    part = mu_sum_partial_outer(GAP_CHANNEL, 1.0, 1.0, opts)
    oracle = grid_oracle(GAP_CHANNEL, 1.0, 4000, "partial_outer", 1.0)
    assert part.value == pytest.approx(oracle, abs=1e-4)
    bc = bc_mu_sum(GAP_CHANNEL, 1.0, 1.0, opts)
    assert bc.value - part.value > 0.3
    assert not condition_check(GAP_CHANNEL, 1.0, 1.0, part.value, 1e-3, opts)


def test_condition_check_reads_the_winner_it_is_handed(monkeypatch, sec7, fast):
    # the check makes one broadcast solve and no partial one, and compares
    # against the value it is handed: lowering that value by 1 bit fails it
    part = mu_sum_partial_outer(sec7, 0.5535, 1e6, fast)
    calls = []
    monkeypatch.setattr(outer, "mu_sum_partial_outer", lambda *a, **k: calls.append(a))
    args = (sec7, 0.5535, 1e6)
    assert condition_check(*args, part.value, 1e-3, fast)
    assert not condition_check(*args, part.value - 1.0, 1e-3, fast)
    assert calls == []


@pytest.mark.parametrize("mu, holds", [(1.0, False), (10.0, False), (1e10, True), (1e14, True)])
def test_the_tightness_check_at_the_sweeps_alpha_star(sec7, mu, holds):
    # the partial and broadcast programs agree to about 1e-13 of the value,
    # 2.35 mu bits here, which passes an absolute tol from mu = 4e9 on; at
    # mu = 1 and 10 the broadcast value lies 0.65 and 0.096 bits above
    opts = SolverSettings(starts=2, seed=0)
    sweep = inf_alpha_partial_outer(sec7, mu, opts=opts)
    assert condition_check(sec7, sweep.alpha_star, mu, sweep.n_value, 1e-3, opts) is holds


@pytest.mark.parametrize("mu", [1e155, 1e300])
def test_the_sweep_past_the_float_square_of_the_gradient(sec7, mu):
    # the ascent's and the polish's gradient norms overflowed from mu ~ 1e155
    # (a RuntimeWarning, an error in this suite); the sweep reads the closed
    # form, and its tightness check holds
    opts = SolverSettings(starts=2, seed=0)
    sweep = inf_alpha_partial_outer(sec7, mu, opts=opts)
    assert sweep.n_value / mu == pytest.approx(outer.inf_alpha_max_rp(sec7).value, rel=1e-9)
    assert condition_check(sec7, sweep.alpha_star, mu, sweep.n_value, 1e-3, opts)


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


def test_a_diverging_grid_names_its_mu_and_alpha(monkeypatch, sec7, fast):
    # the gradient goes non-finite for the rows of mu = 0.5 alone, the last
    # mu of the grid in solve order; the error names that mu, not the first
    objective = LogDetProgram.objective

    def poisoned(self, thetas):
        values, gradient = objective(self, thetas)

        def bad_gradient(w):
            # every two-block program weights r_p's log-dets by mu, r_c's by 1
            offending = np.isclose(w[:, 0], 0.5 * w[:, 2])
            return np.where(offending[:, None], np.nan, gradient(w))

        return values, bad_gradient

    monkeypatch.setattr(LogDetProgram, "objective", poisoned)
    with pytest.raises(SolverDiverged, match=r"gradient evaluation \(at mu=0.5, alpha=2\)$"):
        trace_outer_boundary(sec7, 2.0, [1.0, 0.5, 3.0], fast)
    with pytest.raises(SolverDiverged, match=r"gradient evaluation \(at mu=0.5\)$"):
        trace_boundary(sec7, [1.0, 0.5, 3.0], fast)


@pytest.mark.parametrize("channel", ["bundled", "mimo"])
def test_a_grid_solve_is_each_mu_solved_alone(sec7, channel):
    # every start of every mu climbs in one batch; each mu's rows must see
    # that mu's weights, so each grid point is its own standalone solve
    if channel == "mimo":
        ch = ladder(2)
    else:
        ch = sec7
    opts = SolverSettings(starts=4, seed=5)
    grid = [3.0, 1.0, 0.25]
    alone = [mu_sum_achievable(ch, mu, opts) for mu in grid]
    extra = [[bound_start(res.witness, 0.7)] for res in alone]
    cases = [
        (mu_sum_achievable(ch, grid, opts), alone),
        (
            mu_sum_partial_outer(ch, 0.7, grid, opts, extra_starts=extra),
            [mu_sum_partial_outer(ch, 0.7, mu, opts, extra_starts=e) for mu, e in zip(grid, extra)],
        ),
    ]
    for together, apart in cases:
        assert len(together) == len(grid)
        for mu, got, want in zip(grid, together, apart):
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert got.value == pytest.approx(got.rate.mu_sum(mu), rel=1e-15)
            for got_root, want_root in zip(got.roots, want.roots):
                np.testing.assert_allclose(got_root, want_root, rtol=1e-12, atol=1e-12)


def _bundled_or_ladder(sec7, channel):
    return sec7 if channel == "bundled" else ladder(2)


@pytest.mark.parametrize("channel", ["bundled", "mimo"])
def test_the_bound_at_alpha_is_the_alpha_one_program_on_scaled_columns(
    sec7, channel, rng
):
    # the identity every alpha grid rests on: the program of the scaled
    # channel at theta equals the alpha = 1 program at s * theta, with s
    # 1/sqrt(alpha) on the cognitive rows of both Cholesky factors
    ch = _bundled_or_ladder(sec7, channel)
    one = _two_block_program(ch, *_dpc_matrices(ch))
    licensed = (one.param_block == 0) & (one.param_row < ch.n_pt)
    thetas = rng.standard_normal((5, one.n_params))
    for alpha in (1e-3, 0.3, 7.0):
        scaled = scaled_channel(ch, alpha)
        program = _two_block_program(scaled, *_dpc_matrices(scaled))
        s = np.where(licensed, 1.0, 1.0 / math.sqrt(alpha))
        for got, want in zip(ascent_rates(one, s * thetas), ascent_rates(program, thetas)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("channel", ["bundled", "mimo"])
def test_an_alpha_grid_is_each_weighting_solved_alone(sec7, channel):
    # an alpha grid, alone or paired with a mu grid, climbs every (alpha, mu)
    # weighting in one ascent; each must end where its own call ends
    ch = _bundled_or_ladder(sec7, channel)
    opts = SolverSettings(starts=3, seed=4)
    alphas, mus = [0.05, 1.0, 3.0], [2.0, 0.5, 4.0]
    cases = [
        (mu_sum_partial_outer(ch, alphas, 2.0, opts), list(zip(alphas, [2.0] * 3))),
        (mu_sum_partial_outer(ch, alphas, mus, opts), list(zip(alphas, mus))),
    ]
    for together, pairs in cases:
        assert len(together) == len(pairs)
        for (alpha, mu), got in zip(pairs, together):
            want = mu_sum_partial_outer(ch, alpha, mu, opts)
            assert got.alpha == alpha
            assert got.value == pytest.approx(want.value, rel=1e-12)
            for got_root, want_root in zip(got.roots, want.roots):
                np.testing.assert_allclose(got_root, want_root, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="cannot pair"):
        mu_sum_partial_outer(ch, alphas, mus[:2], opts)
    with pytest.raises(ValueError, match="cannot pair"):  # a length-1 list is a grid
        mu_sum_partial_outer(ch, [1.0], mus[:2], opts)


def test_each_partial_bound_start_sits_in_its_own_unit_ball(monkeypatch, sec7):
    # each weighting climbs theta / sqrt(p_p + alpha p_c); a corner spends the
    # whole budget, so it lands on the unit sphere, and a warm theta keeps its
    # direction
    handed = []
    solve = achievable.maximize_multistart

    def spy(*args, **kwargs):
        handed.append(kwargs["extra_starts"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(achievable, "maximize_multistart", spy)
    opts = SolverSettings(starts=1, max_iters=3)
    res = mu_sum_partial_outer(sec7, 1.0, 2.0, opts)
    warm = (res.q_p, res.sigma_cc)
    handed.clear()
    alphas = [0.25, 4.0]
    mu_sum_partial_outer(sec7, alphas, [2.0, 2.0], opts, extra_starts=[[warm], [warm]])
    encoded = _two_block_program(sec7, *_dpc_matrices(sec7)).encode(*warm)
    for alpha, starts in zip(alphas, handed[0]):
        radius = math.sqrt(sec7.p_p + alpha * sec7.p_c)
        corners = [np.linalg.norm(start) for start in starts[:-1]]
        assert max(corners) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_array_equal(starts[-1], encoded / radius)


@pytest.mark.parametrize("alpha, mu, extra", [
    (1.0, [], ()),  # empty grids
    ([], 2.0, ()),
    (1.0, [1.0, math.nan], ()),  # a bad weight inside a grid
    ([0.5, 1.0], [2.0, -1.0], ()),
    (1.0, [1.0, 2.0], [[]]),  # one sequence of extra starts, two weightings
    ([0.5, 1.0], 2.0, [[], [], []]),  # three sequences, two weightings
], ids=["empty-mu", "empty-alpha", "nan-mu", "negative-mu", "one-start-list", "three-start-lists"])
def test_a_bad_weighting_grid_is_rejected_before_any_solve(monkeypatch, sec7, alpha, mu, extra):
    def fail(*_args, **_kwargs):
        pytest.fail("a bad grid reached the ascent")

    monkeypatch.setattr(achievable, "maximize_multistart", fail)
    with pytest.raises(ValueError, match="mu"):
        mu_sum_partial_outer(sec7, alpha, mu, SolverSettings(starts=1), extra_starts=extra)


@pytest.mark.parametrize("form", ["raw vector", "allocation"])
def test_a_start_of_another_form_is_rejected_before_any_solve(monkeypatch, sec7, form):
    # a start is a (q_p, sigma_cc) pair of block covariances, and nothing else
    res = mu_sum_achievable(sec7, 2.0, SolverSettings(starts=1, max_iters=3))
    n_params = _two_block_program(sec7, *_dpc_matrices(sec7)).n_params
    start = {"raw vector": np.zeros(n_params), "allocation": res.witness}[form]

    def fail(*_args, **_kwargs):
        pytest.fail("a start of another form reached the ascent")

    monkeypatch.setattr(achievable, "maximize_multistart", fail)
    with pytest.raises(ValueError, match="a start must be a tuple of one matrix per block"):
        mu_sum_partial_outer(sec7, 1.0, 2.0, SolverSettings(starts=1), extra_starts=[start])


@pytest.mark.parametrize("warm, cold", [("partial curve", 2.0), ("other mus", 0.5)])
def test_a_warm_boundary_without_a_dpc_witness_at_a_grid_mu_is_rejected(
    monkeypatch, sec7, fast, warm, cold
):
    # a partial-bound curve holds (q_p, sigma_cc) witnesses, and a region over
    # other mus none at some grid mu: either would add no start there
    grid = [0.5, 2.0]
    boundary = (trace_outer_boundary(sec7, 1.0, grid, fast) if warm == "partial curve"
                else trace_boundary(sec7, [2.0, 1.0], fast))

    def fail(*_args, **_kwargs):
        pytest.fail("a warm boundary without a witness at a grid mu reached the ascent")

    monkeypatch.setattr(achievable, "maximize_multistart", fail)
    with pytest.raises(ValueError, match=rf"warm_boundary has no DPC witness at mu={cold:g}$"):
        trace_outer_boundary(sec7, [0.5, 1.0], grid, fast, warm_boundary=boundary)


@pytest.mark.parametrize("channel", ["bundled", "mimo"])
def test_a_batched_rescore_is_each_point_rescored_alone(sec7, channel, rng):
    ch = _bundled_or_ladder(sec7, channel)
    program = _two_block_program(ch, *_dpc_matrices(ch))
    roots = program.lower_factors(rng.standard_normal((4, program.n_params)))
    together = program.factor_rates(roots)
    assert len(together) == 4
    for i, got in enumerate(together):
        (want,) = program.factor_rates([r[i] for r in roots])
        assert got.r_p == pytest.approx(want.r_p, rel=1e-12)
        assert got.r_c == pytest.approx(want.r_c, rel=1e-12)


def test_a_repeated_weighting_climbs_as_it_would_alone(monkeypatch, sec7, fast):
    # a repeated mu, or (alpha, mu) pair, is a weighting of the ascent each
    # time, and lands on its twin's result
    handed = []
    solve = achievable.maximize_multistart

    def counted(*args, **kwargs):
        handed.append(len(args[4]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(achievable, "maximize_multistart", counted)
    region = trace_boundary(sec7, [2.0, 1.0, 1.0], fast)
    trace_outer_boundary(sec7, 1.0, [2.0, 1.0, 1.0], fast, warm_boundary=region)
    pairs = mu_sum_partial_outer(sec7, [0.5, 2.0, 0.5], [1.0, 1.0, 1.0], fast)
    assert handed == [3, 3, 3]
    assert pairs[0].value == pairs[2].value
    for twin, root in zip(pairs[0].roots, pairs[2].roots):
        np.testing.assert_array_equal(twin, root)


def test_a_repeated_weighting_climbs_from_its_own_extra_starts(monkeypatch, sec7):
    # a short ascent: the warm start stays ahead of the cold ones, so a
    # repeat that also climbed from its twin's starts would end elsewhere;
    # the ascent's winners are read before the Newton polish, which brings
    # both to the same stationary point
    ascents = []
    ascend = achievable.maximize_multistart
    monkeypatch.setattr(achievable, "maximize_multistart",
                        lambda *args, **kwargs: ascents.append(ascend(*args, **kwargs)) or ascents[-1])
    res = mu_sum_partial_outer(sec7, 1.0, 2.0, SolverSettings(starts=2, seed=0))
    warm = (res.q_p, res.sigma_cc)
    opts = SolverSettings(starts=2, max_iters=3, seed=0)
    ascents.clear()
    grid = mu_sum_partial_outer(sec7, [1.0, 1.0], [2.0, 2.0], opts, extra_starts=[[warm], []])
    alone = [mu_sum_partial_outer(sec7, 1.0, 2.0, opts, [warm]),
             mu_sum_partial_outer(sec7, 1.0, 2.0, opts)]
    (grid_values, grid_thetas), *alone_ascents = ascents
    assert alone_ascents[0][0][0] > alone_ascents[1][0][0]
    for m, (values, thetas) in enumerate(alone_ascents):
        assert grid_values[m] == values[0]
        np.testing.assert_array_equal(grid_thetas[m], thetas[0])
    for got, want in zip(grid, alone):
        assert got.value == want.value
        for got_root, want_root in zip(got.roots, want.roots):
            np.testing.assert_array_equal(got_root, want_root)


def test_a_diverging_alpha_grid_names_its_mu_and_alpha(monkeypatch, sec7, fast):
    # as for a mu grid: only mu = 0.5's rows go non-finite, and that weighting
    # is paired with alpha = 2
    objective = LogDetProgram.objective

    def poisoned(self, thetas):
        values, gradient = objective(self, thetas)

        def bad_gradient(w):
            offending = np.isclose(w[:, 0], 0.5 * w[:, 2])
            return np.where(offending[:, None], np.nan, gradient(w))

        return values, bad_gradient

    monkeypatch.setattr(LogDetProgram, "objective", poisoned)
    with pytest.raises(SolverDiverged, match=r"gradient evaluation \(at mu=0.5, alpha=2\)$"):
        mu_sum_partial_outer(sec7, [1.0, 2.0, 4.0], [1.0, 0.5, 3.0], fast)


@pytest.mark.parametrize("channel", ["bundled", "mimo"])
def test_a_bound_family_is_each_alpha_traced_alone(sec7, channel):
    # every alpha's whole mu grid climbs in one ascent; each curve must be
    # the one its own call traces from the same warm boundary.  The gradient
    # ends in one BLAS product over the whole batch, whose rounding of a row
    # can depend on the batch's size; on the complex ladder the curves differ
    # by up to 6e-15 relative, so they are held to 1e-12, and the bundled
    # channel's to the bit
    ch = _bundled_or_ladder(sec7, channel)
    rtol = 0.0 if channel == "bundled" else 1e-12
    opts = SolverSettings(starts=3, seed=2)
    grid, alphas = [4.0, 1.0, 0.3], [0.25, 1.0, 4.0]
    region = trace_boundary(ch, grid, opts)
    family = trace_outer_boundary(ch, alphas, grid, opts, warm_boundary=region)
    assert isinstance(family, list) and len(family) == len(alphas)
    for alpha, curve in zip(alphas, family):
        alone = trace_outer_boundary(ch, alpha, grid, opts, warm_boundary=region)
        assert isinstance(alone, RegionBoundary)
        assert curve.metadata == alone.metadata
        for got, want in zip(curve.points, alone.points, strict=True):
            assert got.mu == want.mu
            for key in ("r_p", "r_c"):
                assert getattr(got.rate, key) == pytest.approx(getattr(want.rate, key), rel=rtol)
            for key in ("q_p", "sigma_cc"):
                np.testing.assert_allclose(got.witness[key], want.witness[key], rtol=rtol, atol=0)


def test_a_diverging_bound_family_names_its_alpha_and_mu(monkeypatch, sec7, fast):
    # the last weighting of mu = 0.5 in the family's order is alpha = 2's
    def diverging(objective, n_params, project, settings, weights, *args, **kwargs):
        rows = np.flatnonzero(np.isclose(weights[:, 0], 0.5 * weights[:, 2]))
        raise SolverDiverged("non-finite objective in gradient evaluation", owner=int(rows[-1]))

    monkeypatch.setattr(achievable, "maximize_multistart", diverging)
    with pytest.raises(SolverDiverged, match=r"evaluation \(at mu=0.5, alpha=2\)$"):
        trace_outer_boundary(sec7, [0.5, 2.0], [1.0, 0.5, 3.0], fast)


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
                    ch, alpha, mu, opts, extra_starts=[bound_start(ach.witness, alpha)]
                )
                assert bound.value >= ach.value - 1e-9


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mu", [1.0, 4.0])
def test_bc_mu_sum_gap_bounds_a_long_solve(n, mu):
    # the Frank-Wolfe gap makes value + gap_bits an upper value: no longer
    # solve may end above it (complex ladder channels of the benchmark)
    ch = ladder(n)
    res = bc_mu_sum(ch, 1.0, mu, SolverSettings(starts=2, seed=0))
    long = bc_mu_sum(ch, 1.0, mu, SolverSettings(starts=2, seed=0, max_iters=20000, rel_tol=1e-15))
    assert res.gap_bits >= 0.0
    assert res.value + res.gap_bits >= long.value
