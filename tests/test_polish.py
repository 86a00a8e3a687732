"""The Newton polish of each ascent winner (``solvers.newton_polish``): the
points it ends at are stationary, its values never fall, a grid polishes as
its rows alone, it stays finite at huge powers, a short ascent finds the
basin a full one does, and it closes the broadcast bound's duality gap."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import ladder, polish_report, random_channel, record_polish

from cograte.achievable import mu_sum_achievable
from cograte.outer import bc_mu_sum, mu_sum_partial_outer, trace_outer_boundary
from cograte.solvers import SolverSettings, newton_polish

#: Weights of the achievable solves, and (alpha, mu) pairs of the partial ones;
#: at n = 4 a budget of 10 iterations leaves mu = 0.7 in a basin 0.1 bits low.
MUS = [0.5, 0.7, 2.0, 4.0]
ALPHAS, PAIRED_MUS = [1.0, 0.3, 2.0], [2.0, 4.0, 0.5]


def _ladder_solves(ch, opts):
    return (mu_sum_achievable(ch, MUS, opts), mu_sum_partial_outer(ch, ALPHAS, PAIRED_MUS, opts))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_ladder_winner_ends_stationary_and_no_lower(monkeypatch, n):
    # every achievable and partial winner that its upper value does not
    # certify ends at a Riemannian gradient norm of 1e-8 at most; a certified
    # one is proven by its value and skips the polish.  No polished value lies
    # below its ascent value
    polished = record_polish(monkeypatch)
    _ladder_solves(ladder(n), SolverSettings(starts=2, seed=0))
    assert len(polished) == 2
    uncertified = 0
    for call in polished:
        values, after, norms, certified = polish_report(call)
        assert (after >= values).all()
        assert (norms[~certified] <= 1e-8).all()
        np.testing.assert_array_equal(after[certified], values[certified])
        uncertified += int((~certified).sum())
    assert uncertified >= 2  # the test is not vacuous


@pytest.mark.parametrize("seed", range(6))
def test_no_polished_value_lies_below_its_ascent_value(monkeypatch, seed):
    # random real and complex channels with 1 or 2 antennas per terminal
    ch = random_channel(np.random.default_rng(seed), complex_mode=bool(seed % 2))
    polished = record_polish(monkeypatch)
    opts = SolverSettings(starts=3, seed=seed)
    mu_sum_achievable(ch, [0.3, 1.0, 3.0], opts)
    mu_sum_partial_outer(ch, [0.5, 2.0], 1.5, opts)
    bc_mu_sum(ch, 1.0, 2.0, opts)
    assert len(polished) == 3
    for call in polished:
        values, after, _, _ = polish_report(call)
        assert (after >= values).all()


@pytest.mark.parametrize("kind", ["achievable", "partial"])
def test_a_grid_polishes_as_each_row_alone(monkeypatch, kind):
    # the achievable program has two ball constraints, the partial one a
    # single ball under a column scale per weighting
    polished = record_polish(monkeypatch)
    ch, opts = ladder(3), SolverSettings(starts=2, seed=1, max_iters=5)
    if kind == "achievable":
        mu_sum_achievable(ch, [0.5, 2.0, 1.0], opts)
    else:
        mu_sum_partial_outer(ch, [0.5, 1.0, 2.0], [2.0, 0.7, 1.0], opts)
    (call,) = polished
    objective, groups, settings, weights, thetas, values, scale, cols, upper = call["args"]
    values_after, thetas_after = call["result"]
    assert (values_after > values).all()
    for i in range(len(weights)):
        alone = newton_polish(objective, groups, settings, weights[i : i + 1], thetas[i : i + 1],
                              values[i : i + 1], scale, None if cols is None else cols[i : i + 1],
                              None if upper is None else upper[i : i + 1])
        assert alone[0][0] == values_after[i]
        np.testing.assert_array_equal(alone[1][0], thetas_after[i])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("power", [1e16, 1e20])
def test_the_polish_stays_finite_at_huge_power(monkeypatch, sec7, power):
    # the Hessian's differences and the retraction at entries near 1e10
    ch = dataclasses.replace(sec7, p_p=power, p_c=power)
    polished = record_polish(monkeypatch)
    opts = SolverSettings(starts=2, seed=0)
    results = [*mu_sum_achievable(ch, [0.5, 2.0], opts),
               *mu_sum_partial_outer(ch, 1.0, [0.5, 2.0], opts), bc_mu_sum(ch, 1.0, 2.0, opts)]
    assert all(math.isfinite(r.value) and r.value > 0.0 for r in results)
    assert len(polished) == 3
    for call in polished:
        values, after, norms, certified = polish_report(call)
        assert np.isfinite(after).all() and np.isfinite(call["result"][1]).all()
        assert (after >= values).all() and not certified.all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_short_ascent_and_the_full_one_polish_to_the_same_value(n):
    # the ascent only finds the basin: after the polish, its default budget
    # and 2,000 iterations end at the same value
    ch = ladder(n)
    for seed in range(3):
        short = _ladder_solves(ch, SolverSettings(starts=2, seed=seed))
        full = _ladder_solves(ch, SolverSettings(starts=2, seed=seed, max_iters=2000))
        for got, want in zip(sum(short, []), sum(full, [])):
            assert got.value == pytest.approx(want.value, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_the_broadcast_duality_gap_closes(sec7, n):
    # the dual MAC is concave: one start, the short ascent and the polish
    # reach its maximum, and the Frank-Wolfe gap certifies it (n = 0 is the
    # bundled channel)
    ch = sec7 if n == 0 else ladder(n)
    for mu in (1.0, 2.0, 4.0, 1e6):
        res = bc_mu_sum(ch, 1.0, mu, SolverSettings(starts=2, seed=0))
        assert 0.0 <= res.gap_bits <= 1e-9 * max(1.0, res.value)


def test_a_flat_stretch_of_the_boundary_keeps_its_point():
    # the benchmark's 2-antenna channel under three seeded receive-side
    # bases: the same region, written with different last digits.  Where the
    # bound's boundary is flat (alpha 1, mu 0.5) the ascent alone stopped at
    # points whose r_p spread 1.4e-6 bits at a mu-sum spread of 8e-11; the
    # polished points agree to rounding
    curves = [trace_outer_boundary(ladder(2, seed), 1.0, [0.5, 1.0, 2.0],
                                   SolverSettings(starts=8, seed=0)) for seed in (1, 2, 3)]
    for points in zip(*(curve.points for curve in curves)):
        for rate in ("r_p", "r_c"):
            got = [getattr(p.rate, rate) for p in points]
            assert max(got) - min(got) <= 1e-12 * max(1.0, max(got))
