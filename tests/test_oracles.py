import math

import numpy as np
import pytest
from conftest import ORACLE_GAP

from cograte.achievable import DpcAllocation, dpc_rate_caps, dpc_rates
from cograte.channel import CognitiveChannel
from cograte.errors import OracleTooLarge
from cograte.oracles import (
    KyFanResult,
    LagrangeMultipliers,
    grid_oracle,
    inf_alpha_g1,
    kyfan_gap,
    lagrangian_L,
    lagrangian_g,
    lagrangian_g1,
)
from cograte.solvers import NEG_INF

MAX_RP = 2.354204853970093


def scalar_alloc(sp, scp, scc, q=0.0):
    return DpcAllocation([[sp]], [[scp]], [[scc]], [[q]])


def test_multiplier_validation():
    with pytest.raises(ValueError):
        LagrangeMultipliers(lambda1=-1.0)
    with pytest.raises(ValueError):
        LagrangeMultipliers(alpha=0.0)


def test_lagrangian_L_zero_multipliers(sec7):
    a = scalar_alloc(3.0, 1.0, 1.0)
    rate = dpc_rates(sec7, a)
    value = lagrangian_L(sec7, 2.0, a, rate, LagrangeMultipliers())
    assert value == pytest.approx(2.0 * rate.r_p + rate.r_c)


def test_lagrangian_L_tight_traces_kill_penalties(sec7):
    a = scalar_alloc(5.0, 5.0, 0.0, 5.0)  # both budgets met with equality
    rate = dpc_rates(sec7, a)
    for l1, l2 in ((0.0, 0.0), (1.0, 1.0), (3.5, 0.2)):
        value = lagrangian_L(sec7, 2.0, a, rate, LagrangeMultipliers(l1, l2))
        assert value == pytest.approx(2.0 * rate.r_p + rate.r_c)


def test_lagrangian_L_bundled_plugin_value(sec7):
    a = scalar_alloc(5.0, 5.0, 0.0, 5.0)
    rate = dpc_rates(sec7, a)
    value = lagrangian_L(sec7, 2.0, a, rate, LagrangeMultipliers(1.0, 1.0))
    assert value == pytest.approx(2.0 * MAX_RP, abs=1e-9)


def test_lagrangian_g_cases(sec7):
    feasible = scalar_alloc(4.0, 1.0, 1.0)
    rate = dpc_rates(sec7, feasible)
    assert lagrangian_g(sec7, 1.0, feasible, rate) == pytest.approx(
        rate.r_p + rate.r_c
    )
    boundary = scalar_alloc(5.0, 2.0, 3.0)
    rate_b = dpc_rates(sec7, boundary)
    assert lagrangian_g(sec7, 1.0, boundary, rate_b) == pytest.approx(
        rate_b.r_p + rate_b.r_c
    )
    # the three violation patterns all collapse to the sentinel
    for sp, scp, scc in ((6.0, 1.0, 1.0), (5.0, 5.0, 1.0), (6.0, 5.0, 1.0)):
        bad = scalar_alloc(sp, scp, scc)
        caps = dpc_rate_caps(sec7, bad)
        assert lagrangian_g(sec7, 1.0, bad, caps) is NEG_INF


def test_lagrangian_g1_weighted_budget(sec7):
    a = scalar_alloc(5.0, 0.0, 0.0)
    rate = dpc_rates(sec7, a)
    assert lagrangian_g1(sec7, 1.0, a, rate, 1.0) == pytest.approx(
        rate.r_p + rate.r_c
    )
    over = scalar_alloc(6.0, 0.0, 5.0)
    caps = dpc_rate_caps(sec7, over)
    assert lagrangian_g1(sec7, 1.0, over, caps, 1.0) is NEG_INF
    # alpha = 0.5: weighted load 6 + 0.5*2 = 7 fits the budget 5 + 0.5*5 = 7.5
    mixed = scalar_alloc(6.0, 1.0, 1.0)
    caps_m = dpc_rate_caps(sec7, mixed)
    assert lagrangian_g1(sec7, 1.0, mixed, caps_m, 0.5) == pytest.approx(
        caps_m.r_p + caps_m.r_c
    )
    # ... while 6 + 0.5*4 = 8 does not
    heavy = scalar_alloc(6.0, 2.0, 2.0)
    caps_h = dpc_rate_caps(sec7, heavy)
    assert lagrangian_g1(sec7, 1.0, heavy, caps_h, 0.5) is NEG_INF


def test_inf_alpha_g1_reduces_to_plain_budgets(sec7):
    good = scalar_alloc(5.0, 2.5, 2.5)
    rate = dpc_rates(sec7, good)
    assert inf_alpha_g1(sec7, 1.0, good, rate) == pytest.approx(
        rate.r_p + rate.r_c
    )
    # feasible for alpha = 1 but not for every alpha: licensed budget broken
    skew = scalar_alloc(6.0, 0.0, 2.0)
    caps = dpc_rate_caps(sec7, skew)
    assert lagrangian_g1(sec7, 1.0, skew, caps, 1.0) == pytest.approx(
        caps.r_p + caps.r_c
    )
    assert inf_alpha_g1(sec7, 1.0, skew, caps) is NEG_INF


def test_grid_oracle_anchor_values(sec7):
    assert grid_oracle(sec7, 1e6, 400) / 1e6 == pytest.approx(MAX_RP, abs=1e-3)
    assert grid_oracle(sec7, 1e6, 400, "partial_outer", 1.0) / 1e6 == pytest.approx(
        2.40934687718198, abs=1e-3
    )


def test_grid_oracle_resolution_one_is_corners(sec7):
    coarse = grid_oracle(sec7, 1.0, 1)
    fine = grid_oracle(sec7, 1.0, 400)
    # corner candidates: all cognitive power helping, or all on its message
    corner_help = dpc_rates(sec7, DpcAllocation([[5.0]], [[5.0]], [[0.0]], [[5.0]]))
    corner_own = dpc_rates(sec7, DpcAllocation([[5.0]], [[0.0]], [[5.0]], [[0.0]]))
    expected = max(corner_help.mu_sum(1.0), corner_own.mu_sum(1.0))
    assert coarse == pytest.approx(expected, abs=1e-12)
    assert coarse <= fine


def test_grid_oracle_monotone_refinement(sec7):
    for mu in (0.3, 1.0, 7.0):
        values = [grid_oracle(sec7, mu, res) for res in (25, 50, 100, 200, 400)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12


def test_grid_oracle_rejects_large_instances():
    ch = CognitiveChannel(
        h_pp=np.eye(2), h_pc=np.eye(2), h_cp=np.eye(2), h_cc=np.eye(2),
        p_p=1.0, p_c=1.0, real_mode=True,
    )
    with pytest.raises(OracleTooLarge):
        grid_oracle(ch, 1.0, 10)
    complex_scalar = CognitiveChannel(
        h_pp=[[1.0 + 0.2j]], h_pc=[[0.1]], h_cp=[[0.3]], h_cc=[[0.5]],
        p_p=1.0, p_c=1.0, real_mode=False,
    )
    with pytest.raises(OracleTooLarge):
        grid_oracle(complex_scalar, 1.0, 10)


def test_grid_oracle_argument_validation(sec7):
    with pytest.raises(ValueError):
        grid_oracle(sec7, 1.0, 0)
    with pytest.raises(ValueError):
        grid_oracle(sec7, 1.0, 10, "partial_outer")  # missing alpha
    with pytest.raises(ValueError):
        grid_oracle(sec7, 1.0, 10, "unknown")


def test_beamforming_reduction_lemma(rng):
    # max over PSD Q with trace <= T of g Q g^T equals T ||g||^2
    g = rng.standard_normal((1, 3))
    t = 2.7
    closed = t * (g @ g.T).item()
    best = 0.0
    for _ in range(300):
        a = rng.standard_normal((3, 3))
        q = a @ a.T
        q *= t / np.trace(q)
        best = max(best, (g @ q @ g.T).item())
    assert best <= closed + 1e-9
    q_star = t * g.T @ g / (g @ g.T).item()
    assert (g @ q_star @ g.T).item() == pytest.approx(closed, abs=1e-9)


def test_full_correlation_reduction_lemma(sec7, rng):
    # achievable licensed power term: grid over (sp, scp, rho) never beats the
    # aligned full-power closed form used by the oracle
    hpp, hcp = 1.4435, 0.799
    closed = (hpp * math.sqrt(5.0) + hcp * math.sqrt(3.0)) ** 2
    best = -1.0
    for sp in np.linspace(0, 5.0, 40):
        for scp in np.linspace(0, 3.0, 40):
            for rho in np.linspace(-1, 1, 41):
                val = hpp**2 * sp + 2 * rho * hpp * hcp * math.sqrt(sp * scp) + hcp**2 * scp
                best = max(best, val)
    assert best <= closed + 1e-9
    assert best == pytest.approx(closed, rel=1e-2)


def test_kyfan_gap_bundled(sec7):
    for mu in (1.0, 1e6):
        res = kyfan_gap(sec7, mu)
        assert isinstance(res, KyFanResult)
        assert res.gap <= 1e-3


def test_kyfan_gap_symmetric_scalar():
    ch = CognitiveChannel(
        h_pp=[[1.0]], h_pc=[[0.1]], h_cp=[[1.0]], h_cc=[[1.0]],
        p_p=2.0, p_c=2.0, real_mode=True,
    )
    assert kyfan_gap(ch, 1e6).gap <= 1e-3


def test_filtered_max_equals_constrained_max(sec7, fast):
    # maximizing the two-multiplier reduction over allocations matches the
    # budget-constrained mu-sum: feasible candidates keep their mu-sum,
    # infeasible ones (with strictly larger rate caps) are filtered to the
    # sentinel instead of winning
    from cograte.achievable import mu_sum_achievable

    for mu in (0.0, 0.5, 1.0, 2.0, 1e3):
        constrained = mu_sum_achievable(sec7, mu, fast).value
        best = NEG_INF
        for scc in np.linspace(0.0, sec7.p_c, 801):
            for scale in (1.0, 1.7):  # scale > 1 breaks both budgets
                scp = sec7.p_c - scc
                a = DpcAllocation(
                    [[scale * sec7.p_p]],
                    [[scale * scp]],
                    [[scale * scc]],
                    [[scale * math.sqrt(sec7.p_p * scp)]],
                )
                value = lagrangian_g(sec7, mu, a, dpc_rate_caps(sec7, a))
                if value is not NEG_INF and (best is NEG_INF or value > best):
                    best = value
        assert best is not NEG_INF
        assert best == pytest.approx(constrained, abs=ORACLE_GAP)


def test_single_multiplier_never_exceeds_two(sec7, rng):
    # pointwise: inf over (lam, alpha) of the weighted form is at most the
    # inf over the two separate multipliers, sentinel ordering included
    for _ in range(50):
        sp, scp, scc = rng.uniform(0.0, 8.0, size=3)
        a = DpcAllocation([[sp]], [[scp]], [[scc]], [[0.0]])
        caps = dpc_rate_caps(sec7, a)
        one = inf_alpha_g1(sec7, 1.5, a, caps)
        two = lagrangian_g(sec7, 1.5, a, caps)
        assert one <= two


def test_kyfan_gap_on_condition_gap_channel():
    # the interchange identity is channel-agnostic; it holds even where the
    # broadcast-side tightness condition fails
    ch = CognitiveChannel(
        h_pp=[[-0.8138]], h_pc=[[0.1]], h_cp=[[1.232]], h_cc=[[1.129]],
        p_p=5.0, p_c=5.0, real_mode=True,
    )
    assert kyfan_gap(ch, 1.0).gap <= 1e-3


def test_kyfan_gap_vanishing_power():
    ch = CognitiveChannel(
        h_pp=[[1.0]], h_pc=[[0.1]], h_cp=[[0.5]], h_cc=[[1.0]],
        p_p=1e-12, p_c=1e-12, real_mode=True,
    )
    res = kyfan_gap(ch, 2.0)
    assert res.sup_inf == pytest.approx(0.0, abs=1e-9)
    assert res.inf_sup == pytest.approx(0.0, abs=1e-9)
