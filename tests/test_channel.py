import json
import math
import re

import numpy as np
import pytest
from conftest import ladder

from cograte.achievable import DpcAllocation, dpc_rates, scale_allocation
from cograte.channel import (
    CognitiveChannel,
    composite_matrices,
    load_channel,
    mc_mutual_info,
    scaled_channel,
)
from cograte.errors import (
    DimensionMismatch,
    InvalidAlpha,
    NonPositivePower,
    ParseError,
    SingularNoise,
)
from cograte.linalg import log_det_id_plus


def test_bundled_fixture_values(sec7):
    assert (sec7.n_pt, sec7.n_pr, sec7.n_ct, sec7.n_cr) == (1, 1, 1, 2)
    assert sec7.h_pp[0, 0] == pytest.approx(1.4435)
    assert sec7.h_cp[0, 0] == pytest.approx(0.799)
    assert np.allclose(sec7.h_pc[:, 0], [-0.3510, 0.6232])
    assert np.allclose(sec7.h_cc[:, 0], [0.9409, -0.9921])
    assert sec7.p_p == sec7.p_c == 5.0
    assert sec7.real_mode and sec7.rate_scale == 0.5


def test_load_accepts_scalar_and_flat_list_shorthand():
    ch = load_channel(
        json.dumps(
            {
                "h_pp": 1.4435,
                "h_pc": [-0.3510, 0.6232],
                "h_cp": 0.799,
                "h_cc": [0.9409, -0.9921],
                "p_p": 5,
                "p_c": 5,
                "real_mode": True,
            }
        )
    )
    assert ch.h_pp.shape == (1, 1) and ch.h_cc.shape == (2, 1)


def test_load_rejects_wrong_row_count():
    doc = {
        "h_pp": [[1.0]],
        "h_pc": [[0.1], [0.2]],
        "h_cp": [[0.5], [0.5]],  # should be 1x1
        "h_cc": [[1.0], [2.0]],
        "p_p": 1,
        "p_c": 1,
    }
    with pytest.raises(DimensionMismatch):
        load_channel(json.dumps(doc))


def test_load_rejects_zero_power():
    doc = {
        "h_pp": 1.0,
        "h_pc": [[0.1], [0.2]],
        "h_cp": 0.5,
        "h_cc": [[1.0], [2.0]],
        "p_p": 1,
        "p_c": 0,
    }
    with pytest.raises(NonPositivePower):
        load_channel(json.dumps(doc))


def test_load_rejects_malformed_json():
    with pytest.raises(ParseError):
        load_channel("{not json")
    with pytest.raises(ParseError):
        load_channel(json.dumps({"h_pp": 1.0}))


def test_load_rejects_complex_entry_in_real_mode():
    doc = {
        "h_pp": [[[1.0, 0.5]]],
        "h_pc": [[0.1], [0.2]],
        "h_cp": 0.5,
        "h_cc": [[1.0], [2.0]],
        "p_p": 1,
        "p_c": 1,
        "real_mode": True,
    }
    with pytest.raises(ParseError):
        load_channel(json.dumps(doc))


def test_load_complex_pairs():
    doc = {
        "h_pp": [[[1.0, 0.5]]],
        "h_pc": [[0.1], [0.2]],
        "h_cp": [[0.5]],
        "h_cc": [[1.0], [2.0]],
        "p_p": 1,
        "p_c": 1,
    }
    ch = load_channel(json.dumps(doc))
    assert ch.h_pp[0, 0] == 1.0 + 0.5j and ch.rate_scale == 1.0


@pytest.mark.parametrize("key, value", [
    ("h_pp", "NaN"),
    ("h_pp", "Infinity"),
    ("h_cp", "[[[1.0, NaN]]]"),
    ("h_cp", "[[[-Infinity, 0.5]]]"),
    ("p_p", "true"),
    ("p_c", "1e400"),
    ("h_cc", "[[true], [2.0]]"),
    ("h_pc", "[[0.1], [1e200]]"),
    pytest.param("h_cc", "[[1" + "0" * 400 + "], [2.0]]", id="h_cc-huge-int"),
])
def test_load_rejects_bad_numbers(key, value):
    doc = {"h_pp": "1.0", "h_pc": "[[0.1], [0.2]]", "h_cp": "[[0.5]]",
           "h_cc": "[[1.0], [2.0]]", "p_p": "1", "p_c": "1", key: value}
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"
    with pytest.raises(ParseError, match=key):
        load_channel(text)


def test_scaled_channel_identity_at_one(sec7):
    ch = scaled_channel(sec7, 1.0)
    assert np.allclose(ch.h_cp, sec7.h_cp) and ch.p_c == sec7.p_c


def test_scaled_channel_alpha_four(sec7):
    ch = scaled_channel(sec7, 4.0)
    assert ch.h_cp[0, 0] == pytest.approx(0.3995, abs=1e-12)
    assert ch.p_c == pytest.approx(20.0)
    assert np.allclose(ch.h_pp, sec7.h_pp) and np.allclose(ch.h_pc, sec7.h_pc)


def test_scaled_channel_round_trip(sec7):
    back = scaled_channel(scaled_channel(sec7, 3.7), 1 / 3.7)
    assert np.allclose(back.h_cp, sec7.h_cp, atol=1e-14)
    assert np.allclose(back.h_cc, sec7.h_cc, atol=1e-14)
    assert back.p_c == pytest.approx(sec7.p_c, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_scaled_channel_invalid_alpha(sec7, alpha):
    with pytest.raises(InvalidAlpha):
        scaled_channel(sec7, alpha)
    with pytest.raises(InvalidAlpha):
        composite_matrices(sec7, alpha)


@pytest.mark.parametrize("alpha", [1e-310, 1e308])
def test_alpha_that_scales_the_channel_out_of_range_is_rejected(sec7, alpha):
    # 1e-310 makes ||h_cp / sqrt(alpha)||_F^2 overflow, 1e308 makes alpha p_c overflow
    for scale in (scaled_channel, composite_matrices):
        with pytest.raises(InvalidAlpha, match=re.escape(f"alpha = {alpha:g} ")):
            scale(sec7, alpha)


def test_composite_matrices_values(sec7):
    mats = composite_matrices(sec7, 1.0)
    assert np.allclose(mats.g_alpha, [[1.4435, 0.799]])
    mats_q = composite_matrices(sec7, 0.25)
    assert np.allclose(mats_q.g_alpha, [[1.4435, 1.598]])
    assert np.allclose(mats_q.k[:, 0], 0.0)


def test_composite_matches_scaled_channel(sec7):
    alpha = 2.3
    direct = composite_matrices(sec7, alpha).g_alpha
    via_scaled = composite_matrices(scaled_channel(sec7, alpha), 1.0).g_alpha
    assert np.allclose(direct, via_scaled, atol=1e-14)


def _random_feasible_allocation(rng, ch):
    l_net = rng.standard_normal((2, 2))
    l_net = np.tril(l_net)
    s_net = l_net @ l_net.T
    share = rng.uniform(0.0, 1.0)
    if s_net[0, 0] > 0:
        s_net *= min(1.0, ch.p_p / s_net[0, 0]) * rng.uniform(0.3, 1.0)
    scc = rng.uniform(0.0, 1.0)
    cap = ch.p_c - s_net[1, 1]
    if cap <= 0:
        s_net[1, 1] = share * ch.p_c
        s_net[0, 1] = s_net[1, 0] = 0.0
        cap = ch.p_c - s_net[1, 1]
    scc = min(scc, max(cap, 0.0))
    return DpcAllocation(
        sigma_p=s_net[:1, :1],
        sigma_cp=s_net[1:, 1:],
        sigma_cc=np.array([[scc]]),
        q=s_net[:1, 1:],
    )


def test_scaling_invariance_of_rates(sec7, rng):
    from cograte.achievable import is_feasible

    for _ in range(20):
        alloc = _random_feasible_allocation(rng, sec7)
        assert is_feasible(sec7, alloc)
        base = dpc_rates(sec7, alloc)
        for alpha in (0.3, 1.0, 3.0):
            mapped = scale_allocation(alloc, alpha)
            scaled = dpc_rates(scaled_channel(sec7, alpha), mapped)
            assert scaled.r_p == pytest.approx(base.r_p, abs=1e-10)
            assert scaled.r_c == pytest.approx(base.r_c, abs=1e-10)


def test_mc_zero_input_bias():
    est = mc_mutual_info(np.eye(2), np.zeros((2, 2)), np.eye(2), 40000, seed=3)
    assert abs(est) <= 3 * 2 / math.sqrt(40000)


def test_mc_scalar_closed_form():
    est = mc_mutual_info(np.array([[1.0]]), np.array([[3.0]]), np.array([[1.0]]), 10**6, seed=5)
    assert est == pytest.approx(2.0, abs=0.02)


def test_mc_matches_log_det_on_bundled_column(sec7):
    h = sec7.h_cc
    est = mc_mutual_info(h, np.array([[5.0]]), np.eye(2), 10**6, seed=9)
    expected = log_det_id_plus(5.0 * h @ h.T)
    assert est == pytest.approx(expected, abs=0.02)
    est_real = mc_mutual_info(h, np.array([[5.0]]), np.eye(2), 10**6, seed=9, real_mode=True)
    assert est_real == pytest.approx(0.5 * expected, abs=0.02)


def test_mc_reproducible_per_seed():
    a = mc_mutual_info(np.array([[1.0]]), np.array([[2.0]]), np.array([[1.0]]), 5000, seed=77)
    b = mc_mutual_info(np.array([[1.0]]), np.array([[2.0]]), np.array([[1.0]]), 5000, seed=77)
    assert a == b


def test_mc_converges_with_more_samples():
    h = np.array([[1.0, 0.3], [0.0, 0.8]])
    sx = np.array([[2.0, 0.2], [0.2, 1.0]])
    truth = log_det_id_plus(h @ sx @ h.T)
    errs_small, errs_big = [], []
    for seed in range(10):
        errs_small.append(abs(mc_mutual_info(h, sx, np.eye(2), 4000, seed=seed) - truth))
        errs_big.append(abs(mc_mutual_info(h, sx, np.eye(2), 8000, seed=seed) - truth))
    assert np.mean(errs_big) < np.mean(errs_small)


def test_mc_rejects_singular_noise():
    with pytest.raises(SingularNoise):
        mc_mutual_info(np.eye(2), np.eye(2), np.diag([1.0, 0.0]), 100, seed=1)


def test_channel_digest_stable(sec7):
    # every output records this digest, so a drift in its serializer shows here
    assert sec7.digest() == load_channel(json.dumps({
        "h_pp": [[1.4435]],
        "h_pc": [[-0.3510], [0.6232]],
        "h_cp": [[0.799]],
        "h_cc": [[0.9409], [-0.9921]],
        "p_p": 5,
        "p_c": 5,
        "real_mode": True,
    })).digest() == "06c8e20e3415bec7"


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n, want", [(2, 3.6764), (3, 12.351)])
def test_the_licensed_weight_of_the_ladder(n, want, seed):
    # the largest generalized eigenvalue of (h_cc†h_cc, h_cp†h_cp); the seed
    # rotates the receivers, which leaves it as it is
    ch = ladder(n, seed)
    assert ch.licensed_weight == pytest.approx(want, rel=1e-4)
    gram = [h.conj().T @ h for h in (ch.h_cc, ch.h_cp)]
    assert ch.licensed_weight == pytest.approx(
        max(np.linalg.eigvals(np.linalg.solve(gram[1], gram[0])).real), rel=1e-12)


def test_the_licensed_weight_of_the_bundled_channel(sec7):
    # a scalar h_cp: |h_cc|² / |h_cp|²
    assert sec7.licensed_weight == pytest.approx(2.9285, rel=1e-4)
    assert sec7.licensed_weight == pytest.approx(
        np.sum(sec7.h_cc**2) / sec7.h_cp[0, 0] ** 2, rel=1e-14)


def test_the_licensed_weight_is_infinite_where_h_cp_misses_what_h_cc_hears():
    h_pp, h_pc = [[1.0, 0.2], [0.3, 0.9]], [[0.5, 0.1], [0.2, 0.4]]
    h_cc = np.array([[0.8, 0.2], [0.1, 1.1]])

    def weight(h_cp, h_cc=h_cc):
        return CognitiveChannel(h_pp, h_pc, h_cp, h_cc, p_p=3.0, p_c=2.0).licensed_weight

    assert weight(np.zeros((2, 2))) == math.inf
    rank_one = np.outer([1.0, -0.5], [0.6, 0.8])
    assert weight(rank_one) == math.inf
    # h_cc hearing only what h_cp hears: finite again, from h_cp's row space
    assert weight(rank_one, 2.0 * rank_one) == pytest.approx(4.0, rel=1e-12)
    assert weight(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
