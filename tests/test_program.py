"""The log-det program behind the four mu-sum solvers agrees with the rate
functions each solver reports its winner through."""

import numpy as np
import pytest

from cograte.achievable import DpcAllocation, _stacked_program, dpc_rates
from cograte.channel import CognitiveChannel, composite_matrices
from cograte.linalg import log_det_id_plus
from cograte.outer import (
    NoiseCoupling,
    OuterAllocation,
    _broadcast_program,
    outer_rates,
    partial_outer_rates,
)
from cograte.regions import RatePair


def _draw(rng, shape, complex_mode):
    m = rng.standard_normal(shape)
    return m + 1j * rng.standard_normal(shape) if complex_mode else m


def _channel(rng, complex_mode):
    n_pt, n_pr, n_ct, n_cr = rng.integers(1, 3, size=4)
    return CognitiveChannel(
        h_pp=_draw(rng, (n_pr, n_pt), complex_mode),
        h_pc=_draw(rng, (n_cr, n_pt), complex_mode),
        h_cp=_draw(rng, (n_pr, n_ct), complex_mode),
        h_cc=_draw(rng, (n_cr, n_ct), complex_mode),
        p_p=3.0,
        p_c=2.0,
        real_mode=not complex_mode,
    )


def _bc_rates(ch, ga, kk, q_p, q_c):
    # the rate lines of bc_mu_sum
    sig = ga @ q_p @ np.conj(ga.T)
    intf = ga @ q_c @ np.conj(ga.T)
    r_p = ch.rate_scale * (log_det_id_plus(sig + intf) - log_det_id_plus(intf))
    r_c = ch.rate_scale * log_det_id_plus(kk @ q_c @ np.conj(kk.T))
    return RatePair(r_p=max(r_p, 0.0), r_c=max(r_c, 0.0))


def _programs(rng, ch):
    """(program, rate pair of one decoded theta) for each of the four solvers."""
    npt = ch.n_pt
    alpha = float(rng.uniform(0.3, 3.0))
    mats = composite_matrices(ch, alpha)
    q_z = _draw(rng, (ch.n_pr, ch.n_cr), not ch.real_mode)
    nz = NoiseCoupling(0.5 * q_z / np.linalg.svd(q_z, compute_uv=False)[0])

    def dpc(net, s_cc):
        return dpc_rates(
            ch, DpcAllocation(net[:npt, :npt], net[npt:, npt:], s_cc, net[:npt, npt:])
        )

    return [
        (_stacked_program(ch, np.hstack([ch.h_pp, ch.h_cp])), dpc),
        (
            _stacked_program(ch, mats.g_alpha, alpha),
            lambda q_p, s_cc: partial_outer_rates(ch, alpha, q_p, s_cc),
        ),
        (
            _broadcast_program(ch, mats.g_alpha, mats.k, np.eye(ch.n_cr)),
            lambda q_p, q_c: _bc_rates(ch, mats.g_alpha, mats.k, q_p, q_c),
        ),
        (
            _broadcast_program(ch, mats.g_alpha, mats.k_bar, nz.sigma_z()),
            lambda q_p, q_c: outer_rates(ch, alpha, nz, OuterAllocation(q_p, q_c)),
        ),
    ]


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_objective_matches_reported_rates(complex_mode, seed):
    rng = np.random.default_rng(seed)
    ch = _channel(rng, complex_mode)
    for program, rates in _programs(rng, ch):
        thetas = rng.standard_normal((6, program.n_params))
        # inside every power budget, so each rate function accepts the witness
        thetas *= 0.9 * np.sqrt(min(ch.p_p, ch.p_c)) / np.linalg.norm(thetas, axis=1)[:, None]
        mu = float(rng.uniform(0.0, 5.0))
        values = program.objective(mu)(thetas)
        expected = [rates(*program.decode(theta)).mu_sum(mu) for theta in thetas]
        assert values.shape == (len(thetas),)
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("seed", [4, 5])
def test_decode_inverts_encode(complex_mode, seed):
    rng = np.random.default_rng(seed)
    ch = _channel(rng, complex_mode)
    for program, _ in _programs(rng, ch):
        matrices = []
        for _, dim, _ in program.blocks:
            a = _draw(rng, (dim, dim), complex_mode)
            matrices.append(a @ np.conj(a.T))
        matrices[-1] = np.zeros_like(matrices[-1])  # rank-deficient block
        theta = program.encode(*matrices)
        assert theta.shape == (program.n_params,)
        for got, want in zip(program.decode(theta), matrices):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)
