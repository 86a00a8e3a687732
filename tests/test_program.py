"""The log-det program behind the four mu-sum solvers agrees with the rate
functions each solver reports its winner through."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cograte.achievable import (
    DpcAllocation,
    LogDetProgram,
    _dpc_matrices,
    _two_block_program,
    _two_block_rates,
    dpc_rates,
)
from cograte.channel import CognitiveChannel, composite_matrices, scaled_channel
from cograte.linalg import build_lower, log_det_id_plus, param_len
from cograte.outer import (
    NoiseCoupling,
    OuterAllocation,
    _broadcast_matrices,
    _embed_structured,
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

    scaled = scaled_channel(ch, alpha)
    return [
        (_two_block_program(ch, *_dpc_matrices(ch)), dpc),
        (
            _two_block_program(scaled, *_dpc_matrices(scaled)),
            lambda q_p, s_cc: partial_outer_rates(ch, alpha, q_p, s_cc),
        ),
        (
            _two_block_program(ch, *_broadcast_matrices(ch, alpha)),
            lambda q_p, q_c: _bc_rates(ch, mats.g_alpha, mats.k, q_p, q_c),
        ),
        (
            _two_block_program(ch, *_broadcast_matrices(ch, alpha, nz)),
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
        values = program.objective(mu)(thetas)[0]
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


def _kernel_case(rng, complex_mode, dims, receivers, divisor):
    """A two-block program shaped like the solvers' (a licensed rate with one
    minus term, a cognitive rate over a non-identity noise) and its inputs; the
    second block's terms carry a factor 1/sqrt(divisor), as on a scaled
    channel."""
    (d0, d1), (m_p, m_c) = dims, receivers
    noise_a = _draw(rng, (m_c, m_c), complex_mode)
    spec = dict(
        blocks=(d0, d1),
        terms=[
            (_draw(rng, (m_p, d0), complex_mode), 0),
            (_draw(rng, (m_p, d1), complex_mode) / math.sqrt(divisor), 1),
            (_draw(rng, (m_c, d1), complex_mode) / math.sqrt(divisor), 1),
        ],
        rates=[
            (np.eye(m_p), (0, 1), (1,)),
            (np.eye(m_c) + noise_a @ np.conj(noise_a.T), (2,), ()),
        ],
        scale=1.0 if complex_mode else 0.5,
    )
    return LogDetProgram(complex_mode, **spec), spec


def _dense_rates(complex_mode, spec, theta):
    """Rates of one parameter vector from H L L† H†, with L from build_lower."""
    lows, offset = [], 0
    for dim in spec["blocks"]:
        k = param_len(dim, complex_mode)
        lows.append(build_lower(theta[offset : offset + k], dim, complex_mode))
        offset += k
    terms = []
    for h, block in spec["terms"]:
        cov = lows[block] @ np.conj(lows[block].T)
        terms.append(h @ cov @ np.conj(h.T))

    def logdet2(noise, indices):
        return np.linalg.slogdet(noise + sum(terms[i] for i in indices))[1] / np.log(2.0)

    return [
        spec["scale"] * (logdet2(noise, plus) - logdet2(noise, minus))
        for noise, plus, minus in spec["rates"]
    ]


def _check_kernel(program, spec, complex_mode, thetas):
    got = program.rates(thetas)
    expected = np.array([_dense_rates(complex_mode, spec, t) for t in np.atleast_2d(thetas)])
    for r, want in zip(got, expected.T):
        assert r.shape == (len(want),)
        # relative, except where a rate far below one bit is the difference of
        # two log-dets that cancel: there both sides round at about 1e-16 bits
        np.testing.assert_allclose(r, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize(
    "dims, receivers", [((1, 1), (1, 1)), ((2, 3), (1, 2)), ((3, 1), (3, 1)), ((3, 2), (2, 3))]
)
@pytest.mark.parametrize("batch", [None, 1, 7])
def test_rates_match_dense_reference(complex_mode, dims, receivers, batch):
    rng = np.random.default_rng([sum(dims), sum(receivers), batch or 0, complex_mode])
    program, spec = _kernel_case(rng, complex_mode, dims, receivers, divisor=0.37)
    shape = (program.n_params,) if batch is None else (batch, program.n_params)
    _check_kernel(program, spec, complex_mode, rng.standard_normal(shape))


@settings(max_examples=25, deadline=None)
@given(
    complex_mode=st.booleans(),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    receivers=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    divisor=st.floats(0.05, 20.0),
    batch=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_rates_match_dense_reference_on_random_shapes(
    complex_mode, dims, receivers, divisor, batch, seed
):
    rng = np.random.default_rng(seed)
    program, spec = _kernel_case(rng, complex_mode, dims, receivers, divisor)
    _check_kernel(program, spec, complex_mode, rng.standard_normal((batch, program.n_params)))


def _central_differences(program, mu, theta, h=1e-6):
    """Gradient of the mu-sum at one parameter vector by central differences."""
    steps = h * np.eye(program.n_params)
    values = program.objective(mu)(np.vstack([theta + steps, theta - steps]))[0]
    return (values[: program.n_params] - values[program.n_params :]) / (2.0 * h)


@settings(max_examples=25, deadline=None)
@given(
    complex_mode=st.booleans(),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    receivers=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    divisor=st.floats(0.05, 20.0),
    mu=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_matches_central_differences(complex_mode, dims, receivers, divisor, mu, seed):
    rng = np.random.default_rng(seed)
    program, _ = _kernel_case(rng, complex_mode, dims, receivers, divisor)
    thetas = rng.standard_normal((3, program.n_params))
    values, gradient = program.objective(mu)(thetas)
    got = gradient()
    assert got.shape == thetas.shape
    np.testing.assert_allclose(values, mu * program.rates(thetas)[0] + program.rates(thetas)[1])
    for row, theta in zip(got, thetas):
        want = _central_differences(program, mu, theta)
        np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-6 * np.abs(want).max())


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("seed", [6, 7, 8, 9])
def test_broadcast_rates_at_a_structured_q_c_are_the_partial_rates(complex_mode, seed):
    # the partial bound is the broadcast bound with q_c confined to the
    # cognitive block, so both rate formulas must agree there
    rng = np.random.default_rng(seed)
    ch = _channel(rng, complex_mode)
    alpha = float(rng.uniform(0.3, 3.0))
    n = ch.n_pt + ch.n_ct
    a, b = _draw(rng, (n, n), complex_mode), _draw(rng, (ch.n_ct, ch.n_ct), complex_mode)
    q_p, s_cc = a @ np.conj(a.T), b @ np.conj(b.T)
    shrink = 0.9 * (ch.p_p + alpha * ch.p_c) / np.trace(q_p + _embed_structured(ch, s_cc)).real
    q_p, s_cc = shrink * q_p, shrink * s_cc
    bc = _two_block_rates(ch, *_broadcast_matrices(ch, alpha), q_p, _embed_structured(ch, s_cc))
    partial = partial_outer_rates(ch, alpha, q_p, s_cc)
    assert bc.r_p == pytest.approx(partial.r_p, rel=1e-12)
    assert bc.r_c == pytest.approx(partial.r_c, rel=1e-12)
