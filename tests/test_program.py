"""The log-det program behind the three mu-sum solvers agrees with the rate
functions each solver reports its winner through, and the broadcast
mu-sum's dual MAC maps back onto the broadcast region."""

import math

import numpy as np
import pytest
from conftest import (
    ascent_rates,
    covariance_rates,
    draw,
    embed_structured,
    ladder,
    random_channel,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cograte.outer as outer
from cograte.achievable import (
    DpcAllocation,
    LogDetProgram,
    _dpc_matrices,
    _solve,
    _two_block_program,
    dpc_rate_caps,
    dpc_rates,
    is_feasible,
    scale_allocation,
)
from cograte.channel import CognitiveChannel, composite_matrices, scaled_channel
from cograte.linalg import (
    DEFAULT_TOL,
    budget_tol,
    build_lower,
    log_det_id_plus,
    min_eigenvalue,
    param_len,
    psd_sqrt,
)
from cograte.outer import (
    _broadcast_matrices,
    _dual_mac,
    _mac_to_bc,
    bc_mu_sum,
    partial_outer_rates,
)
from cograte.regions import RatePair
from cograte.solvers import SolverSettings, waterfill


def _bc_rates(ch, ga, kk, q_p, q_c):
    # the broadcast rates that bc_mu_sum scores its witness with
    sig = ga @ q_p @ np.conj(ga.T)
    intf = ga @ q_c @ np.conj(ga.T)
    r_p = ch.rate_scale * (log_det_id_plus(sig + intf) - log_det_id_plus(intf))
    r_c = ch.rate_scale * log_det_id_plus(kk @ q_c @ np.conj(kk.T))
    return RatePair(r_p=max(r_p, 0.0), r_c=max(r_c, 0.0))


def _programs(rng, ch):
    """(program, rate pair of one decoded theta) for each of the three solvers."""
    npt = ch.n_pt
    alpha = float(rng.uniform(0.3, 3.0))
    mats = composite_matrices(ch, alpha)

    def dpc(net, s_cc):
        return dpc_rates(
            ch, DpcAllocation(net[:npt, :npt], net[npt:, npt:], s_cc, net[:npt, npt:])
        )

    scaled = scaled_channel(ch, alpha)
    ga, _, k = _broadcast_matrices(ch, alpha)
    dual, (u_p, u_c) = _dual_mac(ch, ga, k)

    def bc(p_p, p_c):
        roots = _mac_to_bc(ga, k, u_p @ psd_sqrt(p_p), u_c @ psd_sqrt(p_c))
        return _bc_rates(ch, mats.g_alpha, mats.k, *(r @ np.conj(r.T) for r in roots))

    return [
        (_two_block_program(ch, *_dpc_matrices(ch)), dpc),
        (
            _two_block_program(scaled, *_dpc_matrices(scaled)),
            lambda q_p, s_cc: partial_outer_rates(ch, alpha, q_p, s_cc),
        ),
        (dual, bc),
    ]


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_objective_matches_reported_rates(complex_mode, seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, complex_mode)
    for program, rates in _programs(rng, ch):
        thetas = rng.standard_normal((6, program.n_params))
        # inside every power budget, so each rate function accepts the witness
        thetas *= 0.9 * np.sqrt(min(ch.p_p, ch.p_c)) / np.linalg.norm(thetas, axis=1)[:, None]
        mu = float(rng.uniform(0.0, 5.0))
        values = program.objective(thetas)[0](program.weights(mu))
        expected = [rates(*program.decode(theta)).mu_sum(mu) for theta in thetas]
        assert values.shape == (len(thetas),)
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-9)


def test_a_gradient_call_takes_no_log_det(monkeypatch):
    # the ascent reads only the gradient at its iterates and only the values
    # of its line-search candidates, so each part is computed on demand
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: calls.append(m) or slogdet(m))
    rng = np.random.default_rng(7)
    ch = random_channel(rng, True)
    program = _two_block_program(ch, *_dpc_matrices(ch))
    values, gradient = program.objective(rng.standard_normal((4, program.n_params)))
    assert gradient(program.weights(2.0)).shape == (4, program.n_params)
    assert calls == []
    assert values(program.weights(2.0)).shape == (4,)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_a_row_is_scored_alike_at_every_batch_size(n):
    # so a weighting climbs bit for bit as alone beside any other weightings,
    # one-row batches included (BLAS's matrix-vector path rounds otherwise)
    ch = ladder(n)
    program = _two_block_program(ch, *_dpc_matrices(ch))
    rng = np.random.default_rng(3)
    thetas = rng.standard_normal((64, program.n_params))
    w = program.weights(np.geomspace(0.1, 10.0, 64))
    values, gradient = program.objective(thetas)
    whole = values(w), gradient(w)
    for k in range(1, 64):
        values, gradient = program.objective(thetas[:k])
        assert np.array_equal(values(w[:k]), whole[0][:k])
        assert np.array_equal(gradient(w[:k]), whole[1][:k])


@pytest.mark.parametrize("channel", ["bundled", "mimo_1x1"])
def test_a_scalar_log_det_gradient_is_the_lapack_solve_bit_for_bit(sec7, channel):
    # on 1x1 log-dets the gradient's M⁻¹E is E times 1/M, which rounds as
    # OpenBLAS's 1x1 solve does (E / M differs in the last bit in about a
    # quarter of the real entries), so every ascent climbs as it did on LAPACK
    ch = sec7 if channel == "bundled" else ladder(1)
    program = _two_block_program(ch, *_dpc_matrices(ch))
    assert program._shape[1] == 1 and program.complex_mode == (channel != "bundled")
    rng = np.random.default_rng(21)
    scale = 10.0 ** rng.uniform(-4.0, 8.0, (2000, 1))
    thetas = scale * rng.standard_normal((2000, program.n_params))
    e = program._factors(thetas)
    assert np.abs(e).max() > 1e8
    m = e @ (np.conj(e.mT) if program.complex_mode else e.mT)
    m += program._eye
    assert np.array_equal(program._log_dets(thetas)[1](), np.linalg.solve(m, e))


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("seed", [4, 5])
def test_decode_inverts_encode(complex_mode, seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, complex_mode)
    for program, _ in _programs(rng, ch):
        matrices = []
        for _, dim, _ in program.blocks:
            a = draw(rng, (dim, dim), complex_mode)
            matrices.append(a @ np.conj(a.T))
        matrices[-1] = np.zeros_like(matrices[-1])  # rank-deficient block
        theta = program.encode(*matrices)
        assert theta.shape == (program.n_params,)
        for got, want in zip(program.decode(theta), matrices):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def _term(rng, shape, kind, complex_mode):
    """A term matrix: dense, with random zero columns (the last one kept), or
    the rank-one product ``A B`` scaled to a dense draw's mean square entry
    (a product of two draws can be tiny, and the central differences of a
    near-zero rate drown in rounding)."""
    if kind == "zero_columns":
        keep = rng.random(shape[1]) < 0.5
        keep[-1] = True
        return draw(rng, shape, complex_mode) * keep
    if kind == "low_rank":
        h = draw(rng, (shape[0], 1), complex_mode) @ draw(rng, (1, shape[1]), complex_mode)
        return h * math.sqrt(h.size * (2 if complex_mode else 1)) / np.linalg.norm(h)
    return draw(rng, shape, complex_mode)


def _kernel_case(rng, complex_mode, dims, receivers, divisor, kinds=("dense",) * 3):
    """A two-block program shaped like the solvers' (a licensed rate with one
    minus term, a cognitive rate over a non-identity noise, folded into its
    term by whitening) and its inputs; the second block's terms carry a
    factor 1/sqrt(divisor), as on a scaled channel."""
    (d0, d1), (m_p, m_c) = dims, receivers
    noise_a = draw(rng, (m_c, m_c), complex_mode)
    whiten = np.linalg.inv(np.linalg.cholesky(np.eye(m_c) + noise_a @ np.conj(noise_a.T)))
    shapes = ((m_p, d0), (m_p, d1), (m_c, d1))
    g, h_int, h_c = (_term(rng, shape, kind, complex_mode) for shape, kind in zip(shapes, kinds))
    spec = dict(
        blocks=(d0, d1),
        terms=[(g, 0), (h_int / math.sqrt(divisor), 1), (whiten @ h_c / math.sqrt(divisor), 1)],
        rates=[((0, 1), (1,)), ((2,), ())],
        scale=1.0 if complex_mode else 0.5,
    )
    return LogDetProgram(complex_mode, **spec), spec


def _dense_rates(complex_mode, spec, theta):
    """Rates of one parameter vector from I + H L L† H†, with L from build_lower."""
    lows, offset = [], 0
    for dim in spec["blocks"]:
        k = param_len(dim, complex_mode)
        lows.append(build_lower(theta[offset : offset + k], dim, complex_mode))
        offset += k
    terms = []
    for h, block in spec["terms"]:
        cov = lows[block] @ np.conj(lows[block].T)
        terms.append(h @ cov @ np.conj(h.T))

    def logdet2(indices):
        if not indices:
            return 0.0
        m = sum(terms[i] for i in indices)
        return np.linalg.slogdet(np.eye(len(m)) + m)[1] / np.log(2.0)

    return [spec["scale"] * (logdet2(plus) - logdet2(minus)) for plus, minus in spec["rates"]]


def _check_kernel(program, spec, complex_mode, thetas):
    got = ascent_rates(program, thetas)
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
    """Gradient of the mu-sum at one parameter vector by central differences.

    Each log-det's difference is taken as one log-det of a ratio,
    ``log|M(θ-h)⁻¹ M(θ+h)| = Σ log1p(eig(L⁻¹ D L⁻†))`` with ``L`` the
    Cholesky factor of ``M(θ-h)`` and ``D = M(θ+h) - M(θ-h)`` formed from the
    Grams ``E E†`` without the identity, so the rounding stays proportional
    to the difference rather than to the log-dets themselves."""
    steps = h * np.eye(program.n_params)
    e_plus, e_minus = program._factors(theta + steps), program._factors(theta - steps)

    def gram(e):
        return e @ np.conj(np.swapaxes(e, -1, -2))

    low = np.linalg.cholesky(np.eye(e_minus.shape[-2]) + gram(e_minus))
    half = np.linalg.solve(low, gram(e_plus) - gram(e_minus))
    ratio = np.linalg.solve(low, np.conj(np.swapaxes(half, -1, -2)))
    diffs = np.sum(np.log1p(np.linalg.eigvalsh(ratio)), axis=-1) / math.log(2.0)
    return diffs @ (program.scale * (program._coef @ [mu, 1.0])) / (2.0 * h)


@settings(max_examples=25, deadline=None)
@given(
    complex_mode=st.booleans(),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    receivers=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    divisor=st.floats(0.05, 20.0),
    mu=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(complex_mode=False, dims=(1, 1), receivers=(3, 1), divisor=2.0, mu=0.0, seed=24273)
def test_gradient_matches_central_differences(complex_mode, dims, receivers, divisor, mu, seed):
    rng = np.random.default_rng(seed)
    program, _ = _kernel_case(rng, complex_mode, dims, receivers, divisor)
    thetas = rng.standard_normal((3, program.n_params))
    values, gradient = program.objective(thetas)
    got = gradient(program.weights(mu))
    assert got.shape == thetas.shape
    r_p, r_c = ascent_rates(program, thetas)
    want = mu * r_p + r_c
    np.testing.assert_allclose(values(program.weights(mu)), want)
    for row, theta in zip(got, thetas):
        want = _central_differences(program, mu, theta)
        np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-6 * np.abs(want).max())


@pytest.mark.parametrize("complex_mode", [False, True])
def test_gradient_of_a_small_rank_one_term_matches_central_differences(complex_mode):
    # an unscaled rank-one cognitive term of norm 0.0079 at mu = 0: every
    # gradient entry is below 4e-5, where differences of the rounded
    # log-dets themselves missed the analytic gradient by 3.7-8.8 times the
    # tolerance
    rng = np.random.default_rng(1)
    g, h_int = draw(rng, (2, 1), complex_mode), draw(rng, (2, 2), complex_mode)
    h_c = draw(rng, (2, 1), complex_mode) @ draw(rng, (1, 2), complex_mode)
    h_c *= 0.0079 / np.linalg.norm(h_c)
    program = LogDetProgram(
        complex_mode,
        blocks=(1, 2),
        terms=[(g, 0), (h_int, 1), (h_c, 1)],
        rates=[((0, 1), (1,)), ((2,), ())],
        scale=1.0 if complex_mode else 0.5,
    )
    thetas = rng.standard_normal((3, program.n_params))
    for row, theta in zip(program.objective(thetas)[1](program.weights(0.0)), thetas):
        want = _central_differences(program, 0.0, theta)
        np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-6 * np.abs(want).max())


@settings(max_examples=40, deadline=None)
@given(
    complex_mode=st.booleans(),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    receivers=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    kinds=st.tuples(*[st.sampled_from(("dense", "zero_columns", "low_rank"))] * 3),
    mu=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_deficient_terms_match_dense_reference(complex_mode, dims, receivers, kinds, mu, seed):
    # tall, zero-column and low-rank terms put each log-det on a range
    # smaller than its receive side; the program, its gradient and the dense
    # twin must still equal log2|I + sum H Q H†| on the whole receive side
    rng = np.random.default_rng(seed)
    program, spec = _kernel_case(rng, complex_mode, dims, receivers, 1.0, kinds)
    thetas = rng.standard_normal((3, program.n_params))
    _check_kernel(program, spec, complex_mode, thetas)
    for row, theta in zip(program.objective(thetas)[1](program.weights(mu)), thetas):
        want = _central_differences(program, mu, theta)
        np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-6 * np.abs(want).max())
    (g, _), (h_int, _), (h_c, _) = spec["terms"]
    ch = CognitiveChannel(
        h_pp=g, h_pc=np.zeros((len(h_c), dims[0])), h_cp=h_int, h_cc=h_c,
        p_p=1.0, p_c=1.0, real_mode=not complex_mode,
    )
    scorer = _two_block_program(ch, g, h_int, h_c)
    for theta in thetas:
        rate = covariance_rates(scorer, *program.decode(theta))
        want = _dense_rates(complex_mode, spec, theta)
        np.testing.assert_allclose([rate.r_p, rate.r_c], want, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    complex_mode=st.booleans(),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    receivers=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    kinds=st.tuples(*[st.sampled_from(("dense", "zero_columns", "low_rank"))] * 3),
    mu=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_singular_value_log_dets_match_the_slogdet_ones(
    complex_mode, dims, receivers, kinds, mu, seed
):
    rng = np.random.default_rng(seed)
    program, spec = _kernel_case(rng, complex_mode, dims, receivers, 1.0, kinds)
    by_svd = LogDetProgram(complex_mode, **spec, singular_values=True)
    thetas = rng.standard_normal((3, program.n_params))
    for got, want in zip(ascent_rates(by_svd, thetas), ascent_rates(program, thetas)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    got, want = (p.objective(thetas)[1](p.weights(mu)) for p in (by_svd, program))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 + 1e-9 * np.abs(want).max())


def test_singular_value_log_dets_keep_the_identity_beside_a_huge_rank_one_term():
    # a power of 1e20 on g beside an empty block: slogdet(I + E E†) on the
    # joint range of g and k reads nan and -inf, the singular values do not
    g, k = np.array([[1.0], [0.5]]), np.array([[0.3], [-0.8]])
    program = LogDetProgram(
        False,
        blocks=(1, 1),
        terms=[(g, 0), (k, 1)],
        rates=[((0,), ()), ((0, 1), (0,))],
        scale=1.0,
        singular_values=True,
    )
    (r_p,), (r_c,) = ascent_rates(program, np.array([1e10, 0.0]))
    assert r_p == pytest.approx(math.log2(1.0 + 1.25e20), rel=1e-14)
    assert abs(r_c) <= 1e-13


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("seed", [6, 7, 8, 9])
def test_broadcast_rates_at_a_structured_q_c_are_the_partial_rates(complex_mode, seed):
    # the partial bound is the broadcast bound with q_c confined to the
    # cognitive block, so both rate formulas must agree there
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, complex_mode)
    alpha = float(rng.uniform(0.3, 3.0))
    n = ch.n_pt + ch.n_ct
    a, b = draw(rng, (n, n), complex_mode), draw(rng, (ch.n_ct, ch.n_ct), complex_mode)
    q_p, s_cc = a @ np.conj(a.T), b @ np.conj(b.T)
    shrink = 0.9 * (ch.p_p + alpha * ch.p_c) / np.trace(q_p + embed_structured(ch, s_cc)).real
    q_p, s_cc = shrink * q_p, shrink * s_cc
    scorer = _two_block_program(ch, *_broadcast_matrices(ch, alpha))
    bc = covariance_rates(scorer, q_p, embed_structured(ch, s_cc))
    partial = partial_outer_rates(ch, alpha, q_p, s_cc)
    assert bc.r_p == pytest.approx(partial.r_p, rel=1e-12)
    assert bc.r_c == pytest.approx(partial.r_c, rel=1e-12)


def _feasible_allocation(rng, ch):
    """A random allocation that uses a random share of each power budget."""
    complex_mode, npt = not ch.real_mode, ch.n_pt
    n = npt + ch.n_ct
    a, b = draw(rng, (n, n), complex_mode), draw(rng, (ch.n_ct, ch.n_ct), complex_mode)
    net, s_cc = a @ np.conj(a.T), b @ np.conj(b.T)
    licensed, cognitive, split = rng.uniform(0.0, 1.0, size=3)
    d = np.sqrt(np.where(
        np.arange(n) < npt,
        licensed * ch.p_p / np.trace(net[:npt, :npt]).real,
        cognitive * split * ch.p_c / np.trace(net[npt:, npt:]).real,
    ))
    s_cc *= cognitive * (1.0 - split) * ch.p_c / np.trace(s_cc).real
    return DpcAllocation.from_net(d[:, None] * net * d, s_cc)


@settings(max_examples=25, deadline=None)
@given(complex_mode=st.booleans(), alpha=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1))
def test_rates_are_invariant_under_the_alpha_scaling(complex_mode, alpha, seed):
    # scaled_channel divides the cognitive columns by sqrt(alpha) and
    # scale_allocation puts alpha times the cognitive power through them, so
    # the DPC rates and the partial bound's rates at alpha are those of ch
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, complex_mode)
    a = _feasible_allocation(rng, ch)
    assert is_feasible(ch, a)
    want = dpc_rate_caps(ch, a)
    s = scale_allocation(a, alpha)
    for got in (
        dpc_rate_caps(scaled_channel(ch, alpha), s),
        partial_outer_rates(ch, alpha, s.sigma_p_net, s.sigma_cc),
    ):
        assert got.r_p == pytest.approx(want.r_p, rel=1e-9, abs=1e-10)
        assert got.r_c == pytest.approx(want.r_c, rel=1e-9, abs=1e-10)


def _dual_case(rng, complex_mode):
    ch = random_channel(rng, complex_mode)
    alpha = float(rng.uniform(0.3, 3.0))
    return ch, alpha, ch.p_p + alpha * ch.p_c, _broadcast_matrices(ch, alpha)


def _svd_log_det(e):
    """log2|I + e e†| as Σ log2(1 + σ²) over the singular values of ``e``."""
    return float(np.sum(np.log1p(np.linalg.svd(e, compute_uv=False) ** 2))) / math.log(2.0)


@settings(max_examples=40, deadline=None)
@given(complex_mode=st.booleans(), mu=st.floats(1.0, 10.0), seed=st.integers(0, 2**32 - 1))
@example(complex_mode=False, mu=1.0, seed=52845)
def test_mac_to_bc_keeps_each_rate_and_the_total_power(complex_mode, mu, seed):
    # MAC-BC duality: any dual-MAC pair at full power maps to PSD broadcast
    # covariances at full power whose rates are the MAC's, with the cognitive
    # user decoded first; the other order gives other rates.  The MAC's rates
    # come straight from its factors: encoding P would add jitter to its
    # diagonal, which biases a rate near 1e-4 bits by more than the tolerance
    rng = np.random.default_rng(seed)
    ch, alpha, budget, (ga, _, k) = _dual_case(rng, complex_mode)
    program, bases = _dual_mac(ch, ga, k)
    lows = [draw(rng, (dim, dim), complex_mode) for _, dim, _ in program.blocks]
    scale = math.sqrt(budget / sum(np.linalg.norm(low) ** 2 for low in lows))
    root_p, root_c = (scale * u @ low for u, low in zip(bases, lows))
    roots = _mac_to_bc(ga, k, root_p, root_c)
    q_p, q_c = (r @ np.conj(r.T) for r in roots)
    tol = budget_tol(DEFAULT_TOL, budget)
    assert min(min_eigenvalue(q_p), min_eigenvalue(q_c)) >= -tol
    assert abs(np.trace(q_p + q_c).real - budget) <= tol
    e_p = np.conj(ga.T) @ root_p
    both = _svd_log_det(np.hstack([e_p, np.conj(k.T) @ root_c]))
    r_p, r_c = ch.rate_scale * _svd_log_det(e_p), ch.rate_scale * (both - _svd_log_det(e_p))
    rate = covariance_rates(_two_block_program(ch, ga, ga, k), q_p, q_c)
    np.testing.assert_allclose([rate.r_p, rate.r_c], [r_p, r_c], rtol=1e-9, atol=1e-12)
    assert rate.mu_sum(mu) == pytest.approx(mu * r_p + r_c, rel=1e-9)


def _generic_broadcast_value(ch, alpha, mu, opts):
    """The broadcast mu-sum by projected ascent over the stacked-transmit
    covariances (q_p, q_c) themselves, from all power water-filled for each
    user and an even split: the direct solve that the dual MAC's may not end
    below."""
    mats = _broadcast_matrices(ch, alpha)
    ga, _, k = mats
    budget, n = ch.p_p + alpha * ch.p_c, ga.shape[1]
    program = _two_block_program(ch, *mats)
    zero_n, iso = np.zeros((n, n)), (0.5 * budget / n) * np.eye(n)
    starts = [
        (waterfill(ga, budget, real_mode=ch.real_mode)[1], zero_n),
        (zero_n, waterfill(k, budget, real_mode=ch.real_mode)[1]),
        (iso, iso),
    ]
    groups = [(np.arange(program.n_params), budget)]
    _, (theta,) = _solve(program, [mu], groups, opts, [starts])
    return covariance_rates(program, *program.decode(theta)).mu_sum(mu)


@settings(max_examples=15, deadline=None)
@given(complex_mode=st.booleans(), mu=st.floats(1.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_bc_mu_sum_is_not_below_the_generic_broadcast_ascent(complex_mode, mu, seed):
    rng = np.random.default_rng(seed)
    ch, alpha, budget, _ = _dual_case(rng, complex_mode)
    opts = SolverSettings(starts=2, seed=0)
    res = bc_mu_sum(ch, alpha, mu, opts)
    tol = budget_tol(DEFAULT_TOL, budget)
    assert min(min_eigenvalue(res.q_p), min_eigenvalue(res.q_c)) >= -tol
    assert abs(np.trace(res.q_p + res.q_c).real - budget) <= tol
    assert res.value == pytest.approx(res.rate.mu_sum(mu), rel=1e-15)
    assert res.gap_bits >= 0.0
    assert res.value >= _generic_broadcast_value(ch, alpha, mu, opts) - 1e-9


@pytest.mark.parametrize("complex_mode", [False, True])
def test_a_winning_extra_start_is_scored_with_the_broadcast_rates(monkeypatch, complex_mode):
    # with the mapped dual witness at zero power, a full solve's covariances,
    # handed back as an extra start, win and must carry their own broadcast
    # rates
    rng = np.random.default_rng(3)
    ch, alpha, _, (ga, _, k) = _dual_case(rng, complex_mode)
    opts = SolverSettings(starts=2, seed=0)
    full = bc_mu_sum(ch, alpha, 2.0, opts)
    monkeypatch.setattr(outer, "_mac_to_bc", lambda ga, *_: [np.zeros((ga.shape[1], 1))] * 2)
    res = bc_mu_sum(ch, alpha, 2.0, opts, extra_starts=[(full.q_p, full.q_c)])
    assert np.array_equal(res.q_p, full.q_p) and np.array_equal(res.q_c, full.q_c)
    want = _bc_rates(ch, ga, k, full.q_p, full.q_c)
    np.testing.assert_allclose([res.rate.r_p, res.rate.r_c], [want.r_p, want.r_c], rtol=1e-9)

def _log2_det(m):
    sign, value = np.linalg.slogdet(m)
    assert sign.real > 0.0
    return value / math.log(2.0)


@settings(max_examples=15, deadline=None)
@given(complex_mode=st.booleans(), mu=st.floats(1.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_coupled_noise_never_lowers_the_broadcast_cognitive_rate(complex_mode, mu, seed):
    # the full bound hands the cognitive receiver a genie copy of the licensed
    # output, its noise coupled to the cognitive one by q_z; whitening
    # [[I, q_z], [q_z†, I]] folds the coupling into the stacked channel.  By
    # the chain rule that rate is the broadcast one plus the genie's
    # conditional information, log|Cov(y_p | y_c)| - log|I - q_z q_z†| >= 0,
    # so no coupling takes it below bc_mu_sum's r_c
    rng = np.random.default_rng(seed)
    ch, alpha, _, (ga, _, k) = _dual_case(rng, complex_mode)
    res = bc_mu_sum(ch, alpha, mu, SolverSettings(starts=2, seed=0))
    q_c = res.q_c
    eye_p, eye_c = np.eye(ch.n_pr), np.eye(ch.n_cr)
    c_pp, c_pc, c_cc = (a @ q_c @ np.conj(b.T) for a, b in ((ga, ga), (ga, k), (k, k)))
    for _ in range(3):
        q_z = draw(rng, (ch.n_pr, ch.n_cr), complex_mode)
        q_z *= rng.uniform(0.0, 0.95) / np.linalg.svd(q_z, compute_uv=False)[0]
        sigma_z = np.block([[eye_p, q_z], [np.conj(q_z.T), eye_c]])
        kw = np.linalg.solve(np.linalg.cholesky(sigma_z), np.vstack([ga, k]))
        coupled = ch.rate_scale * _log2_det(np.eye(len(kw)) + kw @ q_c @ np.conj(kw.T))
        cross = c_pc + q_z
        conditional = eye_p + c_pp - cross @ np.linalg.solve(eye_c + c_cc, np.conj(cross.T))
        genie = _log2_det(conditional) - _log2_det(eye_p - q_z @ np.conj(q_z.T))
        own = _log2_det(eye_c + c_cc)
        assert coupled == pytest.approx(ch.rate_scale * (own + genie), rel=1e-9, abs=1e-9)
        assert genie >= -1e-9
        assert coupled >= res.rate.r_c - 1e-9
