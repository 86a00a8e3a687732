"""Complex-mode and multi-antenna coverage for the solvers.

No closed-form oracles exist at these shapes, so the checks are structural:
solver values dominate the deterministic corner allocations, the bound
dominates any mapped achievable witness, and the scaling map stays exact.
"""

import math

import numpy as np
import pytest

from cograte.achievable import (
    DpcAllocation,
    dpc_rates,
    is_feasible,
    mu_sum_achievable,
    scale_allocation,
)
from cograte.channel import CognitiveChannel, scaled_channel
from cograte.outer import (
    mu_sum_partial_outer,
    partial_outer_max_rp,
    partial_outer_rates,
)
from cograte.solvers import SolverSettings


@pytest.fixture(scope="module")
def complex_scalar():
    return CognitiveChannel(
        h_pp=[[1.1 + 0.4j]],
        h_pc=[[0.2 - 0.1j], [0.05j]],
        h_cp=[[0.6 - 0.3j]],
        h_cc=[[0.9 + 0.2j], [-0.7 + 0.5j]],
        p_p=4.0,
        p_c=3.0,
    )


@pytest.fixture(scope="module")
def matrix_channel():
    rng = np.random.default_rng(31)
    return CognitiveChannel(
        h_pp=rng.standard_normal((2, 2)),
        h_pc=rng.standard_normal((2, 2)),
        h_cp=rng.standard_normal((2, 1)),
        h_cc=rng.standard_normal((2, 1)),
        p_p=4.0,
        p_c=3.0,
        real_mode=True,
    )


def test_complex_mode_has_unit_rate_scale(complex_scalar):
    assert complex_scalar.rate_scale == 1.0


def test_complex_solver_beats_corner_allocations(complex_scalar):
    opts = SolverSettings(starts=6, seed=17)
    res = mu_sum_achievable(complex_scalar, 1.0, opts)
    assert is_feasible(complex_scalar, res.witness, tol=1e-8)
    for alloc in (
        DpcAllocation([[4.0]], [[3.0]], [[0.0]], [[0.0]]),
        DpcAllocation([[4.0]], [[0.0]], [[3.0]], [[0.0]]),
    ):
        assert res.value >= dpc_rates(complex_scalar, alloc).mu_sum(1.0) - 1e-9


def test_complex_solver_uses_phase(complex_scalar):
    # the value with an optimally phased cross block strictly beats q = 0
    opts = SolverSettings(starts=6, seed=17)
    res = mu_sum_achievable(complex_scalar, 1e6, opts)
    best_real_q = dpc_rates(
        complex_scalar, DpcAllocation([[4.0]], [[3.0]], [[0.0]], [[0.0]])
    )
    assert res.rate.r_p > best_real_q.r_p + 1e-3
    assert abs(complex(res.witness.q[0, 0]).imag) > 1e-6


def test_complex_scaling_invariance(complex_scalar):
    alloc = DpcAllocation(
        [[2.5]], [[1.0]], [[1.5]], [[0.8 * math.sqrt(2.5) * (0.6 + 0.8j)]]
    )
    assert is_feasible(complex_scalar, alloc)
    base = dpc_rates(complex_scalar, alloc)
    for alpha in (0.4, 2.7):
        mapped = scale_allocation(alloc, alpha)
        scaled = dpc_rates(scaled_channel(complex_scalar, alpha), mapped)
        assert scaled.r_p == pytest.approx(base.r_p, abs=1e-10)
        assert scaled.r_c == pytest.approx(base.r_c, abs=1e-10)


def test_complex_bound_contains_achievable(complex_scalar):
    opts = SolverSettings(starts=6, seed=17)
    ach = mu_sum_achievable(complex_scalar, 2.0, opts)
    for alpha in (0.5, 1.0, 2.0):
        bound = mu_sum_partial_outer(
            complex_scalar, alpha, 2.0, opts, extra_starts=[ach.witness]
        )
        assert bound.value >= ach.value - 1e-9


def test_matrix_channel_solver_and_bound(matrix_channel):
    opts = SolverSettings(starts=6, seed=23)
    ach = mu_sum_achievable(matrix_channel, 1.0, opts)
    assert is_feasible(matrix_channel, ach.witness, tol=1e-8)
    iso = DpcAllocation(
        2.0 * np.eye(2), [[3.0]], [[0.0]], np.zeros((2, 1))
    )
    assert ach.value >= dpc_rates(matrix_channel, iso).mu_sum(1.0) - 1e-9
    for alpha in (0.5, 1.0, 2.0):
        bound = mu_sum_partial_outer(
            matrix_channel, alpha, 1.0, opts, extra_starts=[ach.witness]
        )
        assert bound.value >= ach.value - 1e-9


def test_matrix_channel_bound_peak_matches_waterfilling(matrix_channel):
    opts = SolverSettings(starts=6, seed=23)
    res = mu_sum_partial_outer(matrix_channel, 1.0, 1e6, opts)
    assert res.value / 1e6 == pytest.approx(
        partial_outer_max_rp(matrix_channel, 1.0), abs=1e-6
    )


def test_matrix_mapped_witness_keeps_rates(matrix_channel):
    opts = SolverSettings(starts=4, seed=23)
    ach = mu_sum_achievable(matrix_channel, 1.5, opts)
    for alpha in (0.7, 1.9):
        scaled = scale_allocation(ach.witness, alpha)
        mapped = partial_outer_rates(matrix_channel, alpha, scaled.sigma_p_net, scaled.sigma_cc)
        assert mapped.r_p == pytest.approx(ach.rate.r_p, abs=1e-9)
        assert mapped.r_c == pytest.approx(ach.rate.r_c, abs=1e-9)
