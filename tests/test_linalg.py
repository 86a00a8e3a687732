import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cograte.errors import NonPositiveDefinite
from cograte.linalg import (
    build_lower,
    encode_psd,
    log_det_id_plus,
    log_det_id_plus_dir,
    lower_product_map,
    min_eigenvalue,
    param_len,
    param_rows,
    project_psd,
    symmetrize,
)


def test_log_det_identity_case():
    assert log_det_id_plus(np.zeros((2, 2))) == 0.0


def test_log_det_diagonal():
    assert log_det_id_plus(np.diag([1.0, 3.0])) == pytest.approx(3.0, abs=1e-12)


def test_log_det_rank_one_column():
    # direct 2x2 determinant as oracle: det(I + 5 h h^T) = 1 + 5 ||h||^2
    h = np.array([[0.9409], [-0.9921]])
    m = 5.0 * h @ h.T
    expected = math.log2(1.0 + 5.0 * float(h[0, 0] ** 2 + h[1, 0] ** 2))
    assert expected == pytest.approx(3.371248838047171, abs=1e-12)
    assert log_det_id_plus(m) == pytest.approx(expected, abs=1e-12)


def test_log_det_rejects_non_positive():
    with pytest.raises(NonPositiveDefinite):
        log_det_id_plus(np.diag([-2.0, 0.0]))


def test_project_psd_clips_negative_eigenvalue():
    out = project_psd(np.diag([2.0, -1.0]))
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_project_psd_exchange_matrix():
    # eigenpairs of [[0,1],[1,0]] are (+1, [1,1]) and (-1, [1,-1])
    out = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, np.full((2, 2), 0.5), atol=1e-12)


def test_project_psd_identity_on_psd():
    m = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.allclose(project_psd(m), m, atol=1e-12)


def test_param_len():
    assert param_len(3) == 6
    assert param_len(3, complex_mode=True) == 9
    with pytest.raises(ValueError):
        param_len(0)


def _row_major_walk(dim, complex_mode):
    """(row, column, imaginary) of each parameter slot, by the plain loop."""
    slots = []
    for i in range(dim):
        for j in range(i + 1):
            slots.append((i, j, False))
            if complex_mode and j < i:
                slots.append((i, j, True))
    return slots


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_slot_layout_matches_the_row_major_walk(dim, complex_mode):
    rng = np.random.default_rng([dim, complex_mode])
    walk = _row_major_walk(dim, complex_mode)
    theta = rng.standard_normal((2, len(walk)))
    low = np.zeros((2, dim, dim), dtype=complex if complex_mode else float)
    for pos, (i, j, imag) in enumerate(walk):
        if i == j:
            theta[:, pos] = np.abs(theta[:, pos]) + 0.5  # the Cholesky factor's diagonal
        low[:, i, j] += 1j * theta[:, pos] if imag else theta[:, pos]
    h = rng.standard_normal((3, dim)) + (1j * rng.standard_normal((3, dim)) if complex_mode else 0)

    assert np.array_equal(param_rows(dim, complex_mode), [i for i, _, _ in walk])
    assert np.array_equal(build_lower(theta, dim, complex_mode), low)
    product = theta @ lower_product_map(h, dim, complex_mode)
    product = product.view(complex) if complex_mode else product
    np.testing.assert_allclose(product.reshape(2, 3, dim), h @ low, rtol=1e-12, atol=1e-12)
    cov = low[0] @ np.conj(low[0].T)
    np.testing.assert_allclose(encode_psd(cov, complex_mode), theta[0], rtol=0, atol=1e-9)


@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
def test_decode_always_psd(values):
    # PSD by construction; the tolerance only absorbs eigensolver round-off
    low = build_lower(np.asarray(values), 3)
    m = low @ low.T
    assert min_eigenvalue(m) >= -1e-12 * max(1.0, float(np.trace(m)))


def _kinds(rng, dim, complex_mode):
    """A PSD, a rank-deficient, a slightly negative and a zero matrix, each
    ``q diag(w) q†`` on a random unitary ``q``."""
    a = rng.standard_normal((dim, dim))
    q = np.linalg.qr(a + 1j * rng.standard_normal((dim, dim)) if complex_mode else a)[0]
    spectra = [
        rng.uniform(0.1, 3.0, dim),
        np.r_[0.0, rng.uniform(0.1, 3.0, dim - 1)],
        np.r_[-1e-9, rng.uniform(0.1, 3.0, dim - 1)],
        np.zeros(dim),
    ]
    return [(q * w) @ np.conj(q.T) for w in spectra]


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_stack_projects_and_encodes_as_each_matrix_alone(dim, complex_mode):
    # the solvers encode all their starts in one call per block; each row must
    # be bit for bit what the matrix gets alone, or the outputs would move
    rng = np.random.default_rng(dim + 10 * complex_mode)
    mats = _kinds(rng, dim, complex_mode) + _kinds(rng, dim, complex_mode)
    for stack in (mats, mats[:1], [m for i, m in enumerate(mats) if i % 4 == 0]):
        alone = [project_psd(m) for m in stack]
        assert np.array_equal(project_psd(np.array(stack)), alone)
        alone = [encode_psd(m, complex_mode) for m in stack]
        assert alone[0].shape == (param_len(dim, complex_mode),)
        assert np.array_equal(encode_psd(np.array(stack), complex_mode), alone)


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_project_psd_idempotent(seed):
    r = np.random.default_rng(seed)
    m = r.standard_normal((3, 3))
    once = project_psd(m)
    twice = project_psd(once)
    assert np.max(np.abs(twice - once)) <= 1e-12


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_log_det_monotone_in_loewner_order(seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal((3, 3))
    y = r.standard_normal((3, 3))
    a = x @ x.T
    b = a + y @ y.T  # b - a is PSD by construction
    assert log_det_id_plus(a) <= log_det_id_plus(b) + 1e-10


@settings(max_examples=40)
@given(
    st.lists(st.floats(0, 4), min_size=2, max_size=2),
    st.lists(st.floats(0, 4), min_size=2, max_size=2),
)
def test_log_det_additive_on_commuting_diagonals(da, db):
    a = np.diag(np.asarray(da))
    b = np.diag(np.asarray(db))
    combined = log_det_id_plus(a + b + a @ b)
    assert combined == pytest.approx(
        log_det_id_plus(a) + log_det_id_plus(b), abs=1e-9
    )


def test_directional_derivative_matches_central_difference(rng):
    a = rng.standard_normal((3, 3))
    base = a @ a.T
    d = rng.standard_normal((3, 3))
    d = symmetrize(d)
    analytic = log_det_id_plus_dir(base, d)
    h = 1e-6
    numeric = (log_det_id_plus(base + h * d) - log_det_id_plus(base - h * d)) / (2 * h)
    assert numeric == pytest.approx(analytic, rel=1e-6)
