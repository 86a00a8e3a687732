"""Small dense Hermitian/PSD kernels shared by every rate computation.

All logarithms are base 2 so downstream rates read in bits.  Matrices stay
plain numpy arrays; Hermitian symmetry is enforced explicitly through
:func:`symmetrize` before any eigen-solve to kill floating-point drift.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPositiveDefinite

LN2 = float(np.log(2.0))

#: Default eigenvalue tolerance for PSD certification.
DEFAULT_TOL = 1e-9
#: Diagonal boost of :func:`encode_psd`, relative to ``max(trace / n, 1)``.
ENCODE_JITTER = 1e-12


def budget_tol(tol: float, budget: float) -> float:
    """Tolerance of a trace or eigenvalue check on covariances under a power
    ``budget``: ``tol`` plus ``1e-12 * budget``, since the traces and
    eigenvalues of such covariances round at a fixed fraction of the budget,
    which an absolute ``tol`` alone falls below at large budgets."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    return tol + 1e-12 * budget


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2, the exactly Hermitian part of ``a``."""
    a = np.asarray(a)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized input."""
    return float(np.linalg.eigvalsh(symmetrize(a))[0])


def project_psd(m: np.ndarray) -> np.ndarray:
    """Project onto the PSD cone by clipping negative eigenvalues to zero,
    one matrix or each of a ``(..., n, n)`` stack.

    Idempotent, and the identity on matrices that are already PSD.
    """
    s = symmetrize(m)
    w, v = np.linalg.eigh(s)
    psd = w[..., :1, None] >= 0.0
    if psd.all():
        return s
    w = np.clip(w, 0.0, None)
    return np.where(psd, s, symmetrize((v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of the symmetrized ``m``, negative eigenvalues clipped."""
    w, v = np.linalg.eigh(symmetrize(m))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ np.conj(v.T)


def range_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of ``a``, its rank cut as ``matrix_rank`` does."""
    u, s, _ = np.linalg.svd(a)
    return u[:, : int(np.sum(s > s.max(initial=0.0) * max(a.shape) * np.finfo(s.dtype).eps))]


def logdet2_pd(a: np.ndarray, tol: float = DEFAULT_TOL):
    """log2-determinant of a Hermitian positive definite matrix, or of each of
    a ``(..., n, n)`` stack; a float for one matrix, an array for a stack.

    Cholesky is tried first (fast, stable); on failure the eigenvalues of the
    symmetrized matrix are used, raising :class:`NonPositiveDefinite` when any
    eigenvalue is <= ``tol``.
    """
    s = symmetrize(a)
    try:
        c = np.linalg.cholesky(s)
        out = 2.0 * np.sum(np.log2(np.real(np.diagonal(c, axis1=-2, axis2=-1))), axis=-1)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(s)
        low = float(np.min(w[..., 0]))
        if low <= tol:
            raise NonPositiveDefinite(
                f"matrix has eigenvalue {low:.3e} <= tolerance {tol:.1e}"
            ) from None
        out = np.sum(np.log2(w), axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def log_det_id_plus(m: np.ndarray, tol: float = DEFAULT_TOL):
    """Evaluate log2 det(I + m) for Hermitian ``m`` with I + m > 0, or for
    each of a ``(..., n, n)`` stack (a float for one matrix, an array for a
    stack).

    This is the kernel of every rate formula in the package.  Callers in
    real-signal mode apply their own 1/2 prefactor.

    Raises
    ------
    NonPositiveDefinite
        If any eigenvalue of I + m is <= ``tol`` (signals an infeasible or
        corrupt covariance upstream).
    """
    m = np.asarray(m, dtype=complex) if np.iscomplexobj(m) else np.asarray(m, dtype=float)
    eye = np.eye(m.shape[-1], dtype=m.dtype)
    return logdet2_pd(eye + m, tol=tol)


def log_det_id_plus_dir(a: np.ndarray, d: np.ndarray) -> float:
    """Analytic directional derivative of ``log_det_id_plus`` at ``a`` along ``d``.

    Equals Tr((I + a)^{-1} d) / ln 2, the classical trace form.
    """
    a = symmetrize(a)
    d = symmetrize(d)
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    x = np.linalg.solve(eye + a, d)
    return float(np.real(np.trace(x))) / LN2


# ---------------------------------------------------------------------------
# Unconstrained-vector <-> PSD parameterization (lower-triangular factors).
#
# A real parameter vector of length ``param_len(dim, complex_mode)`` fills a
# lower-triangular L row-major (:func:`build_lower`); L L† is PSD by
# construction for every finite vector.  In complex mode each strictly-lower
# entry consumes a (re, im) pair while diagonal entries stay real, so the
# length is dim².
# ---------------------------------------------------------------------------


def param_len(dim: int, complex_mode: bool = False) -> int:
    """Number of real parameters for a ``dim`` x ``dim`` factor."""
    if dim <= 0:
        raise ValueError("dim must be positive")
    return dim * dim if complex_mode else dim * (dim + 1) // 2


def _slots(dim: int, complex_mode: bool = False):
    """The parameter layout: row, column and imaginary flag of each slot.

    Slots walk the lower triangle row-major; in complex mode a strictly-lower
    entry takes two slots, its real part and then its imaginary part.
    """
    slots = [
        (i, j, part)
        for i in range(dim)
        for j in range(i + 1)
        for part in ((0, 1) if complex_mode and j < i else (0,))
    ]
    rows, cols, imag = np.array(slots, dtype=int).reshape(-1, 3).T
    return rows, cols, imag == 1


def param_rows(dim: int, complex_mode: bool = False) -> np.ndarray:
    """Row index of L that each parameter slot feeds (row-major layout).

    Used by trace projections: trace(L L†) restricted to a row group equals
    the squared norm of that group's parameters, in real and complex mode.
    """
    return _slots(dim, complex_mode)[0]


def build_lower(theta: np.ndarray, dim: int, complex_mode: bool = False) -> np.ndarray:
    """Fill lower-triangular factors from parameter vectors.

    Parameters
    ----------
    theta : ndarray, shape (..., param_len(dim, complex_mode))
        Real parameter vectors; a leading batch axis is supported.
    dim : int
        Factor dimension.
    complex_mode : bool
        When true, strictly-lower entries are read as (re, im) pairs.

    Returns
    -------
    ndarray, shape (..., dim, dim)
        Lower-triangular L (complex dtype in complex mode).
    """
    theta = np.asarray(theta, dtype=float)
    k = param_len(dim, complex_mode)
    if theta.shape[-1] != k:
        raise ValueError(f"expected {k} parameters, got {theta.shape[-1]}")
    batch = theta.shape[:-1]
    rows, cols, imag = _slots(dim, complex_mode)
    out = np.zeros(batch + (dim, dim), dtype=complex if complex_mode else float)
    out[..., rows[~imag], cols[~imag]] = theta[..., ~imag]
    if complex_mode:
        out[..., rows[imag], cols[imag]] += 1j * theta[..., imag]
    return out


def lower_product_map(h: np.ndarray, dim: int, complex_mode: bool = False) -> np.ndarray:
    """Real matrix ``W`` with ``theta @ W == vec(h @ build_lower(theta, dim))``.

    ``h @ L`` is linear in the parameters: slot ``(i, j)`` of the layout puts
    ``h[:, i]`` into column ``j`` (times ``1j`` for an imaginary slot), and
    ``vec`` flattens the ``(rows, dim)`` product row-major.  In complex mode
    the columns of ``W`` interleave real and imaginary parts, so the real
    product ``theta @ W`` read ``.view(complex)`` is the complex ``vec``.
    """
    h = np.asarray(h, dtype=complex if complex_mode else float)
    rows, cols, imag = _slots(dim, complex_mode)
    w = np.zeros((len(rows), h.shape[0], dim), dtype=h.dtype)
    w[np.arange(len(rows)), :, cols] = h[:, rows].T
    if complex_mode:
        w[imag] *= 1j
    w = w.reshape(len(w), -1)
    return w.view(float) if complex_mode else w


def encode_psd(m: np.ndarray, complex_mode: bool = False) -> np.ndarray:
    """Parameters whose :func:`build_lower` factor ``L`` has ``L L†`` equal
    to ``m`` up to ``ENCODE_JITTER`` on the diagonal; a ``(..., n, n)``
    stack gives a ``(..., param_len)`` stack, each row as its matrix alone would.

    The input is floored onto the PSD cone and given a tiny diagonal boost so
    the Cholesky factor exists for rank-deficient matrices; used to warm-start
    solvers from known allocations.
    """
    s = project_psd(m)
    dim = s.shape[-1]
    scale = np.maximum(np.real(np.trace(s, axis1=-2, axis2=-1)) / dim, 1.0)[..., None, None]
    low = np.linalg.cholesky(s + ENCODE_JITTER * scale * np.eye(dim, dtype=s.dtype))
    rows, cols, imag = _slots(dim, complex_mode)
    entries = low[..., rows, cols]
    return np.where(imag, np.imag(entries), np.real(entries)).astype(float)
