"""Channel model: the two-transmitter cognitive link and its derived matrices.

The system is

    y_p = H_pp x_p + H_cp x_c + z_p
    y_c = H_pc x_p + H_cc x_c + z_c

with unit-covariance Gaussian noise at both receivers and transmit power
budgets ``p_p`` and ``p_c``.  ``real_mode`` restricts coefficients and inputs
to the reals, in which case every rate formula downstream carries a 1/2
prefactor.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidAlpha,
    NonPositivePower,
    ParseError,
    SingularNoise,
)
from .linalg import DEFAULT_TOL, logdet2_pd, min_eigenvalue, psd_sqrt, symmetrize
from .regions import _matrix_list


def _is_number(x) -> bool:
    """A JSON number that is a finite float; JSON booleans are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _as_matrix(value, key: str, real_mode: bool) -> np.ndarray:
    """Coerce a JSON value (scalar, column list, or nested rows) to a matrix.

    Entries are numbers or [re, im] pairs; a bare scalar means a 1x1 matrix
    and a flat list of numbers means a column vector.
    """

    def entry(x):
        if _is_number(x):
            return complex(x)
        if isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)):
            return complex(x[0], x[1])
        raise ParseError(f"{key}: entry {x!r} is not a finite number or [re, im] pair")

    if isinstance(value, (int, float)):
        rows = [[entry(value)]]
    elif isinstance(value, list) and value and all(isinstance(v, (int, float)) for v in value):
        rows = [[entry(v)] for v in value]
    elif isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        width = None
        rows = []
        for r in value:
            row = [entry(v) for v in r]
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(f"{key}: ragged rows")
            rows.append(row)
        if width == 0:
            raise ParseError(f"{key}: empty rows")
    else:
        raise ParseError(f"{key}: expected a number or an array of rows")

    m = np.asarray(rows, dtype=complex)
    if real_mode:
        if np.any(np.imag(m) != 0.0):
            raise ParseError(f"{key}: complex entry in a real_mode channel")
        return np.real(m).astype(float)
    return m


@dataclass(frozen=True)
class CognitiveChannel:
    """Static channel matrices and power budgets of the cognitive link.

    Antenna counts are inferred: n_pt = cols(h_pp), n_pr = rows(h_pp),
    n_ct = cols(h_cc), n_cr = rows(h_cc).
    """

    h_pp: np.ndarray
    h_pc: np.ndarray
    h_cp: np.ndarray
    h_cc: np.ndarray
    p_p: float
    p_c: float
    real_mode: bool = False

    def __post_init__(self):
        for name in ("h_pp", "h_pc", "h_cp", "h_cc"):
            m = np.asarray(getattr(self, name))
            if m.ndim != 2:
                raise DimensionMismatch(f"{name} must be a 2-D matrix")
            object.__setattr__(self, name, m)
        if self.h_pc.shape != (self.n_cr, self.n_pt):
            raise DimensionMismatch(
                f"h_pc has shape {self.h_pc.shape}, expected {(self.n_cr, self.n_pt)}"
            )
        if self.h_cp.shape != (self.n_pr, self.n_ct):
            raise DimensionMismatch(
                f"h_cp has shape {self.h_cp.shape}, expected {(self.n_pr, self.n_ct)}"
            )
        for name in ("p_p", "p_c"):
            p = float(getattr(self, name))
            if not math.isfinite(p) or p <= 0.0:
                raise NonPositivePower(f"{name} must be a finite positive number, got {p}")
            object.__setattr__(self, name, p)

    @property
    def n_pt(self) -> int:
        return self.h_pp.shape[1]

    @property
    def n_pr(self) -> int:
        return self.h_pp.shape[0]

    @property
    def n_ct(self) -> int:
        return self.h_cc.shape[1]

    @property
    def n_cr(self) -> int:
        return self.h_cc.shape[0]

    @property
    def rate_scale(self) -> float:
        """Prefactor on every log-det rate: 1/2 for real signalling, else 1."""
        return 0.5 if self.real_mode else 1.0

    @cached_property
    def licensed_weight(self) -> float:
        """``mu* = λmax(h_cc†h_cc, h_cp†h_cp)``, the largest ``|h_cc x|² / |h_cp
        x|²``: ``‖h_cc V S⁻¹‖₂²`` over the SVD ``h_cp = U S V†`` cut as
        ``matrix_rank`` cuts it, ``+inf`` where ``h_cc`` hears what ``h_cp``
        does not.  See ``outer._power_split_bound``."""
        _, s, vh = np.linalg.svd(self.h_cp)
        rank = int(np.sum(s > s.max(initial=0.0) * max(self.h_cp.shape) * np.finfo(float).eps))
        heard = self.h_cc @ np.conj(vh.T)  # on h_cp's right singular vectors, null space last
        if np.linalg.norm(heard[:, rank:]) > max(heard.shape) * 1e-15 * np.linalg.norm(heard):
            return math.inf
        return float(np.linalg.norm(heard[:, :rank] / s[:rank], 2) ** 2) if rank else 0.0

    @property
    def corner_weight(self) -> float:
        """``max(1, mu*)``: from this weight on the licensed corner meets the
        partial bound at every alpha (``outer._power_split_bound``, step 2)."""
        return max(1.0, self.licensed_weight)

    @cached_property
    def _derived(self) -> dict:
        """Searches' results kept for the channel's life, by their arguments."""
        return {}

    def digest(self) -> str:
        """Stable hash of the channel contents, recorded in output metadata."""
        payload = {k: _matrix_list(getattr(self, k)) for k in ("h_pp", "h_pc", "h_cp", "h_cc")}
        payload.update(p_p=self.p_p, p_c=self.p_c, real_mode=self.real_mode)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CompositeMatrices:
    """Block matrices assembled from a channel at a given alpha scaling.

    ``g_alpha`` stacks the two paths into the licensed receiver, the cognitive
    one divided by sqrt(alpha); ``k`` keeps only the cognitive
    receiver's own path.
    """

    g_alpha: np.ndarray
    k: np.ndarray


def _check_alpha(ch: CognitiveChannel, alpha: float) -> float:
    """``alpha`` as a float if it is finite and > 0 and the scaled channel
    passes :func:`load_channel`'s size test on ``h_cp`` and ``h_cc``."""
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise InvalidAlpha(f"alpha must be finite and positive, got {alpha}")
    power = ch.p_p + alpha * ch.p_c
    for name in ("h_cp", "h_cc"):
        m = getattr(ch, name)
        if not math.isfinite(power * (float(np.vdot(m, m).real) / alpha)):
            raise InvalidAlpha(f"alpha = {alpha:g} is out of range for this channel: "
                               f"(p_p + alpha p_c) * ||{name} / sqrt(alpha)||_F^2 is not finite")
    return alpha


def load_channel(spec_text: str) -> CognitiveChannel:
    """Parse a channel-spec JSON document into a validated channel.

    The document is an object with keys ``h_pp``, ``h_pc``, ``h_cp``, ``h_cc``
    (row-major arrays of arrays, entries real numbers or [re, im] pairs),
    ``p_p``, ``p_c`` (positive numbers) and optional ``real_mode`` (default
    false).  Scalars and flat lists are accepted as 1x1 matrices and column
    vectors respectively.  Non-finite numbers, booleans, and a matrix whose
    (p_p + p_c) * ||H||_F^2 is not finite raise ParseError naming the key.
    """
    try:
        doc = json.loads(spec_text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("channel spec must be a JSON object")
    missing = [k for k in ("h_pp", "h_pc", "h_cp", "h_cc", "p_p", "p_c") if k not in doc]
    if missing:
        raise ParseError(f"channel spec missing keys: {', '.join(missing)}")
    real_mode = doc.get("real_mode", False)
    if not isinstance(real_mode, bool):
        raise ParseError("real_mode must be a boolean")
    mats = {k: _as_matrix(doc[k], k, real_mode) for k in ("h_pp", "h_pc", "h_cp", "h_cc")}
    for k in ("p_p", "p_c"):
        if not _is_number(doc[k]):
            raise ParseError(f"{k} must be a finite number, got {doc[k]!r}")
    power = float(doc["p_p"]) + float(doc["p_c"])
    for k, m in mats.items():
        # every rate takes log det(I + H Q H†) with tr Q <= p_p + p_c
        if not math.isfinite(power * float(np.vdot(m, m).real)):
            raise ParseError(f"{k}: (p_p + p_c) * ||{k}||_F^2 is not finite")
    return CognitiveChannel(
        h_pp=mats["h_pp"],
        h_pc=mats["h_pc"],
        h_cp=mats["h_cp"],
        h_cc=mats["h_cc"],
        p_p=float(doc["p_p"]),
        p_c=float(doc["p_c"]),
        real_mode=real_mode,
    )


def scaled_channel(ch: CognitiveChannel, alpha: float) -> CognitiveChannel:
    """Equivalent channel with h_cp, h_cc divided by sqrt(alpha) and the
    cognitive power budget multiplied by alpha."""
    alpha = _check_alpha(ch, alpha)
    root = math.sqrt(alpha)
    return CognitiveChannel(
        h_pp=ch.h_pp,
        h_pc=ch.h_pc,
        h_cp=ch.h_cp / root,
        h_cc=ch.h_cc / root,
        p_p=ch.p_p,
        p_c=alpha * ch.p_c,
        real_mode=ch.real_mode,
    )


def composite_matrices(ch: CognitiveChannel, alpha: float) -> CompositeMatrices:
    """Assemble the two block matrices used by the bound computations."""
    alpha = _check_alpha(ch, alpha)
    root = math.sqrt(alpha)
    g_alpha = np.hstack([ch.h_pp, ch.h_cp / root])
    k = np.hstack([np.zeros((ch.n_cr, ch.n_pt), dtype=ch.h_cc.dtype), ch.h_cc / root])
    return CompositeMatrices(g_alpha=g_alpha, k=k)


def mc_mutual_info(
    h: np.ndarray,
    sigma_x: np.ndarray,
    sigma_noise: np.ndarray,
    n_samples: int,
    seed: int,
    real_mode: bool = False,
) -> float:
    """Plug-in Monte-Carlo estimate of the Gaussian mutual information of
    y = h x + z, in bits.

    Draws ``n_samples`` of x ~ N(0, sigma_x) and z ~ N(0, sigma_noise) from a
    counter-based Philox stream keyed by ``seed`` (bit-reproducible), forms
    the zero-mean sample covariance of y and returns
    log2 det(cov_hat_y) - log2 det(sigma_noise), halved in real mode.

    Raises
    ------
    SingularNoise
        If ``sigma_noise`` is not strictly positive definite.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    h = np.asarray(h, dtype=float if real_mode else complex)
    if h.ndim != 2:
        raise DimensionMismatch("h must be a 2-D matrix")
    d_out, d_in = h.shape
    sigma_x = symmetrize(np.asarray(sigma_x, dtype=h.dtype))
    sigma_noise = symmetrize(np.asarray(sigma_noise, dtype=h.dtype))
    if sigma_x.shape != (d_in, d_in) or sigma_noise.shape != (d_out, d_out):
        raise DimensionMismatch("covariance shapes inconsistent with h")
    if min_eigenvalue(sigma_noise) <= DEFAULT_TOL:
        raise SingularNoise("sigma_noise must be strictly positive definite")

    ax = psd_sqrt(sigma_x)
    az = psd_sqrt(sigma_noise)
    rng = np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))

    def draw(n: int, d: int) -> np.ndarray:
        # unit-power entries: real, or circular complex from two real draws
        e = rng.standard_normal((n, d))
        return e if real_mode else (e + 1j * rng.standard_normal((n, d))) / np.sqrt(2.0)

    cov_sum = np.zeros((d_out, d_out), dtype=h.dtype)
    remaining = int(n_samples)
    chunk = 1 << 16
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        y = (draw(n, d_in) @ ax.T) @ h.T + draw(n, d_out) @ az.T
        cov_sum += y.T @ np.conj(y)
    cov_y = symmetrize(cov_sum / n_samples)
    estimate = logdet2_pd(cov_y) - logdet2_pd(sigma_noise)
    return 0.5 * estimate if real_mode else estimate
