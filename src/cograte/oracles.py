"""Independent checks: Lagrangian case analysis, brute-force grid oracles for
scalar instances, and the two-sided minimax interchange witness.

These paths deliberately avoid the projected-ascent machinery so they can
serve as ground truth for it.  The grid oracle eliminates three of the four
free scalars of a scalar-transmit instance exactly (full-correlation
beamforming and rank-one power pouring are closed forms there) and
exhaustively grids the remaining power split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .achievable import DpcAllocation, mu_sum_achievable
from .channel import CognitiveChannel
from .errors import OracleTooLarge
from .outer import inf_alpha_partial_outer
from .regions import RatePair, check_mu
from .solvers import NEG_INF, SolverSettings, central_slope, log_alpha_scan, scan_then_golden


@dataclass(frozen=True)
class LagrangeMultipliers:
    """Nonnegative multipliers of the power constraints.

    ``lambda1``/``lambda2`` price the two separate budgets; ``lam`` prices
    the alpha-weighted sum budget used by the scaled form.
    """

    lambda1: float = 0.0
    lambda2: float = 0.0
    lam: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lam"):
            if float(getattr(self, name)) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if float(self.alpha) <= 0.0:
            raise ValueError("alpha must be positive")


def _traces(a: DpcAllocation) -> tuple[float, float, float]:
    return (
        float(np.real(np.trace(a.sigma_p))),
        float(np.real(np.trace(a.sigma_cp))),
        float(np.real(np.trace(a.sigma_cc))),
    )


def lagrangian_L(
    ch: CognitiveChannel,
    mu: float,
    a: DpcAllocation,
    rate: RatePair,
    m: LagrangeMultipliers,
) -> float:
    """mu*r_p + r_c minus the priced constraint slacks, exactly as written."""
    tp, tcp, tcc = _traces(a)
    return (
        mu * rate.r_p
        + rate.r_c
        - m.lambda1 * (tp - ch.p_p)
        - m.lambda2 * (tcp + tcc - ch.p_c)
    )


def lagrangian_g(ch: CognitiveChannel, mu: float, a: DpcAllocation, rate: RatePair):
    """Minimum of the Lagrangian over both multipliers.

    Any violated budget lets its multiplier grow without bound, so the value
    is the -inf sentinel; otherwise complementary slackness zeroes both
    penalty terms and the plain mu-sum remains.
    """
    tp, tcp, tcc = _traces(a)
    if tp > ch.p_p or tcp + tcc > ch.p_c:
        return NEG_INF
    return mu * rate.r_p + rate.r_c


def lagrangian_g1(
    ch: CognitiveChannel, mu: float, a: DpcAllocation, rate: RatePair, alpha: float
):
    """Minimum over the single multiplier of the alpha-weighted Lagrangian."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    tp, tcp, tcc = _traces(a)
    if tp + alpha * (tcp + tcc) > ch.p_p + alpha * ch.p_c:
        return NEG_INF
    return mu * rate.r_p + rate.r_c


def inf_alpha_g1(ch: CognitiveChannel, mu: float, a: DpcAllocation, rate: RatePair):
    """Infimum of g1 over every alpha in [0, inf].

    The weighted budget holds for all alpha exactly when both plain budgets
    hold (alpha -> 0 isolates the licensed one, alpha -> inf the cognitive
    one), so the infimum collapses to the two-budget case analysis.
    """
    return lagrangian_g(ch, mu, a, rate)


# ---------------------------------------------------------------------------
# brute-force grid oracle (scalar-transmit instances)
# ---------------------------------------------------------------------------


def _oracle_guard(ch: CognitiveChannel):
    if ch.n_pt != 1 or ch.n_ct != 1 or ch.n_pr != 1:
        raise OracleTooLarge(
            "grid oracle supports single-antenna transmit sides and a "
            "single licensed receive antenna only"
        )
    free = 4 if ch.real_mode else 5  # sym block (3 or 4 scalars) + sigma_cc
    if free > 4:
        raise OracleTooLarge(f"instance has {free} free scalars, cap is 4")


def _scalar_gains(ch: CognitiveChannel):
    hpp = abs(complex(ch.h_pp[0, 0]))
    hcp = abs(complex(ch.h_cp[0, 0]))
    ncc = float(np.real(np.conj(ch.h_cc[:, 0]) @ ch.h_cc[:, 0]))
    return hpp, hcp, ncc


def grid_oracle(
    ch: CognitiveChannel,
    mu: float,
    resolution: int,
    mode: str = "achievable",
    alpha: float | None = None,
) -> float:
    """Exhaustive grid maximum of mu*r_p + r_c on a scalar-transmit instance.

    For these instances the optimum over (sigma_p, sigma_cp, q) at a fixed
    sigma_cc is closed-form: full power, fully correlated with the sign of
    the channel product (achievable mode), or rank-one beamforming of the
    whole remaining budget (partial bound mode).  The one remaining free
    scalar, the power of the cognitive message, is gridded over
    ``resolution`` cells including both endpoints; doubling ``resolution``
    refines the grid in place, so the value is monotone in it.

    Raises
    ------
    OracleTooLarge
        If the instance has more than four free scalars.
    """
    _oracle_guard(ch)
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    mu = check_mu(mu)
    s = ch.rate_scale
    hpp, hcp, ncc = _scalar_gains(ch)

    if mode == "achievable":
        hi = ch.p_c
        grid = np.linspace(0.0, hi, resolution + 1)
        beam = (hpp * math.sqrt(ch.p_p) + hcp * np.sqrt(ch.p_c - grid)) ** 2
        r_p = s * np.log2(1.0 + beam / (1.0 + hcp**2 * grid))
        r_c = s * np.log2(1.0 + grid * ncc)
    elif mode == "partial_outer":
        if alpha is None or alpha <= 0.0:
            raise ValueError("partial_outer mode needs a positive alpha")
        budget = ch.p_p + alpha * ch.p_c
        g2 = hpp**2 + hcp**2 / alpha
        grid = np.linspace(0.0, budget, resolution + 1)
        r_p = s * np.log2(1.0 + (budget - grid) * g2 / (1.0 + hcp**2 * grid / alpha))
        r_c = s * np.log2(1.0 + grid * ncc / alpha)
    else:
        raise ValueError(f"unknown oracle mode {mode!r}")
    return float(np.max(mu * r_p + r_c))


# ---------------------------------------------------------------------------
# minimax interchange witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KyFanResult:
    sup_inf: float
    inf_sup: float
    gap: float


def kyfan_gap(
    ch: CognitiveChannel,
    mu: float,
    opts: SolverSettings | None = None,
    resolution: int = 4096,
    alpha_bracket: tuple[float, float] = (1e-3, 1e3),
) -> KyFanResult:
    """Numerical witness that the alpha-infimum and the allocation-supremum
    of the weighted-budget mu-sum commute.

    sup-inf order: over the achievable candidates, the inner alpha-infimum of
    the single-multiplier Lagrangian keeps exactly the doubly-budgeted
    allocations (see :func:`inf_alpha_g1`), so the outer supremum is the
    plain achievable mu-sum.  inf-sup order: the minimum over alpha of the
    partial-bound mu-sum.  Scalar-transmit instances run both sides on the
    grid oracle; larger ones fall back to the ascent solvers.
    """
    mu = check_mu(mu)
    xs = log_alpha_scan(alpha_bracket, 25)
    opts = opts or SolverSettings()

    if ch.n_pt == 1 and ch.n_ct == 1 and ch.n_pr == 1 and ch.real_mode:
        # sup-inf: every grid allocation meets both budgets, so the filter
        # through inf_alpha_g1 keeps them all and the grid maximum remains
        sup_inf = grid_oracle(ch, mu, resolution)

        def inner(log_a: float) -> float:
            return grid_oracle(ch, mu, resolution, "partial_outer", math.exp(log_a))

        inf_sup = scan_then_golden(central_slope(inner), xs, tol=1e-12).value
    else:
        res = mu_sum_achievable(ch, mu, opts)
        filtered = inf_alpha_g1(ch, mu, res.witness, res.rate)
        sup_inf = res.value if filtered is NEG_INF else float(filtered)
        inf_sup = inf_alpha_partial_outer(ch, mu, alpha_bracket, opts).n_value

    return KyFanResult(sup_inf=sup_inf, inf_sup=inf_sup, gap=abs(inf_sup - sup_inf))
