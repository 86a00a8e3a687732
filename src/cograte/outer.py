"""Outer bounds on the capacity region: full coupled-noise bound, partial
bound, broadcast-side mu-sums, the tightness condition, and the scalar
minimization over the alpha scaling.

The full bound evaluates rate pairs of the cooperative broadcast channel
with sum power ``p_p + alpha p_c`` and coupled noise (coupling ``q_z``); the
partial bound restricts the second user's covariance to the cognitive block,
which is enough for mu-sum comparisons against the achievable region.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .achievable import (
    DpcAllocation,
    _dpc_matrices,
    _solve,
    _two_block_program,
    _two_block_rates,
    dpc_rate_caps,
    scale_allocation,
)
from .channel import CognitiveChannel, composite_matrices, scaled_channel
from .errors import (
    BracketUnbounded,
    InfeasibleAllocation,
    SingularSigmaZ,
    ZeroChannel,
)
from .linalg import DEFAULT_TOL, budget_tol, min_eigenvalue
from .regions import RatePair, RegionBoundary, check_mu, cross_polish, sweep_mu
from .solvers import ScanResult, SolverSettings, golden_section, scan_then_golden, waterfill

# perfbench/tracing.py patches these names on this module too
from .linalg import build_lower, encode_psd, log_det_id_plus  # noqa: F401
from .solvers import maximize_multistart  # noqa: F401


@dataclass(frozen=True)
class NoiseCoupling:
    """Cross-correlation q_z between the genie copy of the licensed noise and
    the cognitive noise; the stacked covariance [[I, q_z], [q_z†, I]] must
    stay PSD, i.e. all singular values of q_z are at most one."""

    q_z: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q_z))
        object.__setattr__(self, "q_z", q)
        top = float(np.linalg.svd(q, compute_uv=False)[0]) if q.size else 0.0
        if top > 1.0 + 1e-9:
            raise SingularSigmaZ(
                f"q_z has singular value {top:.6g} > 1; coupled covariance not PSD"
            )

    def sigma_z(self) -> np.ndarray:
        """The coupled noise covariance; SingularSigmaZ unless strictly PD."""
        n_pr, n_cr = self.q_z.shape
        top = np.hstack([np.eye(n_pr, dtype=self.q_z.dtype), self.q_z])
        bottom = np.hstack([np.conj(self.q_z.T), np.eye(n_cr, dtype=self.q_z.dtype)])
        sz = np.vstack([top, bottom])
        if min_eigenvalue(sz) <= 1e-9:
            raise SingularSigmaZ("coupled noise covariance must be strictly positive definite")
        return sz


@dataclass(frozen=True)
class OuterAllocation:
    """Broadcast-side covariances (q_p for the licensed message, q_c for the
    cognitive one), both over the stacked transmit dimensions."""

    q_p: np.ndarray
    q_c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q_p", np.atleast_2d(np.asarray(self.q_p)))
        object.__setattr__(self, "q_c", np.atleast_2d(np.asarray(self.q_c)))


def _check_sum_budget(budget: float, tol: float, **covs: np.ndarray):
    """Raise InfeasibleAllocation unless every covariance is PSD and their
    traces add up to at most ``budget``, both within ``budget_tol``."""
    slack = budget_tol(tol, budget)
    for label, m in covs.items():
        e = min_eigenvalue(m)
        if e < -slack:
            raise InfeasibleAllocation(f"{label} is not PSD (min eigenvalue {e:.3e})")
    total = float(np.real(sum(np.trace(m) for m in covs.values())))
    if total > budget + slack:
        label = "+".join(f"trace({name})" for name in covs)
        raise InfeasibleAllocation(f"{label} = {total:.6g} exceeds sum budget {budget:.6g}")


def outer_rates(
    ch: CognitiveChannel,
    alpha: float,
    nz: NoiseCoupling,
    a: OuterAllocation,
    tol: float = DEFAULT_TOL,
) -> RatePair:
    """Rate pair of the full coupled-noise bound for one allocation.

    The licensed rate treats the cognitive covariance as interference over
    the scaled stacked channel; the cognitive rate is the log-det increment
    of the coupled noise covariance.
    """
    mats = _broadcast_matrices(ch, alpha, nz)
    _check_sum_budget(ch.p_p + alpha * ch.p_c, tol, q_p=a.q_p, q_c=a.q_c)
    return _two_block_rates(ch, *mats, a.q_p, a.q_c)


def partial_outer_rates(
    ch: CognitiveChannel,
    alpha: float,
    q_p: np.ndarray,
    sigma_cc: np.ndarray,
    tol: float = DEFAULT_TOL,
) -> RatePair:
    """Rate pair of the partial bound, with the cognitive covariance
    restricted to its own block: the DPC rates on ``scaled_channel(ch,
    alpha)`` of the allocation whose stacked block is ``q_p``, checked
    against the one sum budget ``p_p + alpha p_c`` instead of two."""
    scaled = scaled_channel(ch, alpha)
    q_p = np.atleast_2d(np.asarray(q_p))
    sigma_cc = np.atleast_2d(np.asarray(sigma_cc))
    _check_sum_budget(scaled.p_p + scaled.p_c, tol, q_p=q_p, sigma_cc=sigma_cc)
    return dpc_rate_caps(scaled, DpcAllocation.from_net(q_p, sigma_cc))


# ---------------------------------------------------------------------------
# mu-sum solvers over the bound regions
# ---------------------------------------------------------------------------


def _broadcast_matrices(ch: CognitiveChannel, alpha: float, nz: NoiseCoupling | None = None):
    """Two-block matrices of the broadcast bounds: q_p and q_c over the stacked
    transmit dimensions, both through ``g_alpha`` at the licensed receiver;
    q_c through ``k`` over unit noise, or ``k_bar`` over a coupled noise."""
    mats = composite_matrices(ch, alpha)
    dtype = float if ch.real_mode else complex
    ga = mats.g_alpha.astype(dtype)
    if nz is None:
        return ga, ga, mats.k.astype(dtype), np.eye(ch.n_cr)
    return ga, ga, mats.k_bar.astype(dtype), nz.sigma_z()


def _broadcast_solve(ch: CognitiveChannel, alpha, mu, opts, extra_starts, nz=None):
    """The matrices and the solved (q_p, q_c) of the broadcast mu-sum under
    the sum budget ``p_p + alpha p_c``.  Deterministic starts: all power
    water-filled for r_p, all for r_c, and half each spread evenly."""
    mats = _broadcast_matrices(ch, alpha, nz)
    ga, _, h_c, _ = mats
    n = ga.shape[1]
    budget = ch.p_p + alpha * ch.p_c
    program = _two_block_program(ch, *mats)
    zero_n, iso = np.zeros((n, n)), (0.5 * budget / n) * np.eye(n)
    starts = [(waterfill(ga, budget, real_mode=ch.real_mode)[1], zero_n)]
    try:
        starts.append((zero_n, waterfill(h_c, budget, real_mode=ch.real_mode)[1]))
    except ZeroChannel:
        pass  # h_cc = 0 zeroes k: the cognitive receiver hears nothing
    starts += [(iso, iso), *extra_starts]
    theta = _solve(program, mu, [(np.arange(program.n_params), budget)], opts, starts)
    return mats, program.decode(theta)


@dataclass(frozen=True)
class BoundMuSumResult:
    value: float
    rate: RatePair
    q_p: np.ndarray
    sigma_cc: np.ndarray
    theta: np.ndarray
    alpha: float


@dataclass(frozen=True)
class BcMuSumResult:
    value: float
    rate: RatePair
    q_p: np.ndarray
    q_c: np.ndarray
    alpha: float


def _bound_corners(ch: CognitiveChannel, alpha: float, budget: float):
    """Deterministic corners: all power water-filled for r_p, all for r_c."""
    mats = composite_matrices(ch, alpha)
    n, m = ch.n_pt + ch.n_ct, ch.n_ct
    return [
        (waterfill(mats.g_alpha, budget, real_mode=ch.real_mode)[1], np.zeros((m, m))),
        (np.zeros((n, n)), (budget / m) * np.eye(m)),
        ((0.5 * budget / n) * np.eye(n), (0.5 * budget / m) * np.eye(m)),
    ]


def mu_sum_partial_outer(
    ch: CognitiveChannel,
    alpha: float,
    mu: float,
    opts: SolverSettings | None = None,
    extra_starts=(),
) -> BoundMuSumResult:
    """Maximize mu*r_p + r_c over the partial bound at a fixed alpha.

    ``extra_starts`` accepts DPC allocations of ``ch`` (mapped into the
    bound through :func:`scale_allocation`, which keeps their rate pair),
    (q_p, sigma_cc) pairs, or raw parameter vectors.
    """
    mu = check_mu(mu)
    budget = ch.p_p + alpha * ch.p_c
    scaled = scaled_channel(ch, alpha)
    program = _two_block_program(scaled, *_dpc_matrices(scaled))
    starts = _bound_corners(ch, alpha, budget)
    for a in extra_starts:
        starts.append(scale_allocation(a, alpha) if isinstance(a, DpcAllocation) else a)
    theta = _solve(program, mu, [(np.arange(program.n_params), budget)], opts, starts)
    q_p, s_cc = program.decode(theta)
    rate = partial_outer_rates(ch, alpha, q_p, s_cc)
    return BoundMuSumResult(
        value=rate.mu_sum(mu), rate=rate, q_p=q_p, sigma_cc=s_cc, theta=theta, alpha=alpha
    )


def partial_outer_max_rp(ch: CognitiveChannel, alpha: float) -> float:
    """Largest licensed rate inside the partial bound at a given alpha.

    With all weight on r_p the bound is a single point-to-point link with the
    scaled stacked matrix under the sum budget, solved by water-filling.
    """
    mats = composite_matrices(ch, alpha)
    capacity, _ = waterfill(mats.g_alpha, ch.p_p + alpha * ch.p_c, real_mode=ch.real_mode)
    return capacity


@dataclass(frozen=True)
class InfAlphaResult:
    alpha_star: float
    n_value: float
    rate: RatePair
    q_p: np.ndarray
    sigma_cc: np.ndarray
    non_unimodal: bool
    bracket: tuple[float, float]


def inf_alpha_partial_outer(
    ch: CognitiveChannel,
    mu: float,
    alpha_bracket: tuple[float, float] = (1e-3, 1e3),
    opts: SolverSettings | None = None,
    n_scan: int = 20,
) -> InfAlphaResult:
    """Minimize the partial-bound mu-sum over the alpha scaling.

    A coarse log-spaced pre-scan guards the unimodality assumption (two local
    minima fall back to the scan minimum and set ``non_unimodal``); the
    bracket widens tenfold, up to three times per side, whenever the minimum
    touches an edge, mirroring the divergence of the objective at 0 and
    infinity.
    """
    lo, hi = float(alpha_bracket[0]), float(alpha_bracket[1])
    if not (0.0 < lo < hi < math.inf):
        raise ValueError(f"invalid alpha bracket ({lo}, {hi})")
    opts = opts or SolverSettings()
    # scan evaluations run with a trimmed budget (warm-chained along alpha);
    # only the final solve at the minimizer uses the full settings
    inner_opts = replace(
        opts,
        starts=max(2, opts.starts // 3),
        max_iters=min(opts.max_iters, 400),
    )

    cache: dict[float, BoundMuSumResult] = {}
    warm: list[np.ndarray] = []

    def n_of_alpha(log_a: float) -> float:
        a = math.exp(log_a)
        if a not in cache:
            res = mu_sum_partial_outer(ch, a, mu, inner_opts, extra_starts=list(warm[-1:]))
            cache[a] = res
            warm.append(res.theta)
        return cache[a].value

    result: ScanResult | None = None
    for _ in range(4):
        xs = np.log(np.geomspace(lo, hi, n_scan))
        result = scan_then_golden(n_of_alpha, xs, tol=1e-6)
        if result.flat or result.edge == 0:
            break
        if result.edge < 0:
            lo /= 10.0
        else:
            hi *= 10.0
    else:
        raise BracketUnbounded(
            f"alpha minimizer kept touching the bracket edge; last bracket ({lo:g}, {hi:g})"
        )

    # scan_then_golden returns an evaluated point, so its solve is cached
    alpha_star = math.exp(result.x)
    best = mu_sum_partial_outer(ch, alpha_star, mu, opts, extra_starts=[cache[alpha_star].theta])
    return InfAlphaResult(
        alpha_star=alpha_star,
        n_value=best.value,
        rate=best.rate,
        q_p=best.q_p,
        sigma_cc=best.sigma_cc,
        non_unimodal=result.non_unimodal,
        bracket=(lo, hi),
    )


def bc_mu_sum(
    ch: CognitiveChannel,
    alpha: float,
    mu: float,
    opts: SolverSettings | None = None,
    extra_starts=(),
) -> BcMuSumResult:
    """Maximize mu*r_p + r_c over the licensed-first broadcast region with an
    unstructured cognitive covariance under the sum power budget.

    Requires mu >= 1: only there does the licensed-first ordering attain the
    broadcast-channel maximum.
    """
    mu = check_mu(mu, 1.0)
    mats, (q_p, q_c) = _broadcast_solve(ch, alpha, mu, opts, extra_starts)
    rate = _two_block_rates(ch, *mats, q_p, q_c)
    return BcMuSumResult(value=rate.mu_sum(mu), rate=rate, q_p=q_p, q_c=q_c, alpha=alpha)


def _embed_structured(ch: CognitiveChannel, sigma_cc: np.ndarray) -> np.ndarray:
    n = ch.n_pt + ch.n_ct
    q_c = np.zeros((n, n), dtype=np.asarray(sigma_cc).dtype)
    q_c[ch.n_pt :, ch.n_pt :] = sigma_cc
    return q_c


def condition_check(
    ch: CognitiveChannel,
    alpha: float,
    mu: float,
    tol: float,
    opts: SolverSettings | None = None,
) -> bool:
    """Tightness condition: the structured cognitive covariance loses nothing.

    Compares the partial-bound mu-sum against the broadcast-side mu-sum with
    unstructured covariance; equality within ``tol`` certifies that the
    partial bound meets the full coupled-noise bound for this (alpha, mu).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    mu = check_mu(mu, 1.0)
    opts = opts or SolverSettings()
    part = mu_sum_partial_outer(ch, alpha, mu, opts)
    embed = (part.q_p, _embed_structured(ch, part.sigma_cc))
    bc = bc_mu_sum(ch, alpha, mu, opts, extra_starts=[embed])
    return abs(part.value - bc.value) <= tol


def trace_outer_boundary(
    ch: CognitiveChannel,
    alpha: float,
    mu_grid,
    opts: SolverSettings | None = None,
    warm_boundary: RegionBoundary | None = None,
) -> RegionBoundary:
    """Trace the partial bound's boundary over a mu grid at one alpha.

    ``warm_boundary`` (typically the achievable boundary over the same grid)
    contributes mapped warm starts, which keeps the traced bound numerically
    above the region it contains even where the two curves touch.
    """
    opts = opts or SolverSettings()

    warm_by_mu = {}
    keys = ("sigma_p", "sigma_cp", "sigma_cc", "q")
    if warm_boundary is not None:
        for p in warm_boundary.points:
            w = p.witness
            if all(k in w for k in keys):
                warm_by_mu[float(p.mu)] = DpcAllocation(*(w[k] for k in keys))

    def solve(mu, warm):
        extra = [] if warm is None else [warm]
        if mu in warm_by_mu:
            extra.append(warm_by_mu[mu])
        res = mu_sum_partial_outer(ch, alpha, mu, opts, extra_starts=extra)
        return res.rate, {"q_p": res.q_p, "sigma_cc": res.sigma_cc}, res.theta

    points = cross_polish(*sweep_mu(mu_grid, solve, where=f", alpha={alpha:g}"))
    return RegionBoundary(
        points=points,
        metadata={
            "kind": "partial_outer",
            "alpha": alpha,
            "channel": ch.digest(),
            "settings": asdict(opts),
        },
    )


# ---------------------------------------------------------------------------
# full bound: mu-sum at fixed coupling, and the infimum over couplings
# ---------------------------------------------------------------------------


def mu_sum_outer(
    ch: CognitiveChannel,
    alpha: float,
    nz: NoiseCoupling,
    mu: float,
    opts: SolverSettings | None = None,
    extra_starts=(),
):
    """Maximize mu*r_p + r_c over the full bound at fixed (alpha, coupling)."""
    mu = check_mu(mu)
    _, covs = _broadcast_solve(ch, alpha, mu, opts, extra_starts, nz)
    alloc = OuterAllocation(*covs)
    rate = outer_rates(ch, alpha, nz, alloc)
    return rate.mu_sum(mu), rate, alloc


def min_outer_mu_sum_over_coupling(
    ch: CognitiveChannel,
    alpha: float,
    mu: float,
    opts: SolverSettings | None = None,
    margin: float = 1e-6,
    sweeps: int = 6,
    rel_tol: float = 1e-6,
):
    """Infimum over noise couplings of the full-bound mu-sum.

    Coordinate descent over the entries of q_z (golden section per entry,
    candidates clipped back whenever the coupled covariance would lose strict
    definiteness by less than ``margin``); each evaluation re-maximizes over
    the transmit covariances.  Returns (value, coupling).
    """
    opts = opts or SolverSettings()
    shape = (ch.n_pr, ch.n_cr)
    q = np.zeros(shape)

    def clipped(qc: np.ndarray) -> np.ndarray:
        top = float(np.linalg.svd(qc, compute_uv=False)[0]) if qc.size else 0.0
        limit = 1.0 - margin
        if top > limit:
            qc = qc * (limit / top)
        return qc

    def evaluate(qc: np.ndarray) -> float:
        value, _, _ = mu_sum_outer(ch, alpha, NoiseCoupling(qc), mu, opts)
        return value

    best = evaluate(q)
    for _ in range(sweeps):
        improved = False
        for i in range(shape[0]):
            for j in range(shape[1]):
                def per_entry(t: float) -> float:
                    cand = q.copy()
                    cand[i, j] = t
                    return evaluate(clipped(cand))

                t_star, val = golden_section(per_entry, -1.0 + margin, 1.0 - margin, tol=1e-3)
                if val < best - rel_tol * (1.0 + abs(best)):
                    cand = q.copy()
                    cand[i, j] = t_star
                    q = clipped(cand)
                    best = val
                    improved = True
        if not improved:
            break
    return best, NoiseCoupling(q)
