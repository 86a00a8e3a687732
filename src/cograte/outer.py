"""Outer bounds on the capacity region: the partial bound, broadcast-side
mu-sums, the tightness condition, and the scalar minimization over the alpha
scaling, which roots the bound's slope in ``log alpha``: read off the closed
form past ``max(1, mu*)``, and off each solve's witness below it (no solve of
its own).

The paper's full bound lets both transmitters cooperate under the sum power
``p_p + alpha p_c`` and couples the receiver noises.  Its infimum over
couplings is the broadcast mu-sum (Vishwanath, Jindal & Goldsmith, IEEE T-IT
2003; Weingarten, Steinberg & Shamai, IEEE T-IT 2006), which
:func:`bc_mu_sum` solves.  The partial bound restricts the second user's
covariance to the cognitive block, which is enough for mu-sum comparisons
against the achievable region.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .achievable import (
    DpcAllocation,
    LogDetProgram,
    _budget_violation,
    _dpc_matrices,
    _require,
    _shape_violation,
    _solve,
    _two_block_program,
    dpc_rate_caps,
    scale_allocation,
)
from .channel import CognitiveChannel, composite_matrices, scaled_channel
from .errors import CograteError
from .linalg import DEFAULT_TOL, LN2, budget_tol, param_rows, psd_sqrt, range_basis, symmetrize
from .regions import RatePair, RegionBoundary, check_mu, cross_polish
from .solvers import (
    _SLOPE_STEP,
    SolverSettings,
    central_slope,
    log_alpha_scan,
    scan_then_golden,
    waterfill,
)

# perfbench/tracing.py patches these names on this module too
from .linalg import build_lower, encode_psd, log_det_id_plus  # noqa: F401
from .solvers import golden_section, maximize_multistart  # noqa: F401

DEFAULT_RESOLUTION = 400  # of the alpha sweep: the CLI's --resolution
DEFAULT_ALPHA_BRACKET = (1e-3, 1e3)  # of every alpha search: the CLI's --alpha-bracket


def scan_points(resolution: int) -> int:
    """Points of the alpha sweep's scan at ``resolution``, both edges included."""
    return resolution // 100 + 2


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
    q_p, sigma_cc = np.atleast_2d(q_p, sigma_cc)
    budget_tol(tol, 0.0)  # a bad tol raises, whatever the shapes
    budget, n, m = scaled.p_p + scaled.p_c, ch.n_pt + ch.n_ct, ch.n_ct
    _require(_shape_violation({"q_p": (q_p, (n, n)), "sigma_cc": (sigma_cc, (m, m))})
             or _budget_violation("sum", budget, tol, {"q_p": q_p, "sigma_cc": sigma_cc}))
    return dpc_rate_caps(scaled, DpcAllocation.from_net(q_p, sigma_cc))


# ---------------------------------------------------------------------------
# mu-sum solvers over the bound regions
# ---------------------------------------------------------------------------


def _broadcast_matrices(ch: CognitiveChannel, alpha: float):
    """Two-block matrices of the broadcast bound: q_p and q_c over the stacked
    transmit dimensions, both through ``g_alpha`` at the licensed receiver,
    and q_c through ``k`` at the cognitive one."""
    mats = composite_matrices(ch, alpha)
    dtype = float if ch.real_mode else complex
    ga = mats.g_alpha.astype(dtype)
    return ga, ga, mats.k.astype(dtype)


@dataclass(frozen=True)
class BoundMuSumResult:
    value: float
    rate: RatePair
    q_p: np.ndarray
    sigma_cc: np.ndarray
    theta: np.ndarray
    alpha: float
    roots: tuple  # Cholesky factors of (q_p, sigma_cc), which score the rates


@dataclass(frozen=True)
class BcMuSumResult:
    value: float
    rate: RatePair
    q_p: np.ndarray
    q_c: np.ndarray
    alpha: float
    gap_bits: float


def _bound_corners(ch: CognitiveChannel, alpha: float, budget: float):
    """Deterministic corners: all power water-filled for r_p, all for r_c."""
    mats = composite_matrices(ch, alpha)
    n, m = ch.n_pt + ch.n_ct, ch.n_ct
    return [
        (waterfill(mats.g_alpha, budget, real_mode=ch.real_mode)[1], np.zeros((m, m))),
        (np.zeros((n, n)), (budget / m) * np.eye(m)),
        ((0.5 * budget / n) * np.eye(n), (0.5 * budget / m) * np.eye(m)),
    ]


def _power_split_bound(ch: CognitiveChannel, alphas, mus) -> np.ndarray:
    """Closed-form upper value ``U`` of the partial bound's mu-sum per (alpha,
    mu).  Write ``g = g_alpha``, ``h = h_cp/√α``, ``h_c = h_cc/√α``, ``(Q0, Q1)
    = (q_p, sigma_cc)`` with ``tr Q0 + tr Q1 ≤ B = p_p + α p_c``, and ``C(g,
    b)`` for the water-filled capacity (:func:`partial_outer_max_rp`).

    1. ``r_p = log|I + g(Q0 + Q1')g†| − log|I + h Q1 h†|``, ``Q1'`` the stacked
       block holding ``Q1`` in its cognitive corner, so the first log-det is at
       most ``C(g, tr Q0 + tr Q1)``.  As ``h Q1 h† ⪰ 0``, ``r_p ≤ log|I + g Q0
       g†|``; and ``r_c = log|I + h_c Q1 h_c†|``.  So every mu-sum is at most
       one water-filling of ``B`` (Telatar, Eur. Trans. Telecom. 1999) over the
       squared singular values ``γ`` of ``g``, weighted ``w = mu``, and of
       ``h_c``, weighted 1: ``Σ w max(0, log2(ν w γ))``.
    2. For ``mu ≥ max(1, mu*)`` (``ch.corner_weight``), ``h_cc†h_cc ⪯ mu
       h_cp†h_cp``, so with ``X = Q1^{1/2}``, ``A = h_c†h_c`` and ``H = h†h``,
       ``log|I + XAX| ≤ log|I + mu XHX| ≤ mu log|I + XHX|``: ``r_c`` minus mu
       times the interference log-det is at most 0, and ``mu r_p + r_c ≤ mu
       C(g, B)``, the water-filling with cognitive weights 0 (the smaller, as
       it grows with its weights), which the licensed corner meets.
    3. The DPC region maps into each alpha's bound (:func:`scale_allocation`),
       so at such mu its maximum is ``mu min_α C(g_α, B(α))``, tight by Lagrange
       duality over its two budgets (Yu & Lan, IEEE T-SP 55(6), 2007).

    With the modes sorted as in :func:`waterfill`, the prefix levels ``(B + Σ
    1/γ) / Σ w`` fall while modes fill and rise after: ``ν`` is the least."""
    s_cc = np.linalg.svd(ch.h_cc, compute_uv=False)
    s_g = {a: np.linalg.svd(np.hstack([ch.h_pp, ch.h_cp / math.sqrt(a)]), compute_uv=False)
           for a in set(alphas)}  # g_alpha; composite_matrices builds it for the corners
    gain = np.array([np.concatenate([s_g[a], s_cc / math.sqrt(a)]) for a in alphas]) ** 2
    n_g = gain.shape[1] - len(s_cc)
    weight = np.array([[m] * n_g + [float(m < ch.corner_weight)] * len(s_cc) for m in mus])
    order = np.argsort(-weight * gain, axis=1)
    gain, weight = np.take_along_axis(gain, order, 1), np.take_along_axis(weight, order, 1)
    budget = ch.p_p + np.asarray(alphas)[:, None] * ch.p_c
    with np.errstate(divide="ignore", invalid="ignore"):  # modes with wγ = 0 read inf or nan
        nu = np.min((budget + np.cumsum(1.0 / gain, axis=1)) / np.cumsum(weight, axis=1), axis=1)
        return ch.rate_scale * (weight * np.fmax(np.log2(nu[:, None] * weight * gain), 0.0)).sum(1)


def partial_outer_max_rp(ch: CognitiveChannel, alpha: float) -> float:
    """Largest licensed rate inside the partial bound at ``alpha``: the
    water-filled capacity of ``g_alpha`` under the sum budget ``p_p + alpha p_c``."""
    budget = ch.p_p + alpha * ch.p_c
    return waterfill(composite_matrices(ch, alpha).g_alpha, budget, real_mode=ch.real_mode)[0]


def inf_alpha_max_rp(ch: CognitiveChannel, alpha_bracket=DEFAULT_ALPHA_BRACKET,
                     n_scan: int = scan_points(DEFAULT_RESOLUTION)):
    """The least :func:`partial_outer_max_rp` over alpha, the DPC region's largest
    licensed rate (:func:`_power_split_bound`, step 3), as :func:`scan_then_golden`
    finds it from ``n_scan`` log-spaced alphas over the bracket, to 1e-6 in ``log
    alpha`` as the solved sweep (its value is at an alpha it read, a bound): the one
    closed-form scan, kept on ``ch`` by ``(bracket, n_scan)`` for the achievable
    certificate, ``reproduce-paper`` and the sweep past ``max(1, mu*)``."""
    key = (tuple(float(a) for a in alpha_bracket), n_scan)
    if key not in ch._derived:  # a bad bracket raises here, and is never kept
        ch._derived[key] = scan_then_golden(
            central_slope(lambda x: partial_outer_max_rp(ch, math.exp(x))),
            log_alpha_scan(alpha_bracket, n_scan), tol=1e-6)
    return ch._derived[key]


def _licensed_corner_upper(ch: CognitiveChannel, mus) -> np.ndarray:
    """Upper values of the DPC mu-sums (:func:`_power_split_bound`, step 3):
    ``mu`` times :func:`inf_alpha_max_rp` where ``mu >= ch.corner_weight``, and
    ``+inf`` elsewhere or where that least fails."""
    corner = np.asarray(mus, dtype=float) >= ch.corner_weight
    try:
        rp = inf_alpha_max_rp(ch).value if corner.any() else math.inf
    except CograteError:  # such as BracketUnbounded, where h_cp = 0 lets the cap fall with alpha
        rp = math.inf
    return rp * np.where(corner, mus, math.inf)


def mu_sum_partial_outer(
    ch: CognitiveChannel,
    alpha,
    mu,
    opts: SolverSettings | None = None,
    extra_starts=(),
    *, _program=None,
):
    """Maximize mu*r_p + r_c over the partial bound at a fixed alpha.

    ``extra_starts`` holds ``(q_p, sigma_cc)`` pairs; any other start raises
    ValueError before the solve (:func:`~cograte.achievable._solve`).

    ``alpha`` and ``mu`` may each be a 1-D grid: two grids pair up entry by
    entry, and a scalar pairs with every entry of the other.  A grid takes
    one sequence of extra starts per (alpha, mu) weighting, or none; each
    weighting, a repeated one too, climbs from its alpha's corners and its
    own extra starts only.  All climb in one lockstep ascent into a list of
    the results each gets alone, as
    :func:`~cograte.achievable.mu_sum_achievable` solves a mu grid.  One
    program serves every alpha: the bound at alpha is the alpha = 1 program
    read at ``s ⊙ θ``, with ``s`` 1 on the licensed rows of the stacked
    block's Cholesky factor and ``1/sqrt(alpha)`` on its cognitive rows and
    on all of sigma_cc's factor, since ``[h_pp, h_cp/√α] L = [h_pp, h_cp]
    (D L)`` and ``D L`` is still lower-triangular.  Each weighting climbs
    ``φ = θ / sqrt(B)``, ``B = p_p + alpha p_c``, on the unit ball under the
    column scale ``sqrt(B) s``; :func:`~cograte.achievable._solve` checks it
    and places its starts there, and the winners are re-scored in one batch.
    ``_program``, the DPC program of ``ch``, lets an alpha sweep build it once.
    :func:`_power_split_bound` gives each weighting's ``upper`` value in
    :func:`maximize_multistart`.
    """
    mu = [mu] * len(alpha) if np.ndim(alpha) and not np.ndim(mu) else mu
    alphas = [float(a) for a in alpha] if np.ndim(alpha) else [float(alpha)] * np.size(mu)
    if len(alphas) != np.size(mu):
        raise ValueError(f"{len(alphas)} alphas cannot pair with {np.size(mu)} mus")
    extra = (list(extra_starts) or [()] * len(alphas)) if np.ndim(mu) else [extra_starts]
    if len(extra) != len(alphas):
        raise ValueError("a mu grid must be nonempty, with one sequence of extra starts per mu")
    program = _two_block_program(ch, *_dpc_matrices(ch)) if _program is None else _program
    licensed = param_rows(ch.n_pt + ch.n_ct, program.complex_mode) < ch.n_pt
    licensed = np.concatenate([licensed, np.zeros(program.n_params - len(licensed), bool)])
    budget = {a: ch.p_p + a * ch.p_c for a in alphas}
    corners = {a: _bound_corners(ch, a, b) for a, b in budget.items()}
    starts = [corners[a] + list(own) for a, own in zip(alphas, extra)]
    radius = [math.sqrt(budget[a]) for a in alphas]
    cols = np.array(radius)[:, None] * np.where(licensed, 1.0, 1.0 / np.sqrt(alphas)[:, None])
    where = [f", alpha={a:g}" for a in alphas]
    groups = [(np.arange(program.n_params), 1.0)]
    mus, phis = _solve(program, mu if np.ndim(mu) else [mu], groups, opts, starts, where, cols,
                       radius, lambda mus: _power_split_bound(ch, alphas, mus))
    thetas = phis * np.array(radius)[:, None]
    q_ps, s_ccs = program.decode(thetas)
    at = [f" (at mu={m:g}{w})" for m, w in zip(mus, where)]
    _require(_budget_violation("sum", np.array([budget[a] for a in alphas]), DEFAULT_TOL,
                               {"q_p": q_ps, "sigma_cc": s_ccs}, where=at))
    # the alpha = 1 factors at the points the ascent read score every rate
    rates = program.factor_rates(program.lower_factors(cols * phis))
    results = [
        BoundMuSumResult(rate.mu_sum(mu_i), rate, q_p, s_cc, theta, a, roots)
        for a, mu_i, rate, q_p, s_cc, theta, roots in zip(
            alphas, mus, rates, q_ps, s_ccs, thetas, zip(*program.lower_factors(thetas))
        )
    ]
    return results if np.ndim(mu) else results[0]


def _alpha_slope(program, ch: CognitiveChannel, alpha: float, mu: float, roots) -> float:
    """Slope in ``log alpha`` of the partial-bound mu-sum along the witness
    path: the factors ``roots`` of a witness at ``alpha``, scaled by
    ``sqrt(B(a) / B(alpha))`` with ``B(a) = p_p + a p_c``, spend the whole
    budget at every ``a``.  So the path lies below the bound and touches it
    at ``alpha``, and where both are smooth their slopes agree (Danskin's
    theorem).  Both points of the central difference in ``log alpha`` are
    re-scored in one stack, on the alpha = 1 matrices with the factors
    scaled by ``s`` (see :func:`mu_sum_partial_outer`) in ``ch``'s DPC ``program``; no solve."""
    a = np.array([[[math.exp(math.log(alpha) + h)]] for h in (_SLOPE_STEP, -_SLOPE_STEP)])
    c, s = np.sqrt((ch.p_p + a * ch.p_c) / (ch.p_p + alpha * ch.p_c)), 1.0 / np.sqrt(a)
    cognitive = np.arange(ch.n_pt + ch.n_ct)[:, None] >= ch.n_pt
    stacks = (c * np.where(cognitive, s, 1.0) * roots[0], c * s * roots[1])
    up, down = program.factor_rates(stacks)
    return (up.mu_sum(mu) - down.mu_sum(mu)) / (2.0 * _SLOPE_STEP)


@dataclass(frozen=True)
class InfAlphaResult:
    alpha_star: float
    n_value: float
    rate: RatePair
    q_p: np.ndarray
    sigma_cc: np.ndarray
    non_unimodal: bool
    bracket: tuple[float, float]
    evaluations: int  # alphas solved, the final one included; 1 past max(1, mu*)
    slope: float  # witness-path slope in log alpha at alpha_star; 0 at a smooth minimum


def inf_alpha_partial_outer(
    ch: CognitiveChannel,
    mu: float,
    alpha_bracket: tuple[float, float] = DEFAULT_ALPHA_BRACKET,
    opts: SolverSettings | None = None,
    n_scan: int = scan_points(DEFAULT_RESOLUTION),
) -> InfAlphaResult:
    """Minimize the partial-bound mu-sum over the alpha scaling.

    Each evaluation reads the bound at one alpha and its slope in ``log
    alpha``.  A log-spaced scan of ``n_scan`` points, both bracket edges
    included, brackets the minimum where the slope turns from negative to
    positive, and a root finder on the slope polishes it to 1e-6 in ``log
    alpha`` (:func:`scan_then_golden`).  The slope brackets from any two scan
    points, so the scan is coarse: its density only sets how finely a second
    minimum is looked for, whose turn sets ``non_unimodal``.  A minimum past
    an edge adds one alpha, a tenfold step past it, up to three times in all,
    as the objective diverges at 0 and infinity; ``bracket`` is the range
    scanned.

    From ``mu >= max(1, mu*)`` on (``ch.corner_weight``) the bound is ``mu``
    times the closed form :func:`partial_outer_max_rp`, and ``mu > 0`` moves no
    slope's sign: alpha*, ``non_unimodal`` and the bracket are those of
    :func:`inf_alpha_max_rp`'s scan over the same points, kept on ``ch``.
    Below that weight it solves the bound with a third of the starts (two at
    least) and reads the slope off the winner (:func:`_alpha_slope`); the
    scan's alphas share one lockstep call.  Either way one solve at alpha*,
    with all the starts and none taken from the scan, gives the reported
    value, rate, witness and slope, so they depend on alpha* alone.  Every
    solve is certified.
    """
    if n_scan < 2:
        raise ValueError(f"n_scan must be >= 2 (both bracket edges), got {n_scan}")
    xs = log_alpha_scan(alpha_bracket, n_scan)
    mu = check_mu(mu)
    lo, hi = float(alpha_bracket[0]), float(alpha_bracket[1])
    opts = opts or SolverSettings()
    cache: dict[float, BoundMuSumResult] = {}
    dpc = _two_block_program(ch, *_dpc_matrices(ch))

    def solve(alphas) -> None:
        new = [a for a in dict.fromkeys(alphas) if a not in cache]
        if new:
            inner = replace(opts, starts=max(2, opts.starts // 3))
            cache.update(zip(new, mu_sum_partial_outer(ch, new, mu, inner, _program=dpc)))

    def n_of_alpha(log_a: float) -> tuple[float, float]:
        a = math.exp(log_a)
        solve([a])
        return cache[a].value, _alpha_slope(dpc, ch, a, mu, cache[a].roots)

    if mu >= ch.corner_weight:
        result = inf_alpha_max_rp(ch, alpha_bracket, n_scan)
    else:
        solve([math.exp(x) for x in xs])
        result = scan_then_golden(n_of_alpha, xs, tol=1e-6)
    low, high = result.widened
    alpha_star = math.exp(result.x)
    best = mu_sum_partial_outer(ch, alpha_star, mu, opts, _program=dpc)
    return InfAlphaResult(
        alpha_star=alpha_star,
        n_value=best.value,
        rate=best.rate,
        q_p=best.q_p,
        sigma_cc=best.sigma_cc,
        non_unimodal=result.non_unimodal,
        bracket=(lo / 10.0**low, hi * 10.0**high),
        evaluations=len(cache) + 1,
        slope=_alpha_slope(dpc, ch, alpha_star, mu, best.roots),
    )


def _herm(m: np.ndarray) -> np.ndarray:
    return np.conj(m.T)


def _dual_mac(ch: CognitiveChannel, ga, k):
    """The MAC dual to the broadcast bound on ``(ga, ga, k)`` of
    ``_broadcast_matrices``, and the bases ``(u_p, u_c)`` of its blocks.

    Covariances ``P_p`` and ``P_c`` are heard through ``ga†`` and ``k†`` at
    one receiver that decodes the cognitive user first, so ``r_p = log2|I +
    A_p|`` and ``r_c = log2|I + A_p + A_c| - log2|I + A_p|`` with ``A_p =
    ga† P_p ga`` and ``A_c = k† P_c k``.  The program's blocks are ``u† P
    u`` on the range of each user's channel, spanned by its left singular
    vectors (one column at least): power off that range is heard nowhere and
    gets no gradient, and where a start put some there it stalled the
    ascent."""
    bases = [u if u.shape[1] else np.eye(len(u), 1) for u in map(range_basis, (ga, k))]
    g_r, k_r = (_herm(u) @ h for u, h in zip(bases, (ga, k)))
    program = LogDetProgram(
        not ch.real_mode,
        blocks=(len(g_r), len(k_r)),
        terms=[(_herm(g_r), 0), (_herm(k_r), 1)],
        rates=[((0,), ()), ((0, 1), (0,))],
        scale=ch.rate_scale,
        singular_values=True,
    )
    return program, bases


def _id_plus_gram(e: np.ndarray):
    """Eigenvectors and eigenvalues of ``I + e e†``, from the SVD of ``e``: the
    identity is added to the squared singular values rather than to ``e e†``,
    so it survives any power and no eigenvalue falls below one."""
    u, s, _ = np.linalg.svd(e)
    w = np.ones(len(u))
    w[: len(s)] += s**2
    return u, w


def _mac_to_bc(ga, k, root_p, root_c):
    """Factors ``(R_p, R_c)`` of the broadcast covariances ``q = R R†`` with
    the rates and the total power of the dual-MAC covariances ``P = root
    root†`` (Vishwanath, Jindal & Goldsmith, IEEE T-IT 2003).  A user with
    broadcast channel ``h``, noise plus interference ``A`` in the broadcast
    and ``B`` in the MAC gets ``q = B^{-1/2} F G† A^{1/2} P A^{1/2} G F†
    B^{-1/2}``, where ``B^{-1/2} h† A^{-1/2} = F Λ G†``.  The cognitive
    user, encoded last, goes first: ``A = I`` and ``B = I + ga† P_p ga``.
    The licensed user then has ``A = I + ga q_c ga†`` and ``B = I``.  Every
    power of ``A`` and ``B`` comes from :func:`_id_plus_gram` of a factor."""
    u, w = _id_plus_gram(_herm(ga) @ root_p)
    b_inv_root = (u * w**-0.5) @ _herm(u)
    f, _, g_h = np.linalg.svd(b_inv_root @ _herm(k), full_matrices=False)
    root_c = b_inv_root @ f @ g_h @ root_c
    u, w = _id_plus_gram(ga @ root_c)
    f, _, g_h = np.linalg.svd(_herm(ga) @ (u * w**-0.5) @ _herm(u), full_matrices=False)
    return f @ g_h @ (u * w**0.5) @ _herm(u) @ root_p, root_c


def _dual_gap(ch: CognitiveChannel, ga, k, mu, budget, root_p, root_c) -> float:
    """Frank-Wolfe bound (Jaggi, ICML 2013) on how far ``P = root root†``
    lies below the maximum of :func:`_dual_mac`'s concave mu-sum under the
    sum power ``budget``: ``budget * max(0, λmax(∇_p), λmax(∇_c)) - tr(∇_p
    P_p) - tr(∇_c P_c)``, with the gradients ``∇`` in the covariances."""

    def inverse_form(h, e):
        # h (I + e e†)⁻¹ h†, never forming the inverse itself
        u, w = _id_plus_gram(e)
        x = h @ u
        return (x / w) @ _herm(x)

    e_p = _herm(ga) @ root_p
    both = np.hstack([e_p, _herm(k) @ root_c])
    slope = ch.rate_scale / LN2
    grad_p = slope * ((mu - 1.0) * inverse_form(ga, e_p) + inverse_form(ga, both))
    grad_c = slope * inverse_form(k, both)
    top = max(0.0, *(float(np.linalg.eigvalsh(symmetrize(g))[-1]) for g in (grad_p, grad_c)))
    used = sum(np.real(np.trace(_herm(r) @ g @ r)) for g, r in ((grad_p, root_p), (grad_c, root_c)))
    return max(0.0, budget * top - float(used))


def bc_mu_sum(
    ch: CognitiveChannel,
    alpha: float,
    mu: float,
    opts: SolverSettings | None = None,
    extra_starts=(),
) -> BcMuSumResult:
    """Maximize mu*r_p + r_c over the licensed-first broadcast region with an
    unstructured cognitive covariance under the sum power budget.

    By MAC-BC duality (Vishwanath, Jindal & Goldsmith, IEEE T-IT 2003) the
    region is that of the dual MAC of :func:`_dual_mac` under the same sum
    power, whose mu-sum ``(mu-1) log|I + A_p| + log|I + A_p + A_c|`` has
    blocks only as large as the receive sides.  For mu >= 1 that program is
    concave and the licensed-first ordering attains the broadcast-channel
    maximum (Weingarten, Steinberg & Shamai, IEEE T-IT 2006); below 1 neither
    holds, so mu >= 1 is required.

    That program is concave, so it climbs from one start (``P_p``
    water-filled, ``P_c`` zero, no random draws) and the Newton polish
    reaches its maximum.  The dual winner maps back to ``(q_p, q_c)``
    through :func:`_mac_to_bc`.
    One two-block program's ``factor_rates`` on the broadcast matrices scores
    that witness's factors and the PSD roots of each ``extra_starts`` pair
    (checked before the solve); the best wins.  ``gap_bits``, :func:`_dual_gap`
    at the dual winner plus ``4·eps·(1 + |value|)`` for the value's rounding,
    makes ``value + gap_bits`` an upper value of the mu-sum.

    This mu-sum is also the infimum over noise couplings of the paper's full
    bound.  There the cognitive receiver also hears a genie copy of the
    licensed output, its noise coupled to the cognitive one, which can only
    add to the cognitive rate; over the least favourable couplings the
    bound's mu-sum comes down to the broadcast one (Vishwanath, Jindal &
    Goldsmith, IEEE T-IT 2003; Weingarten, Steinberg & Shamai, IEEE T-IT
    2006).
    """
    mu = check_mu(mu, 1.0)
    mats = _broadcast_matrices(ch, alpha)
    ga, _, k = mats
    budget, shape = ch.p_p + alpha * ch.p_c, (ch.n_pt + ch.n_ct,) * 2
    extra = [[np.atleast_2d(q) for q in pair] for pair in extra_starts]
    for q_p, q_c in extra:
        _require(_shape_violation({"q_p": (q_p, shape), "q_c": (q_c, shape)})
                 or _budget_violation("sum", budget, DEFAULT_TOL, {"q_p": q_p, "q_c": q_c}))
    program, (u_p, u_c) = _dual_mac(ch, ga, k)
    d_c = program.blocks[1][1]
    start = (waterfill(_herm(ga) @ u_p, budget, real_mode=ch.real_mode)[1], np.zeros((d_c, d_c)))
    groups = [(np.arange(program.n_params), budget)]
    _, (theta,) = _solve(program, [mu], groups, opts, [[start]], random_starts=False)
    low_p, low_c = program.lower_factors(theta)
    root_p, root_c = u_p @ low_p, u_c @ low_c
    roots = _mac_to_bc(ga, k, root_p, root_c)
    total = sum(np.linalg.norm(r) ** 2 for r in roots)
    if total > budget:  # the transform keeps the total power; its rounding may not
        roots = [r * math.sqrt(budget / total) for r in roots]
    scorer = _two_block_program(ch, *mats)
    scored = [(*scorer.factor_rates(roots), *(symmetrize(r @ _herm(r)) for r in roots))]
    scored += [(*scorer.factor_rates([psd_sqrt(q) for q in pair]), *pair) for pair in extra]
    rate, q_p, q_c = max(scored, key=lambda item: item[0].mu_sum(mu))
    value = rate.mu_sum(mu)
    blur = 4.0 * np.finfo(float).eps * (1.0 + abs(value))  # the value's rounding
    return BcMuSumResult(
        value=value,
        rate=rate,
        q_p=q_p,
        q_c=q_c,
        alpha=alpha,
        gap_bits=_dual_gap(ch, ga, k, mu, budget, root_p, root_c) + blur,
    )


def condition_check(
    ch: CognitiveChannel,
    alpha: float,
    mu: float,
    value: float,
    tol: float,
    opts: SolverSettings | None = None,
) -> bool:
    """Tightness condition: the structured cognitive covariance loses nothing.

    ``value`` is a partial-bound mu-sum at ``(alpha, mu)``, such as the alpha
    sweep's.  It is compared with the broadcast-side mu-sum with unstructured
    covariance (:func:`bc_mu_sum`, which reaches its maximum from its own
    start), which is the full coupled-noise bound's infimum over couplings;
    equality within ``tol + 1e-12 |value|`` (:func:`budget_tol`'s rounding
    allowance, as the two programs agree to about 1e-13 of the value)
    certifies that the partial bound meets that infimum for this (alpha, mu).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    mu = check_mu(mu, 1.0)
    return abs(value - bc_mu_sum(ch, alpha, mu, opts).value) <= budget_tol(tol, abs(value))


def trace_outer_boundary(
    ch: CognitiveChannel,
    alpha,
    mu_grid,
    opts: SolverSettings | None = None,
    warm_boundary: RegionBoundary | None = None,
) -> RegionBoundary | list[RegionBoundary]:
    """Trace the partial bound's boundary over a mu grid, as
    :func:`~cograte.achievable.trace_boundary` traces the region: one
    boundary for one ``alpha``, or a list of them, one per alpha, for a
    sequence.  Every (alpha, mu) weighting climbs in one lockstep, certified
    :func:`mu_sum_partial_outer` call, each as it would alone, and each
    alpha's winners are cross-polished into its curve.

    ``warm_boundary`` (an achievable boundary over the same grid) adds its
    witness at each mu to that mu's starts at every alpha, mapped there by
    :func:`scale_allocation` (which keeps its rate pair) into the pair
    ``(sigma_p_net, sigma_cc)``.  No command passes it: the Newton polish
    takes each weighting to the same stationary point from its own starts.
    """
    opts = opts or SolverSettings()

    keys = ("sigma_p", "sigma_cp", "sigma_cc", "q")
    warm = {
        float(p.mu): DpcAllocation(*(p.witness[k] for k in keys))
        for p in (warm_boundary.points if warm_boundary is not None else ())
        if all(k in p.witness for k in keys)
    }
    alphas = list(alpha) if np.ndim(alpha) else [alpha]
    mus = sorted(mu_grid, reverse=True)
    mapped = [[scale_allocation(warm[mu], a)] if mu in warm else [] for a in alphas for mu in mus]
    extra = [[(w.sigma_p_net, w.sigma_cc) for w in own] for own in mapped]
    results = mu_sum_partial_outer(ch, np.repeat(alphas, len(mus)), mus * len(alphas), opts, extra)
    boundaries = []
    for i, a in enumerate(alphas):
        own = results[i * len(mus) : (i + 1) * len(mus)]
        witnesses = [{"q_p": r.q_p, "sigma_cc": r.sigma_cc} for r in own]
        points = cross_polish(mus, [r.rate for r in own], witnesses)
        metadata = {"kind": "partial_outer", "alpha": a, "channel": ch.digest()}
        boundaries.append(RegionBoundary(points, {**metadata, "settings": asdict(opts)}))
    return boundaries if np.ndim(alpha) else boundaries[0]
