"""Dirty-paper-coding achievable region: rate evaluation, feasibility,
mu-sum optimization and boundary tracing.

An allocation splits the cognitive power between helping the licensed
message (``sigma_cp``, correlated with the licensed codeword through ``q``)
and carrying the cognitive message (``sigma_cc``, precoded against the known
interference so the cognitive rate sees none of it).  The licensed receiver
treats the precoded part as noise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import CognitiveChannel, composite_matrices
from .errors import CograteError, InfeasibleAllocation, SolverDiverged
from .linalg import (
    DEFAULT_TOL,
    LN2,
    budget_tol,
    build_lower,
    encode_psd,
    log_det_id_plus,
    lower_product_map,
    param_len,
    param_rows,
    psd_sqrt,
    range_basis,
    symmetrize,
)
from .regions import RatePair, RegionBoundary, check_mu, cross_polish
from .solvers import SolverSettings, central_slope, make_group_projection, maximize_multistart
from .solvers import log_alpha_scan, newton_polish, scan_then_golden, waterfill


@dataclass(frozen=True)
class DpcAllocation:
    """Covariance split (sigma_p, sigma_cp, sigma_cc, q) of one DPC scheme.

    ``q`` is the cross-correlation block between the licensed codeword and
    the cognitive helping codeword; the stacked block matrix
    [[sigma_p, q], [q†, sigma_cp]] must be PSD and the traces must respect
    the two power budgets.
    """

    sigma_p: np.ndarray
    sigma_cp: np.ndarray
    sigma_cc: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        for name in ("sigma_p", "sigma_cp", "sigma_cc", "q"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name))))

    @property
    def sigma_p_net(self) -> np.ndarray:
        return np.block([[self.sigma_p, self.q], [self.q.conj().swapaxes(-1, -2), self.sigma_cp]])

    @classmethod
    def from_net(cls, net: np.ndarray, sigma_cc: np.ndarray) -> "DpcAllocation":
        """Inverse of ``sigma_p_net``: split the stacked block into the four
        blocks; the cognitive side has ``sigma_cc``'s dimension."""
        npt = net.shape[-1] - np.atleast_2d(sigma_cc).shape[-1]
        return cls(net[..., :npt, :npt], net[..., npt:, npt:], sigma_cc, net[..., :npt, npt:])


def _budget_violation(kind: str, budget, tol: float, traced: dict, psd=None, where=None):
    """Message naming the first violated constraint, or None: every matrix
    of ``traced`` and ``psd`` is finite, those of ``psd`` (default:
    ``traced``) are PSD and the traces of ``traced`` add up to at most the
    ``kind`` budget ``budget``, both within ``budget_tol(tol, budget)``.
    Stacks of ``k`` matrices, with ``k`` budgets or one, take one ``eigvalsh``
    each, and ``where[i]`` names the first row ``i`` to break a constraint."""
    slack, psd = budget_tol(tol, budget), traced if psd is None else psd
    stacks = {label: np.reshape(m, (-1, *np.shape(m)[-2:])) for label, m in (psd | traced).items()}
    where = where or [""] * len(next(iter(stacks.values())))
    for label, m in stacks.items():
        if not (finite := np.isfinite(m).all(axis=(1, 2))).all():
            return f"{label} has a non-finite entry{where[finite.argmin()]}"
        low = np.linalg.eigvalsh(symmetrize(m))[:, 0] if label in psd else np.zeros(1)
        if (bad := low < -slack).any():
            return f"{label} is not PSD (min eigenvalue {low[bad][0]:.3e}){where[bad.argmax()]}"
    total = np.real(sum((np.trace(stacks[name], axis1=1, axis2=2) for name in traced), np.zeros(1)))
    if (bad := total > budget + slack).any():
        i, label = bad.argmax(), "+".join(f"trace({name})" for name in traced)
        budget = np.broadcast_to(budget, bad.shape)[i]
        return f"{label} = {total[i]:.6g} exceeds {kind} budget {budget:g}{where[i]}"
    return None


def _shape_violation(shapes: dict):
    """Message naming the first matrix of ``{label: (matrix, shape)}`` of
    another shape (of its rows, in a stack), or None."""
    return next((f"{label} has shape {np.shape(m)}, expected {s}"
                 for label, (m, s) in shapes.items() if np.shape(m)[-2:] != s), None)


def _require(violation) -> None:
    """Raise InfeasibleAllocation with ``violation`` unless it is None."""
    if violation is not None:
        raise InfeasibleAllocation(violation)


def _feasibility_violation(ch: CognitiveChannel, a: DpcAllocation, tol: float, where=None):
    """Return a message naming the first violated constraint, or None; for
    an allocation of stacks, ``where`` names their rows (:func:`_budget_violation`)."""
    budget_tol(tol, 0.0)  # a bad tol raises, whatever the allocation
    n, m, cognitive = ch.n_pt, ch.n_ct, {"sigma_cp": a.sigma_cp, "sigma_cc": a.sigma_cc}
    return _shape_violation({"sigma_p": (a.sigma_p, (n, n)), "sigma_cp": (a.sigma_cp, (m, m)),
                             "sigma_cc": (a.sigma_cc, (m, m)), "q": (a.q, (n, m))}) or (
        _budget_violation("sum", ch.p_p + ch.p_c, tol, {},
                          {"stacked covariance block": a.sigma_p_net}, where)
        or _budget_violation("licensed", ch.p_p, tol, {"sigma_p": a.sigma_p}, {}, where)
        or _budget_violation("cognitive", ch.p_c, tol, cognitive, {"sigma_cc": a.sigma_cc}, where)
    )


def is_feasible(ch: CognitiveChannel, a: DpcAllocation, tol: float = DEFAULT_TOL) -> bool:
    """True iff the block-PSD and both trace constraints hold within tol."""
    return _feasibility_violation(ch, a, tol) is None


def dpc_rate_caps(ch: CognitiveChannel, a: DpcAllocation) -> RatePair:
    """Rate caps of an allocation, ignoring the power budgets.

    The Lagrangian case analysis evaluates allocations whose traces violate
    the budgets on purpose; only the PSD structure is required for the
    log-dets to make sense.  The DPC program scores its two blocks' PSD roots.
    """
    program = _two_block_program(ch, *_dpc_matrices(ch))
    return program.factor_rates([psd_sqrt(a.sigma_p_net), psd_sqrt(a.sigma_cc)])[0]


def dpc_rates(ch: CognitiveChannel, a: DpcAllocation, tol: float = DEFAULT_TOL) -> RatePair:
    """Maximal rate pair of the DPC scheme for one feasible allocation.

    The licensed rate is the log-det difference with the precoded cognitive
    signal acting as noise; the cognitive rate is interference-free.  Real
    mode halves both.
    """
    _require(_feasibility_violation(ch, a, tol))
    return dpc_rate_caps(ch, a)


def scale_allocation(a: DpcAllocation, alpha: float) -> DpcAllocation:
    """Map an allocation onto the alpha-scaled channel.

    (sigma_cp, sigma_cc, q) -> (alpha sigma_cp, alpha sigma_cc, sqrt(alpha) q)
    keeps the rate pair exactly invariant under ``scaled_channel``.
    """
    root = math.sqrt(alpha)
    return DpcAllocation(
        sigma_p=a.sigma_p,
        sigma_cp=alpha * a.sigma_cp,
        sigma_cc=alpha * a.sigma_cc,
        q=root * a.q,
    )


def partial_outer_max_rp(ch: CognitiveChannel, alpha: float) -> float:
    """Largest licensed rate inside the partial bound at ``alpha``: the
    water-filled capacity of ``g_alpha`` under the sum budget ``p_p + alpha p_c``."""
    budget = ch.p_p + alpha * ch.p_c
    return waterfill(composite_matrices(ch, alpha).g_alpha, budget, real_mode=ch.real_mode)[0]


def inf_alpha_max_rp(ch: CognitiveChannel, alpha_bracket=(1e-3, 1e3)):
    """The least :func:`partial_outer_max_rp` over alpha, the DPC region's largest
    licensed rate (``outer._power_split_bound``, step 3), as :func:`scan_then_golden`
    finds it from six log-spaced alphas over the bracket, to 1e-12 in ``log alpha``.
    The result is kept on ``ch`` per bracket: ``reproduce-paper`` reads it three times."""
    bracket = tuple(float(a) for a in alpha_bracket)
    if bracket not in ch._derived:
        ch._derived[bracket] = scan_then_golden(
            central_slope(lambda x: partial_outer_max_rp(ch, math.exp(x))),
            log_alpha_scan(bracket, 6), tol=1e-12)
    return ch._derived[bracket]


def _licensed_corner_upper(ch: CognitiveChannel, mus) -> np.ndarray:
    """Upper values of the DPC mu-sums (``outer._power_split_bound``, step 3):
    ``mu`` times :func:`inf_alpha_max_rp` where ``mu >= max(1, ch.licensed_weight)``, and
    ``+inf`` elsewhere or where that least fails."""
    corner = np.asarray(mus, dtype=float) >= max(1.0, ch.licensed_weight)
    try:
        rp = inf_alpha_max_rp(ch).value if corner.any() else math.inf
    except CograteError:  # such as BracketUnbounded, where h_cp = 0 lets the cap fall with alpha
        rp = math.inf
    return rp * np.where(corner, mus, math.inf)


# ---------------------------------------------------------------------------
# mu-sum optimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuSumResult:
    value: float
    rate: RatePair
    witness: DpcAllocation
    theta: np.ndarray


class LogDetProgram:
    """Batched ``mu*r_p + r_c`` over Cholesky-parameterized covariance blocks,
    with its analytic gradient.

    ``blocks`` are covariance sizes; each block is the ``L L†`` of a Cholesky
    vector laid out as :func:`build_lower`, and a parameter vector
    concatenates them in order.  ``terms`` are ``(H, block)``, meaning
    ``H Q_block H†`` over white noise; ``H`` carries any scaling of the
    channel and the whitening of a coloured noise.  ``rates`` holds ``r_p``
    and ``r_c`` as ``(plus, minus)`` over term indices, each rate being
    ``scale*(log2|I + sum plus| - log2|I + sum minus|)``; an empty side is 0.

    A term is the Gram ``F F†`` of ``F = H L``, so each log-det is
    ``log2|I + E E†|`` with ``E`` its terms' ``F`` side by side, taken on
    the range of their ``H`` (:func:`_on_range`) so that ``I`` survives any
    power.  ``E`` is linear in the parameters: one real matrix product of the
    whole batch with the stacked :func:`lower_product_map` of every term
    gives every ``E``.  The log-dets are padded to one shape (zero rows and
    columns in ``E``), so one ``slogdet`` call evaluates them all, and the
    gradient of ``log2|M|``, ``M = I + E E†``, with respect to ``E`` is
    ``2 M⁻¹ E / ln 2``.  On 1×1 log-dets, as on the paper's channel, ``M⁻¹
    E`` is ``E * (1 / M)``, which rounds as LAPACK's 1×1 solve does but skips
    its fixed cost per matrix, most of a gradient call there.  The values keep
    ``slogdet`` at every height, so the benchmark's count of it sees them all
    and no solve's rounding moves; reported rates come from :meth:`factor_rates`.

    With ``singular_values`` each log-det is instead ``Σ log2(1 + σ²)`` over
    the singular values of ``E``, and ``M⁻¹ E = U diag(σ / (1 + σ²)) V†``.
    That is slower, but ``I`` is never added to ``E E†``, so it survives any
    power even where ``E`` has a smaller rank than its height.
    """

    def __init__(self, complex_mode, blocks, terms, rates, scale, singular_values=False):
        self.complex_mode = cm = bool(complex_mode)
        self.singular_values = singular_values
        dtype = complex if cm else float
        self.blocks = []
        offset = 0
        for dim in blocks:
            k = param_len(dim, cm)
            self.blocks.append((offset, dim, k))
            offset += k
        self.n_params = offset
        logdets, coef = [], []
        for r, sides in enumerate(rates):
            for sign, indices in zip((1.0, -1.0), sides):
                if indices:
                    hs = _on_range([terms[t][0] for t in indices])
                    logdets.append([(h, terms[t][1]) for h, t in zip(hs, indices)])
                    coef.append(sign * np.eye(2)[r])
        self._coef, self.scale, self._terms = np.asarray(coef), scale, logdets
        height = max([1] + [len(h) for log_det in logdets for h, _ in log_det])
        width = max(sum(self.blocks[block][1] for _, block in log_det) for log_det in logdets)
        product = np.zeros((self.n_params, len(logdets), height, width), dtype=dtype)
        for i, log_det in enumerate(logdets):
            col = 0
            for h, block in log_det:
                offset, dim, k = self.blocks[block]
                w = lower_product_map(h, dim, cm)
                w = w.view(complex) if cm else w
                product[offset : offset + k, i, : len(h), col : col + dim] = w.reshape(k, -1, dim)
                col += dim
        self._eye = np.eye(height, dtype=dtype)
        self._shape = product.shape[1:]
        product = product.reshape(self.n_params, -1)
        self._product = product.view(float) if cm else product
        self._product_t = np.ascontiguousarray(self._product.T)

    def _factors(self, thetas: np.ndarray) -> np.ndarray:
        """``E`` of every log-det of parameter rows ``thetas``."""
        thetas = np.atleast_2d(thetas)
        e = _row_product(thetas, self._product)
        if self.complex_mode:
            e = e.view(complex)
        return e.reshape(len(thetas), *self._shape)

    def _log_dets(self, thetas: np.ndarray):
        """Two functions of parameter rows ``thetas``, built on the same
        matrices: one gives ``log2|M|`` of every log-det, ``M = I + E E†``,
        and one gives ``M⁻¹ E``; each computes only what it is asked for."""
        e = self._factors(thetas)
        if self.singular_values:
            u, s, vh = np.linalg.svd(e, full_matrices=False)
            return (
                lambda: np.sum(np.log1p(s**2), axis=-1) / LN2,
                lambda: (u * (s / (1.0 + s**2))[..., None, :]) @ vh,
            )
        m = e @ (np.conj(e.mT) if self.complex_mode else e.mT)
        m += self._eye
        solve = (lambda: e * (1.0 / m)) if self._shape[1] == 1 else (lambda: np.linalg.solve(m, e))
        return lambda: np.linalg.slogdet(m)[1] / LN2, solve

    def factor_rates(self, factors) -> list[RatePair]:
        """Rate pairs at ``q_i = R_i R_i†``: a list of one for a factor ``R_i``
        per block, of ``k`` for a ``(k, n, m)`` stack per block.  Each log-det
        is one ``log_det_id_plus`` of ``F F†``, ``F`` its on-range terms' ``H
        R`` side by side.  An exact factor keeps what the root of a rounded huge
        ``q_i`` loses, such as a beam that ``H`` hears almost nothing of."""
        fs = [np.concatenate([h @ factors[b] for h, b in terms], axis=-1) for terms in self._terms]
        log_dets = [log_det_id_plus(f @ np.conj(np.swapaxes(f, -1, -2))) for f in fs]
        pairs = self.scale * (np.atleast_2d(np.stack(log_dets, axis=-1)) @ self._coef)
        return [RatePair(r_p=max(p, 0.0), r_c=max(c, 0.0)) for p, c in pairs]

    def weights(self, mu) -> np.ndarray:
        """Log-det weights of ``mu*r_p + r_c``, a row per mu of a 1-D ``mu``."""
        mu = np.asarray(mu, dtype=float)[..., None]
        return self.scale * (mu * self._coef[:, 0] + self._coef[:, 1])

    def objective(self, thetas: np.ndarray):
        """What :func:`maximize_multistart` ascends: ``(values, gradient)`` at
        parameter rows ``thetas``, two functions on the same matrices of
        weights ``w`` from :meth:`weights` (a row each or one for all), which
        give the rows' weighted sums of log-dets and their gradients; a call
        pays only for what it reads."""
        log_dets, inverse_times_e = self._log_dets(thetas)

        def gradient(w: np.ndarray) -> np.ndarray:
            g = inverse_times_e() * ((2.0 / LN2) * w[..., None, None])
            g = g.reshape(len(g), -1)
            return _row_product(g.view(float) if self.complex_mode else g, self._product_t)

        return lambda w: (log_dets() * w).sum(axis=-1), gradient

    def encode(self, *matrices: np.ndarray) -> np.ndarray:
        """Parameter vector of one PSD matrix per block, or a row per matrix of
        one ``(k, n, n)`` stack per block (for starts)."""
        return np.concatenate([encode_psd(m, self.complex_mode) for m in matrices], axis=-1)

    def lower_factors(self, theta: np.ndarray) -> list[np.ndarray]:
        """Cholesky factors ``L`` of the block covariances of one parameter vector."""
        return [
            build_lower(theta[..., offset : offset + k], dim, self.complex_mode)
            for offset, dim, k in self.blocks
        ]

    def decode(self, theta: np.ndarray) -> list[np.ndarray]:
        """Hermitian PSD block covariances of one parameter vector."""
        return [
            symmetrize(low @ np.conj(np.swapaxes(low, -1, -2))) for low in self.lower_factors(theta)
        ]


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, a row rounded alike at every batch size for a C-contiguous
    ``b``: a lone row goes in twice, as BLAS's matrix-vector path rounds otherwise."""
    return (np.vstack([a, a]) @ b)[:1] if len(a) == 1 else a @ b


def _on_range(hs: list[np.ndarray]) -> list[np.ndarray]:
    """``hs`` as ``U† H`` on an orthonormal basis ``U`` of their joint range,
    or as they are when that range is their whole receive side."""
    u = range_basis(np.hstack(hs))
    return hs if u.shape[1] == len(u) else [np.conj(u.T) @ h for h in hs]


def _two_block_program(ch: CognitiveChannel, g, h_int, h_c) -> LogDetProgram:
    """Blocks ``Q0``, heard through ``g`` at the licensed receiver, and ``Q1``,
    interference there through ``h_int`` and heard through ``h_c`` at the
    cognitive one, all over white noise.  :func:`_dpc_matrices` gives the DPC
    region (the partial bound on ``scaled_channel(ch, alpha)``), and
    ``outer._broadcast_matrices`` the broadcast bound."""
    return LogDetProgram(
        not ch.real_mode,
        blocks=(g.shape[1], h_int.shape[1]),
        terms=[(g, 0), (h_int, 1), (h_c, 1)],
        rates=[((0, 1), (1,)), ((2,), ())],
        scale=ch.rate_scale,
    )


def _dpc_matrices(ch: CognitiveChannel):
    """Two-block matrices of the DPC region: the stacked block through
    ``[h_pp, h_cp]``; sigma_cc through ``h_cp`` and ``h_cc``."""
    return np.hstack([ch.h_pp, ch.h_cp]), ch.h_cp, ch.h_cc


def _solve(program, mus, groups, opts, starts, where=None, cols=None, radius=None, upper=None,
           random_starts=True):
    """Checked weights (:func:`check_mu`) and winning thetas of the program's
    mu-sums under the trace budgets ``groups`` (parameter indices, budget),
    for a nonempty sequence of weights ``mus``.  ``starts`` holds one sequence
    of starts per weight: tuples of a matrix per block, or raw parameter
    vectors.  Each distinct start object is encoded once, in one stacked call
    per block, then divided by ``radius[k]`` (default 1), the radius of
    weighting ``k``'s ball.  ``cols`` (column scales, a row per weighting),
    ``upper(mus)`` (upper values, asked for once the weights are checked) and
    ``random_starts`` go to :func:`maximize_multistart`, and its winners to
    :func:`newton_polish`.  Each weighting climbs from its own starts, as it
    would alone.  A divergence names its mu, then ``where[k]``."""
    mus = [check_mu(m) for m in mus]
    if not mus or len(starts) != len(mus):
        raise ValueError("a mu grid must be nonempty, with one sequence of starts per mu")
    where, radius = where or [""] * len(mus), radius or [1.0] * len(mus)
    unique = {id(i): i for own in starts for i in own}
    blocks = [i for i in unique.values() if isinstance(i, tuple)]
    stacks = iter(program.encode(*map(np.array, zip(*blocks))) if blocks else ())
    encoded = {key: next(stacks) if isinstance(i, tuple) else np.asarray(i, dtype=float)
               for key, i in unique.items()}
    opts, weights = opts or SolverSettings(), program.weights(mus)
    scale, upper = math.sqrt(max(budget for _, budget in groups)), upper(mus) if upper else None
    try:
        values, thetas = maximize_multistart(
            program.objective, program.n_params, make_group_projection(groups), opts, weights,
            scale=scale, column_scale=cols, upper=upper, random_starts=random_starts,
            extra_starts=[[encoded[id(i)] / r for i in own] for own, r in zip(starts, radius)])
        _, thetas = newton_polish(program.objective, groups, opts, weights, thetas, values, scale,
                                  cols, upper)
    except SolverDiverged as exc:
        if exc.owner is None:
            raise
        raise SolverDiverged(f"{exc} (at mu={mus[exc.owner]:g}{where[exc.owner]})") from exc
    return mus, thetas


def _corner_allocations(ch: CognitiveChannel):
    """Deterministic start candidates: power corners of the feasible set."""
    npt, nct = ch.n_pt, ch.n_ct
    zp = np.zeros((npt, npt))
    zc = np.zeros((nct, nct))
    zq = np.zeros((npt, nct))
    iso_p = (ch.p_p / npt) * np.eye(npt)
    iso_c = (ch.p_c / nct) * np.eye(nct)
    corners = [
        DpcAllocation(iso_p, zc, zc, zq),
        DpcAllocation(iso_p, iso_c, zc, zq),
        DpcAllocation(iso_p, zc, iso_c, zq),
        DpcAllocation(iso_p, 0.5 * iso_c, 0.5 * iso_c, zq),
        DpcAllocation(zp, zc, iso_c, zq),
    ]
    if npt == 1 and nct == 1:
        # full-correlation beamforming corners of the scalar block
        r = math.sqrt(ch.p_p * ch.p_c)
        for sign in (1.0, -1.0):
            corners.append(
                DpcAllocation(
                    np.array([[ch.p_p]]),
                    np.array([[ch.p_c]]),
                    zc,
                    np.array([[sign * r]]),
                )
            )
    return corners


def mu_sum_achievable(ch: CognitiveChannel, mu, opts: SolverSettings | None = None):
    """Maximize mu*r_p + r_c over feasible DPC allocations.

    Multi-start projected gradient ascent over Cholesky parameters of the
    stacked covariance block and sigma_cc, from the corner allocations and
    seeded random draws; block-PSD holds by construction and the two trace
    budgets are enforced by exact group projection.

    A 1-D grid ``mu`` is solved in one lockstep ascent into a list of the
    results each mu gets alone.  A weighting with an upper value from
    :func:`_licensed_corner_upper` ends its losing starts once it is met.
    """
    program = _two_block_program(ch, *_dpc_matrices(ch))
    licensed = np.flatnonzero(param_rows(ch.n_pt + ch.n_ct, program.complex_mode) < ch.n_pt)
    cognitive = np.setdiff1d(np.arange(program.n_params), licensed)
    groups = [(licensed, ch.p_p), (cognitive, ch.p_c)]
    corners = [(a.sigma_p_net, a.sigma_cc) for a in _corner_allocations(ch)]
    grid = list(mu) if np.ndim(mu) else [mu]
    mus, thetas = _solve(program, grid, groups, opts, [corners] * len(grid),
                         upper=lambda mus: _licensed_corner_upper(ch, mus))
    decoded = program.decode(thetas)
    stacked = DpcAllocation.from_net(*decoded)
    _require(_feasibility_violation(ch, stacked, DEFAULT_TOL, [f" (at mu={m:g})" for m in mus]))
    witnesses = [DpcAllocation.from_net(*blocks) for blocks in zip(*decoded)]
    rates = program.factor_rates(program.lower_factors(thetas))
    results = [
        MuSumResult(rate.mu_sum(mu_i), rate, witness, theta)
        for mu_i, rate, witness, theta in zip(mus, rates, witnesses, thetas)
    ]
    return results if np.ndim(mu) else results[0]


def trace_boundary(
    ch: CognitiveChannel,
    mu_grid,
    opts: SolverSettings | None = None,
) -> RegionBoundary:
    """Trace the achievable boundary over a grid of mu weights.

    Solves the whole grid, largest mu first, in one lockstep ascent, every
    mu from its own cold starts (:func:`mu_sum_achievable`), then rescores
    every mu against the pooled witnesses so the emitted points are exactly
    Pareto ordered (dominated solves never win).
    """
    opts = opts or SolverSettings()
    mus = sorted(mu_grid, reverse=True)
    results = mu_sum_achievable(ch, mus, opts)
    points = cross_polish(mus, [r.rate for r in results], [asdict(r.witness) for r in results])
    return RegionBoundary(
        points, {"kind": "achievable", "channel": ch.digest(), "settings": asdict(opts)}
    )
