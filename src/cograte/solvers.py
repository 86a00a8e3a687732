"""Shared constrained-optimization machinery.

The rate-region solvers all reduce to maximizing a smooth objective over
vectors of Cholesky-factor parameters under per-group squared-norm budgets
(each group's squared norm is a covariance trace).  This module provides the
multi-start projected-ascent engine driving them, the scalar minimizers (a
scan polished by Brent's root finder on the slope, and golden section for
functions known only by value), sum-power water-filling, and the -inf
sentinel used by the Lagrangian case analysis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BracketUnbounded, NonPositivePower, SolverDiverged, ZeroChannel
from .linalg import symmetrize


class _NegInf:
    """Distinguished sentinel ordered below every finite value.

    Comparison is allowed; arithmetic is a bug and raises immediately.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NEG_INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("cograte.NEG_INF")

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def _forbidden(self, *_args):
        raise TypeError("arithmetic with the -inf sentinel is forbidden; compare only")

    __add__ = __radd__ = __sub__ = __rsub__ = _forbidden
    __mul__ = __rmul__ = _forbidden
    __truediv__ = __rtruediv__ = _forbidden
    __neg__ = __pos__ = __abs__ = _forbidden


#: Sentinel returned by the Lagrangian reductions on infeasible allocations.
NEG_INF = _NegInf()


@dataclass(frozen=True)
class SolverSettings:
    """Knobs of the projected-ascent solvers."""

    starts: int = 16
    max_iters: int = 2000
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        for name, least in (("starts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)  # an integer as operator.index takes one, not a bool
            if isinstance(value, bool) or not hasattr(type(value), "__index__") or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        tol = self.rel_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
            raise ValueError(f"rel_tol must be a finite real number > 0, got {tol!r}")


def make_group_projection(groups):
    """Projection onto a product of parameter-group balls.

    ``groups`` is a sequence of (index_array, budget) pairs; each group is
    rescaled onto its ball when its squared norm exceeds the budget.  This is
    the exact Euclidean projection because the groups are disjoint.
    """
    groups = [(np.asarray(idx, dtype=int), float(b)) for idx, b in groups]
    keys = [slice(i[0], i[0] + i.size) if i.size and i[0] >= 0 and (np.diff(i) == 1).all() else i
            for i, _ in groups]

    def project(theta: np.ndarray) -> np.ndarray:
        theta = np.array(theta, dtype=float, copy=True)
        flat = theta.reshape(-1, theta.shape[-1])
        if np.abs(flat).max() > 1e150:
            # a sum of squares may pass the float range; such a row lies outside
            # its ball, so put it on the sphere in units of its largest entry
            for idx, budget in groups:
                with np.errstate(over="ignore"):
                    huge = np.ix_(np.isinf(np.sum(flat[:, idx] ** 2, axis=1)), idx)
                unit = flat[huge] / np.max(np.abs(flat[huge]), axis=1, keepdims=True)
                flat[huge] = unit * np.sqrt(budget / np.sum(unit**2, axis=1, keepdims=True))
        for key, (_, budget) in zip(keys, groups):
            # summed in a gathered copy's column order: a view's rounds otherwise
            sq = np.square(flat[:, key], order="F").sum(axis=1)
            flat[:, key] *= np.sqrt(budget / np.maximum(sq, budget))[:, None]
        return flat.reshape(theta.shape)

    return project


_LADDER = np.array([4.0, 1.0, 0.25, 0.0625])
#: Overflow guard on the step: the ladder's largest candidate stays finite.
_MAX_STEP = 1e300
#: Cap on the extrapolation weight ``t``: momentum coefficients stay at most 0.9.
_MAX_MOMENTUM = 10.0


def _momentum_table():
    """``t⁺``, ``(t − 1)/t⁺`` and the place of ``t⁺`` at each place of ``t``
    on its walk ``t⁺ = min(½ + √(¼ + t²), 10)`` from 1, which stays at 10."""
    t = [1.0]
    while t[-1] < _MAX_MOMENTUM:
        t.append(min(0.5 + math.sqrt(0.25 + t[-1] * t[-1]), _MAX_MOMENTUM))
    t, after = np.array(t), np.array(t[1:] + t[-1:])
    return after, (t - 1.0) / after, np.minimum(np.arange(1, len(t) + 1), len(t) - 1)


def maximize_multistart(
    objective,
    n_params: int,
    project,
    settings: SolverSettings,
    weights,
    scale: float = 1.0,
    extra_starts=((),),
    column_scale=None,
    upper=None,
):
    """Multi-start accelerated projected gradient ascent of one objective under
    several weightings at once; returns the best (values, thetas) of each weighting.

    ``objective`` maps a (batch, n_params) array to ``(values, gradient)``,
    two functions of ``w``, the row of ``weights`` of each parameter row's
    weighting: ``values(w)`` returns the (batch,) values, which must be
    finite on the whole parameter space, and ``gradient(w)`` their (batch,
    n_params) gradient.  ``project`` maps parameter batches onto the
    feasible set.  Each weighting starts from its own sequence of
    ``extra_starts`` and the same seeded random draws, as alone it would.
    ``column_scale`` (default all ones) holds a row ``c`` per weighting: its
    starts climb ``y -> objective(c ⊙ y)``, whose gradient is ``c ⊙`` the
    objective's, so weightings on differently scaled parameters share one
    projection; the returned thetas are the ``y``.

    All starts of all weightings climb in lockstep, so that one iteration
    makes two batched objective calls (the matrices are tiny; call overhead
    dominates): a gradient at each start's extrapolated point and values at
    all the line-search candidates.  A start extrapolates as in FISTA (Beck
    & Teboulle, SIAM J. Imaging Sci. 2009), ``y = θ + ((t − 1)/t⁺)(θ −
    θ_prev)`` with ``t⁺ = min((1 + √(1 + 4t²))/2, 10)``, and tries the
    projections of ``y`` plus the normalized gradient at ``y`` times the
    step ladder ``_LADDER * step``.  It moves to the best rung (the smallest
    of a tie), which becomes the step, if that beats its value, which so
    never falls.  A miss restarts the momentum (``t = 1``, ``θ_prev = θ``),
    the function-value restart of O'Donoghue & Candès (Found. Comput. Math.
    2015), or shrinks the step fourfold when ``t`` is 1.  A gain below
    ``rel_tol * (1 + |f|) * t⁺`` (momentum multiplies the gain per step by
    up to about ``t``) is a stall and restarts the momentum; three stalls in
    a row, a step underflow, or a vanishing gradient retire the start.  No
    start sees another, so each weighting climbs as it would alone, bit for
    bit where the objective rounds a row alike at every batch size (as
    :class:`~cograte.achievable.LogDetProgram` does); a non-finite value raises
    :class:`SolverDiverged` with the index of its weighting as ``owner``.
    The loop keeps only the running starts' rows, ``t`` as a place on
    :func:`_momentum_table`; in an iteration where starts retire, their
    thetas and values are written back and every array drops their rows.
    ``upper`` (default ``+inf``) holds an upper value ``U`` per weighting:
    once a start reaches ``U − rel_tol * |U|``, at the start values or after a
    line search, its weighting's other starts retire, and it climbs on.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(settings.seed)))
    draws = [
        scale * (0.3 if i % 2 else 1.0) * rng.standard_normal(n_params)
        for i in range(settings.starts)
    ]
    starts, owner = [], []
    for m, extra in enumerate(extra_starts):
        own = [np.asarray(t, dtype=float).reshape(-1) for t in extra]
        starts += own + draws
        owner += [m] * (len(own) + len(draws))
    if any(theta.size != n_params for theta in starts):
        raise ValueError("extra start has wrong length")
    owner = np.asarray(owner)
    cols = np.ones((len(weights), n_params)) if column_scale is None else column_scale
    cols = np.asarray(cols, dtype=float)[owner]

    def finite(a, run, where):
        if not np.isfinite(a).all():
            bad = ~np.isfinite(a.reshape(len(run), -1)).all(axis=1)
            raise SolverDiverged(f"non-finite objective {where}", owner=int(owner[run[bad][0]]))

    def retire(done, run, th, val, *rest):
        thetas[run[done]], vals[run[done]] = th[done], val[done]
        return [a[~done] for a in (run, th, val, *rest)]

    thetas = project(np.asarray(starts, dtype=float))
    n_starts, k = thetas.shape
    vals = np.asarray(objective(cols * thetas)[0](weights[owner]), dtype=float)
    run, th, val, w, c = np.arange(n_starts), thetas, vals, weights[owner], cols
    finite(vals, run, "at a start point")
    u = np.full(len(weights), np.inf) if upper is None else np.asarray(upper, dtype=float)
    bar = (u - settings.rel_tol * np.minimum(np.abs(u), np.finfo(float).max))[owner]  # no inf - inf
    moved = np.zeros_like(thetas)  # θ − θ_prev, zero after a restart
    step = np.full(n_starts, 0.25 * scale)
    stall, place = np.zeros(n_starts, dtype=int), np.zeros(n_starts, dtype=int)
    t_next, extrapolate, advance = _momentum_table()
    n_cand, rows, done = len(_LADDER), (), np.zeros(n_starts, dtype=bool)

    for _ in range(settings.max_iters):
        if (hit := val >= bar).any():  # a certified weighting keeps only its best start
            lose = (owner[run, None] == owner[run[hit]]).any(axis=1)
            for m in set(owner[run[hit]].tolist()):
                lead = np.argmax(np.where(owner[run] == m, val, -np.inf))
                lose[lead], bar[lead] = False, np.inf
            done |= lose
        if done.any():
            run, th, val, moved, step, stall, place, w, c, bar = retire(
                done, run, th, val, moved, step, stall, place, w, c, bar)
            if not run.size:
                break
        # unprojected: the benchmark's tracer reads a call after a projection as a line search
        y = th + extrapolate[place][:, None] * moved
        grad = c * objective(c * y)[1](w)
        finite(grad, run, "during gradient evaluation")
        gnorm = np.sqrt((grad * grad).sum(axis=1))
        if (dead := gnorm < 1e-15).any():
            run, th, val, moved, step, stall, place, w, c, bar, y, grad, gnorm = retire(
                dead, run, th, val, moved, step, stall, place, w, c, bar, y, grad, gnorm)
            if not run.size:
                break
        if len(rows) != len(run):  # weights and column scales of the line search
            rows, w_cand, c_cand = np.arange(len(run)), w.repeat(n_cand, axis=0), c[:, None, :]
        ladders = _LADDER * step[:, None]
        cands = y[:, None, :] + ladders[:, :, None] * (grad / gnorm[:, None])[:, None, :]
        cands = project(cands.reshape(-1, k)).reshape(len(run), n_cand, k)
        cvals = objective((cands * c_cand).reshape(-1, k))[0](w_cand).reshape(len(run), n_cand)
        finite(cvals, run, "during line search")

        # each row moves to its best rung, the smallest of a tie, if that beats
        # its value; a stall, or a miss under momentum, restarts the momentum
        best = n_cand - 1 - cvals[:, ::-1].argmax(axis=1)
        top = cvals.max(axis=1)
        up = top > val
        slow = top - val < settings.rel_tol * (1.0 + np.abs(top)) * t_next[place]
        new, keep = cands[rows, best], up & ~slow  # keep: the momentum
        moved = np.where(keep[:, None], new - th, 0.0)
        th, val = np.where(up[:, None], new, th), np.where(up, top, val)
        shrink = ~up & (place == 0)  # a miss without momentum shrinks the step
        rung = np.minimum(np.maximum(ladders[rows, best], 1e-14), _MAX_STEP)
        step = np.where(up, rung, np.where(shrink, 0.25 * step, step))
        stall, place = np.where(up, (stall + 1) * slow, stall), np.where(keep, advance[place], 0)
        done = (stall >= 3) | (shrink & (step < 1e-13 * scale))
    thetas[run], vals[run] = th, val

    winners = [np.flatnonzero(owner == m)[np.argmax(vals[owner == m])] for m in range(len(weights))]
    return vals[winners], thetas[winners]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: :func:`scan_then_golden` widens one tenfold alpha at a time, three times in all.
_WIDEN_STEP, _MAX_WIDENINGS = math.log(10.0), 3


def golden_section(f, lo: float, hi: float, tol: float = 1e-10, max_iters: int = 200):
    """Minimize a unimodal scalar function on [lo, hi]; returns (x, f(x))."""
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iters):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


@dataclass(frozen=True)
class ScanResult:
    x: float
    value: float
    non_unimodal: bool
    flat: bool
    widened: tuple[int, int]  # scan points added past the low and the high end


def scan_then_golden(f, xs, tol: float = 1e-10) -> ScanResult:
    """Minimize a function of ``log alpha`` from a coarse scan over ``xs``
    and a bracketed root of its slope.

    ``f(x)`` returns ``(value, slope)``.  A slope that goes from negative to
    non-negative between two scan points brackets a local minimum, however
    far apart they are, so a few points suffice; more scan points only look
    more finely for a second such change, which sets ``non_unimodal``.  A
    first slope >= 0 or a last slope <= 0 puts the minimum past that end, so
    the scan gains one point ``ln 10`` (a tenfold alpha) past it, the
    lower-valued end first when both qualify, and is read again; ``widened``
    counts the points added past each end, and after three in all
    :class:`BracketUnbounded` is raised.  The bracket whose scan values are
    lowest is then polished by :func:`_bracketed_root` on the slope to
    ``tol`` in ``x``.  The result is always the *evaluated* point of
    smallest value, so a caller that caches its evaluations finds it cached.

    The name is kept for the benchmark's tracer, which wraps it by name
    (``perfbench/tracing.py``); it is due for a rename with the next change
    to the benchmark.
    """
    xs = [float(x) for x in xs]
    seen: dict[float, float] = {}

    def slope(x: float) -> float:
        value, s = f(x)
        if not (math.isfinite(value) and math.isfinite(s)):
            raise SolverDiverged("non-finite value or slope during scalar search")
        seen[x] = float(value)
        return float(s)

    slopes = [slope(x) for x in xs]
    widened = [0, 0]
    while True:
        vals = [seen[x] for x in xs]
        if max(vals) - min(vals) < 1e-12:
            mid = xs[len(xs) // 2]
            return ScanResult(mid, seen[mid], False, True, tuple(widened))
        ends = [(vals[0], 0)] if slopes[0] >= 0.0 else []
        ends += [(vals[-1], 1)] if slopes[-1] <= 0.0 else []
        if not ends:
            break
        if sum(widened) == _MAX_WIDENINGS:
            raise BracketUnbounded("alpha minimizer kept touching the bracket edge; last bracket "
                                   f"({math.exp(xs[0]):g}, {math.exp(xs[-1]):g})")
        end = min(ends)[1]
        widened[end] += 1
        at, x = (len(xs), xs[-1] + _WIDEN_STEP) if end else (0, xs[0] - _WIDEN_STEP)
        xs.insert(at, x)
        slopes.insert(at, slope(x))
    # a first slope < 0 and a last > 0 change sign in between
    changes = [i for i in range(len(xs) - 1) if slopes[i] < 0.0 <= slopes[i + 1]]
    i = min(changes, key=lambda j: min(vals[j], vals[j + 1]))
    _bracketed_root(slope, xs[i], slopes[i], xs[i + 1], slopes[i + 1], tol)
    x = min(seen, key=seen.get)
    return ScanResult(x, seen[x], len(changes) > 1, False, tuple(widened))


def _bracketed_root(g, a: float, ga: float, b: float, gb: float, tol: float):
    """Brent's root finder (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) on ``[a, b]`` where ``ga`` and ``gb`` differ
    in sign: inverse quadratic or secant steps while they shrink the
    bracket fast enough, bisection otherwise.  Returns once the bracket is
    within ``tol``; every point it returns has been passed to ``g``."""
    x_pre, g_pre, x, g_x = a, ga, b, gb
    x_blk, g_blk, s_pre, s_cur = a, ga, b - a, b - a
    for _ in range(100):
        if g_pre * g_x < 0.0:
            x_blk, g_blk = x_pre, g_pre
            s_pre = s_cur = x - x_pre
        if abs(g_blk) < abs(g_x):
            x_pre, x, x_blk = x, x_blk, x
            g_pre, g_x, g_blk = g_x, g_blk, g_x
        delta = 0.5 * tol + 2.0 * np.finfo(float).eps * abs(x)
        s_bis = 0.5 * (x_blk - x)
        if g_x == 0.0 or abs(s_bis) < delta:
            break
        s_try = math.inf
        if abs(s_pre) > delta and abs(g_x) < abs(g_pre):
            if x_pre == x_blk:  # secant
                s_try = -g_x * (x - x_pre) / (g_x - g_pre)
            else:  # inverse quadratic
                d_pre = (g_pre - g_x) / (x_pre - x)
                d_blk = (g_blk - g_x) / (x_blk - x)
                s_try = -g_x * (g_blk * d_blk - g_pre * d_pre) / (d_blk * d_pre * (g_blk - g_pre))
        if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, g_pre = x, g_x
        x += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        g_x = g(x)
    return x


#: Half-width of the central differences of :func:`central_slope`.
_SLOPE_STEP = 1e-5


def log_alpha_scan(alpha_bracket, n: int) -> np.ndarray:
    """``n`` log-spaced values of ``log alpha`` over ``alpha_bracket``, both
    edges included; a bracket other than ``0 < lo < hi < inf`` raises."""
    lo, hi = (float(a) for a in alpha_bracket)
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"invalid alpha bracket ({lo}, {hi})")
    return np.log(np.geomspace(lo, hi, n))


def central_slope(f):
    """``x -> (f(x), slope)`` for :func:`scan_then_golden`, the slope a
    central difference of ``f`` over ``x ± 1e-5``: for a value cheap enough
    to take three times."""

    def value_and_slope(x: float):
        return f(x), (f(x + _SLOPE_STEP) - f(x - _SLOPE_STEP)) / (2.0 * _SLOPE_STEP)

    return value_and_slope


def waterfill(h: np.ndarray, p_total: float, real_mode: bool = False):
    """Capacity-achieving covariance of a point-to-point link under a trace cap.

    Maximizes log2|I + h S h†| over PSD S with Tr(S) <= p_total by pouring
    power over the squared singular values of ``h``.  The water level is
    exact: with the inverse gains sorted ascending, the first ``k`` of them
    share the level ``(p_total + Σ_{i≤k} inv_i) / k``, which falls while the
    modes fill and rises after, so the least is the one that fills.  Returns
    (capacity_bits, sigma); capacity carries the 1/2 real-signalling
    prefactor when ``real_mode``.

    Raises
    ------
    ZeroChannel
        If ``h`` is identically zero.
    """
    h = np.asarray(h)
    if h.ndim != 2:
        raise ValueError("h must be a 2-D matrix")
    if not np.any(h != 0):
        raise ZeroChannel("water-filling requires a nonzero channel matrix")
    p_total = float(p_total)
    if not math.isfinite(p_total) or p_total <= 0.0:
        raise NonPositivePower(f"p_total must be positive, got {p_total}")

    _, s, vh = np.linalg.svd(h, full_matrices=False)
    gains = s**2
    keep = gains > max(gains[0] * 1e-15, 0.0)
    gains = gains[keep]
    v = np.conj(vh[keep].T)

    inv = 1.0 / gains  # ascending, as the singular values descend
    level = np.min((p_total + np.cumsum(inv)) / np.arange(1, len(inv) + 1))
    powers = np.clip(level - inv, 0.0, None)
    total = float(np.sum(powers))
    if total > 0.0:
        powers *= p_total / total
    sigma = symmetrize((v * powers) @ np.conj(v.T))
    capacity = float(np.sum(np.log2(1.0 + gains * powers)))
    if real_mode:
        capacity *= 0.5
    return capacity, sigma
