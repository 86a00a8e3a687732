"""Shared constrained-optimization machinery.

The rate-region solvers all reduce to maximizing a smooth objective over
vectors of Cholesky-factor parameters under per-group squared-norm budgets
(each group's squared norm is a covariance trace).  This module provides the
engine driving them: a multi-start projected gradient ascent run to a short
budget, on a fixed step ladder capped at the largest ball's diameter, which
finds each weighting's basin, and a Riemannian trust-region Newton polish,
which converges its winner.  It also provides the scalar minimizers (a scan
polished by Brent's root finder on the slope, and golden section for
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
    """Knobs of the solvers: random starts, ascent budget, stall tolerance, seed."""

    starts: int = 16
    max_iters: int = 20
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


def _finite(a, owners, where):
    """``a``; its first non-finite row raises :class:`SolverDiverged` naming its owner."""
    if not (ok := np.isfinite(a.reshape(len(owners), -1)).all(axis=1)).all():
        raise SolverDiverged(f"non-finite objective {where}", owner=int(owners[~ok][0]))
    return a


def certified_bar(upper, rel_tol: float, rows: int) -> np.ndarray:
    """``U − rel_tol·|U|`` per weighting of ``upper`` (default ``+inf``), with no inf − inf."""
    u = np.full(rows, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return u - rel_tol * np.minimum(np.abs(u), np.finfo(float).max)


def maximize_multistart(objective, n_params: int, project, settings: SolverSettings, weights,
                        scale: float = 1.0, extra_starts=((),), column_scale=None, upper=None,
                        random_starts=True):
    """Multi-start projected gradient ascent of one objective under several
    weightings at once; returns the best (values, thetas) of each weighting.
    Run to the short default budget of ``settings.max_iters``, it finds each
    weighting's basin, and :func:`newton_polish` converges the winner.

    ``objective`` maps a (batch, n_params) array to ``(values, gradient)``,
    two functions of ``w``, the row of ``weights`` of each parameter row's
    weighting: ``values(w)`` returns the (batch,) values, which must be
    finite on the whole parameter space, and ``gradient(w)`` their (batch,
    n_params) gradient.  ``project`` maps parameter batches onto the
    feasible set.  Each weighting starts from its own ``extra_starts`` and,
    unless ``random_starts`` is false, the same ``settings.starts`` seeded
    random draws.  ``column_scale`` (default all ones) holds a row ``c`` per
    weighting: its starts climb ``y -> objective(c ⊙ y)``, whose gradient is
    ``c ⊙`` the objective's, so weightings on differently scaled parameters
    share one projection; the returned thetas are the ``y``.

    All starts climb in lockstep, two batched objective calls an iteration:
    a gradient at each start ``θ``, and values at the projections of ``θ``
    plus the normalized gradient times the ladder ``_LADDER * step``.  A
    start moves to the best rung (the smallest of a tie) if that beats its
    value, and that rung, capped at ``2 * scale`` (the largest ball's
    diameter, ``scale`` being its radius), becomes the step; a miss shrinks
    the step fourfold.  A gain below ``rel_tol * (1 + |f|)`` is a stall.
    Three stalls in a row, a step underflow or a vanishing gradient retire
    the start, and every array drops its row.  No start sees another, so
    each weighting climbs bit for bit as alone where the objective rounds a
    row alike at every batch size (as ``LogDetProgram`` does); a non-finite
    value raises :class:`SolverDiverged` with its weighting's index as
    ``owner``.  ``upper`` (default ``+inf``) holds an upper value ``U`` per
    weighting: once a start reaches ``U − rel_tol * |U|``, its weighting's
    other starts retire, and it climbs on.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(settings.seed)))
    draws = [
        scale * (0.3 if i % 2 else 1.0) * rng.standard_normal(n_params)
        for i in range(settings.starts if random_starts else 0)
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

    def retire(done, run, th, val, *rest):
        thetas[run[done]], vals[run[done]] = th[done], val[done]
        return [a[~done] for a in (run, th, val, *rest)]

    thetas = project(np.asarray(starts, dtype=float))
    n_starts, k = thetas.shape
    vals = np.asarray(objective(cols * thetas)[0](weights[owner]), dtype=float)
    run, th, val, w, c = np.arange(n_starts), thetas, vals, weights[owner], cols
    _finite(vals, owner[run], "at a start point")
    bar = certified_bar(upper, settings.rel_tol, len(weights))[owner]
    step, stall = np.full(n_starts, 0.25 * scale), np.zeros(n_starts, dtype=int)
    n_cand, rows, done = len(_LADDER), (), np.zeros(n_starts, dtype=bool)

    for _ in range(settings.max_iters):
        if (hit := val >= bar).any():  # a certified weighting keeps only its best start
            lose = (owner[run, None] == owner[run[hit]]).any(axis=1)
            for m in set(owner[run[hit]].tolist()):
                lead = np.argmax(np.where(owner[run] == m, val, -np.inf))
                lose[lead], bar[lead] = False, np.inf
            done |= lose
        if done.any():
            run, th, val, step, stall, w, c, bar = retire(
                done, run, th, val, step, stall, w, c, bar)
            if not run.size:
                break
        grad = c * objective(c * th)[1](w)
        _finite(grad, owner[run], "during gradient evaluation")
        gnorm = np.sqrt((grad * grad).sum(axis=1))
        if (dead := gnorm < 1e-15).any():
            run, th, val, step, stall, w, c, bar, grad, gnorm = retire(
                dead, run, th, val, step, stall, w, c, bar, grad, gnorm)
            if not run.size:
                break
        if len(rows) != len(run):  # weights and column scales of the line search
            rows, w_cand, c_cand = np.arange(len(run)), w.repeat(n_cand, axis=0), c[:, None, :]
        ladders = _LADDER * step[:, None]
        cands = th[:, None, :] + ladders[:, :, None] * (grad / gnorm[:, None])[:, None, :]
        cands = project(cands.reshape(-1, k)).reshape(len(run), n_cand, k)
        cvals = objective((cands * c_cand).reshape(-1, k))[0](w_cand).reshape(len(run), n_cand)
        _finite(cvals, owner[run], "during line search")

        # each row moves to its best rung, the smallest of a tie, if that beats its value
        best = n_cand - 1 - cvals[:, ::-1].argmax(axis=1)
        top = cvals.max(axis=1)
        up = top > val
        slow = top - val < settings.rel_tol * (1.0 + np.abs(top))
        th, val = np.where(up[:, None], cands[rows, best], th), np.where(up, top, val)
        step = np.where(up, np.clip(ladders[rows, best], 1e-14, 2.0 * scale), 0.25 * step)
        stall = np.where(up, (stall + 1) * slow, stall)
        done = (stall >= 3) | (~up & (step < 1e-13 * scale))
    thetas[run], vals[run] = th, val

    winners = [np.flatnonzero(owner == m)[np.argmax(vals[owner == m])] for m in range(len(weights))]
    return vals[winners], thetas[winners]


#: :func:`newton_polish`'s step cap, difference half-width / ``scale`` and stop tolerance.
_NEWTON_STEPS, _HESSIAN_STEP, _GRADIENT_TOL = 30, 1e-5, 1e-12


def newton_polish(objective, groups, settings, weights, thetas, values, scale=1.0,
                  column_scale=None, upper=None):
    """Riemannian trust-region Newton polish (Absil, Baker & Gallivan, Found.
    Comput. Math. 2007) of a point ``y`` per weighting of
    :func:`maximize_multistart`'s objective, but those at their ``upper`` bar
    (:func:`certified_bar`), on the spheres of the balls ``groups`` that ``y``
    lies on, its gradient pointing out; returns (values, thetas).  The
    Hessian is a central difference of the gradient over ``±h e_i`` in one
    call, less each such ball's Weingarten term ``(y·∇f / b)·I``, projected
    onto the tangent space; the step is :func:`_more_sorensen`'s, retracted
    onto the spheres.  A step is kept if it raises the value, or if the value
    reads within rounding where the model's gain is below it (the higher
    reading stays, and the point stops), so no value falls.  A point stops at
    a gradient norm of ``_GRADIENT_TOL·(1 + |f|)``, or after ``_NEWTON_STEPS``
    steps.  A row's sums run along its own columns, so a weighting polishes
    bit for bit as alone where the objective rounds a row alike in any batch.
    """
    th, val = np.array(thetas, dtype=float), np.array(values, dtype=float)
    n, k = th.shape
    c = np.ones((n, k)) if column_scale is None else np.asarray(column_scale, dtype=float)
    h, eye = _HESSIAN_STEP * scale, np.eye(k)
    live = val < certified_bar(upper, settings.rel_tol, n)
    grad, hess = np.zeros((n, k)), np.zeros((n, k, k))
    fresh, radius = live.copy(), np.full(n, float(scale))

    def dot(a, b, idx):  # of each row, over the columns idx
        return (np.ascontiguousarray(a[:, idx]) * np.ascontiguousarray(b[:, idx])).sum(axis=1)

    def gradients(rows, at):
        return _finite(c[rows] * objective(c[rows] * at)[1](weights[rows]), rows, "in the polish")

    grad[live] = gradients(np.flatnonzero(live), th[live]) if live.any() else 0.0
    for _ in range(_NEWTON_STEPS):
        run = np.flatnonzero(live)
        y, g = th[run], grad[run]
        normals, bend = np.zeros((len(run), k, len(groups))), np.zeros((len(run), k))
        for j, (idx, b) in enumerate(groups):
            sq, radial = dot(y, y, idx), dot(y, g, idx)
            on = ((sq >= b * (1.0 - 1e-12)) & (radial > 0.0))[:, None]
            normals[:, idx, j] = np.where(on, y[:, idx] / np.sqrt(np.maximum(sq, b))[:, None], 0.0)
            bend[:, idx] = np.where(on, (radial / b)[:, None], 0.0)
        tangent = eye - normals @ normals.mT
        rg = (tangent @ g[:, :, None])[:, :, 0]
        more = np.sqrt(np.square(rg).sum(axis=1)) > _GRADIENT_TOL * (1.0 + np.abs(val[run]))
        live[run] = more
        if not more.any():
            break
        run, y, rg, tangent, bend = run[more], y[more], rg[more], tangent[more], bend[more]
        if (now := fresh[run]).any():  # Hessians at the points that moved, in one call
            at = (y[now][:, None, :] + np.vstack([h * eye, -h * eye])).reshape(-1, k)
            d = gradients(np.repeat(run[now], 2 * k), at).reshape(-1, 2, k, k)
            d = (d[:, 0] - d[:, 1]) / (2.0 * h)
            hess[run[now]], fresh[run] = 0.5 * (d + d.mT), False
        # -f's Riemannian Hessian on the tangent space; the normals sit above its spectrum
        a = tangent @ (bend[:, :, None] * eye - hess[run]) @ tangent
        a += (1.0 + k * np.abs(a).max(axis=(1, 2)))[:, None, None] * (eye - tangent)
        e, v = np.linalg.eigh(a)
        gt = -(v.mT @ rg[:, :, None])[:, :, 0]
        coef = _more_sorensen(e, gt, radius[run])
        model = -(gt * coef + 0.5 * e * coef * coef).sum(axis=1)
        step = (v @ coef[:, :, None])[:, :, 0]
        cand = y + step
        for idx, b in groups:
            cand[:, idx] *= np.sqrt(b / np.maximum(dot(cand, cand, idx), b))[:, None]
        values, gradient = objective(c[run] * cand)
        new, f = _finite(values(weights[run]), run, "in the polish"), val[run]
        blur = 4.0 * np.finfo(float).eps * (1.0 + np.abs(f))  # a value's rounding
        up = (new > f) | ((model <= blur) & (new >= f - blur))
        ratio = (new - f) / np.where(model > 0.0, model, np.inf)
        norm = np.sqrt(np.square(step).sum(axis=1))
        grow = np.where((ratio > 0.75) & (norm > 0.99 * radius[run]), 2.0, 1.0) * radius[run]
        radius[run] = np.where(ratio < 0.25, 0.25 * norm, grow)
        th[run[up]], val[run[up]], fresh[run[up]] = cand[up], np.maximum(new, f)[up], True
        grad[run[up]] = c[run[up]] * gradient(weights[run])[up] if up.any() else 0.0
        live[run] = model > blur
    return val, th


def _more_sorensen(e, g, radius):
    """Coefficients on the eigenvectors of a model Hessian with eigenvalues
    ``e`` (ascending, a row per point) of the step minimizing ``g·s + ½ Σ e
    s²`` over ``|s| ≤ radius`` (Moré & Sorensen, SIAM J. Sci. Stat. Comput.
    1983): ``−g / (e + λ)``, the least ``λ ≥ max(0, −e_min)`` that fits by
    Newton's method on ``1/|s(λ)|``, and in the hard case a move along the
    least eigenvector to the boundary."""
    low = np.maximum(0.0, -e[:, :1])
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(g == 0.0, 0.0, -g / (e + low))
    norm = np.sqrt(np.square(s).sum(axis=1))
    fits, far = norm <= radius, norm > radius
    hard = fits & (low[:, 0] > 0.0)
    s[hard, 0] += np.sqrt(radius[hard] ** 2 - norm[hard] ** 2)
    e, g, r = e[far], g[far], radius[far, None]
    lam = least = low[far] + 1e-12 * (1.0 + np.abs(e).max(axis=1, keepdims=True, initial=0.0))
    for _ in range(20 if far.any() else 0):
        t = -g / (e + lam)
        norm = np.sqrt(np.square(t).sum(axis=1, keepdims=True))
        slope = (t * t / (e + lam)).sum(axis=1, keepdims=True)
        lam = np.maximum(least, lam + (norm - r) / r * norm**2 / slope)
    s[far] = -g / (e + lam)
    return s


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
