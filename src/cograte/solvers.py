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
from dataclasses import dataclass

import numpy as np

from .errors import NonPositivePower, SolverDiverged, ZeroChannel
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
        if self.starts <= 0 or self.max_iters <= 0 or self.rel_tol <= 0:
            raise ValueError("starts, max_iters and rel_tol must be positive")


def make_group_projection(groups):
    """Projection onto a product of parameter-group balls.

    ``groups`` is a sequence of (index_array, budget) pairs; each group is
    rescaled onto its ball when its squared norm exceeds the budget.  This is
    the exact Euclidean projection because the groups are disjoint.
    """
    groups = [(np.asarray(idx, dtype=int), float(b)) for idx, b in groups]

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
        for idx, budget in groups:
            rows = flat[:, idx]
            sq = np.sum(rows**2, axis=1)
            factor = np.ones_like(sq)
            over = sq > budget
            factor[over] = np.sqrt(budget / sq[over])
            flat[:, idx] = rows * factor[:, None]
        return flat.reshape(theta.shape)

    return project


_LADDER = np.array([4.0, 1.0, 0.25, 0.0625])
_MOMENTUM = np.array([2.0, 8.0, 32.0])
#: Overflow guard on the step: the ladder's largest candidate stays finite.
_MAX_STEP = 1e300


def maximize_multistart(
    objective,
    n_params: int,
    project,
    settings: SolverSettings,
    scale: float = 1.0,
    extra_starts=(),
):
    """Multi-start projected gradient ascent; returns the best (value, theta).

    ``objective`` maps a (batch, n_params) array to ``(values, gradient)``:
    a (batch,) value array, which must be finite on the whole parameter
    space, and a no-argument function returning the (batch, n_params)
    gradient of those values.  ``project`` maps parameter batches onto the
    feasible set.  ``extra_starts`` are deterministic warm starts evaluated
    alongside the seeded random ones.

    Every start climbs in lockstep so that one iteration makes two batched
    objective calls (the matrices are tiny; call overhead dominates): one at
    the active iterates, whose gradient is taken, and one at all their
    line-search candidates, whose gradient is not.  Each iteration
    line-searches along the gradient over a step ladder and also tries
    heavy-ball extrapolations along the recent trajectory; a start retires
    after three consecutive relative improvements below ``rel_tol`` or when
    its step underflows.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(settings.seed)))
    starts = [np.zeros(n_params)]
    for theta in extra_starts:
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != n_params:
            raise ValueError("extra start has wrong length")
        starts.append(theta)
    for i in range(settings.starts):
        radius = scale * (0.3 if i % 2 else 1.0)
        starts.append(radius * rng.standard_normal(n_params))

    thetas = project(np.asarray(starts, dtype=float))
    n_starts, k = thetas.shape
    vals = np.asarray(objective(thetas)[0], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise SolverDiverged("non-finite objective at a start point")

    step = np.full(n_starts, 0.25 * scale)
    stall = np.zeros(n_starts, dtype=int)
    prev = thetas.copy()  # first momentum candidates are no-ops
    active = np.ones(n_starts, dtype=bool)
    n_cand = len(_LADDER) + len(_MOMENTUM)

    for _ in range(settings.max_iters):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        th = thetas[idx]
        grad = np.asarray(objective(th)[1](), dtype=float)
        if not np.all(np.isfinite(grad)):
            raise SolverDiverged("non-finite objective during gradient evaluation")
        gnorm = np.linalg.norm(grad, axis=1)
        dead = gnorm < 1e-15
        if np.any(dead):
            active[idx[dead]] = False
            keep = ~dead
            idx, th, grad, gnorm = idx[keep], th[keep], grad[keep], gnorm[keep]
            if idx.size == 0:
                continue
        direction = grad / gnorm[:, None]
        ladders = _LADDER[None, :] * step[idx][:, None]
        cands = np.concatenate(
            [
                th[:, None, :] + ladders[:, :, None] * direction[:, None, :],
                th[:, None, :] + _MOMENTUM[None, :, None] * (th - prev[idx])[:, None, :],
            ],
            axis=1,
        )
        cands = project(cands.reshape(-1, k)).reshape(len(idx), n_cand, k)
        cvals = np.asarray(objective(cands.reshape(-1, k))[0], dtype=float).reshape(
            len(idx), n_cand
        )
        if not np.all(np.isfinite(cvals)):
            raise SolverDiverged("non-finite objective during line search")
        best = np.argmax(cvals, axis=1)
        rows = np.arange(len(idx))
        improved = cvals[rows, best] > vals[idx]
        for local, start in enumerate(idx):
            b = best[local]
            if improved[local]:
                gain = cvals[local, b] - vals[start]
                prev[start] = thetas[start]
                thetas[start] = cands[local, b]
                vals[start] = cvals[local, b]
                if b < len(_LADDER):
                    step[start] = min(max(ladders[local, b], 1e-14), _MAX_STEP)
                if gain < settings.rel_tol * (1.0 + abs(vals[start])):
                    stall[start] += 1
                    if stall[start] >= 3:
                        active[start] = False
                else:
                    stall[start] = 0
            else:
                step[start] *= 0.25
                if step[start] < 1e-13 * scale:
                    active[start] = False

    winner = int(np.argmax(vals))
    return float(vals[winner]), thetas[winner]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    edge: int  # -1 minimum past the low edge, +1 past the high edge, 0 interior
    flat: bool


def scan_then_golden(f, xs, tol: float = 1e-10) -> ScanResult:
    """Minimize a scalar function from a coarse scan over ``xs`` and a
    bracketed root of its slope.

    ``f(x)`` returns ``(value, slope)``.  A slope that goes from negative to
    non-negative between two scan points brackets a local minimum; more than
    one such change sets ``non_unimodal``.  A first slope >= 0 puts the
    minimum at or below the low edge (``edge = -1``), a last slope <= 0 at
    or above the high edge (``edge = +1``); neither is polished.  Otherwise
    the bracket whose scan values are lowest is polished by
    :func:`_bracketed_root` on the slope to ``tol`` in ``x``.  The result is
    always the *evaluated* point of smallest value, so a caller that caches
    its evaluations finds it cached.

    The name is kept for the benchmark's tracer, which wraps it by name
    (``perfbench/tracing.py``); it is due for a rename with the next change
    to the benchmark.
    """
    xs = np.asarray(xs, dtype=float)
    seen: dict[float, float] = {}

    def slope(x: float) -> float:
        value, s = f(x)
        if not (math.isfinite(value) and math.isfinite(s)):
            raise SolverDiverged("non-finite value or slope during scalar search")
        seen[x] = float(value)
        return float(s)

    slopes = [slope(float(x)) for x in xs]
    vals = [seen[float(x)] for x in xs]

    def result(non_unimodal: bool, edge: int, flat: bool = False) -> ScanResult:
        x = min(seen, key=seen.get)
        return ScanResult(x, seen[x], non_unimodal, edge, flat)

    if max(vals) - min(vals) < 1e-12:
        mid = float(xs[len(xs) // 2])
        return ScanResult(mid, seen[mid], False, 0, True)
    changes = [i for i in range(len(xs) - 1) if slopes[i] < 0.0 <= slopes[i + 1]]
    edges = [(vals[0], -1)] if slopes[0] >= 0.0 else []
    edges += [(vals[-1], 1)] if slopes[-1] <= 0.0 else []
    if edges or not changes:
        return result(len(changes) > 1, min(edges)[1] if edges else 0)
    i = min(changes, key=lambda j: min(vals[j], vals[j + 1]))
    _bracketed_root(slope, float(xs[i]), slopes[i], float(xs[i + 1]), slopes[i + 1], tol)
    return result(len(changes) > 1, 0)


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


def central_slope(f):
    """``x -> (f(x), slope)`` for :func:`scan_then_golden`, the slope a
    central difference of ``f`` over ``x ± 1e-5``: for a value cheap enough
    to take three times."""

    def value_and_slope(x: float):
        return f(x), (f(x + _SLOPE_STEP) - f(x - _SLOPE_STEP)) / (2.0 * _SLOPE_STEP)

    return value_and_slope


def waterfill(h: np.ndarray, p_total: float, real_mode: bool = False, tol: float = 1e-12):
    """Capacity-achieving covariance of a point-to-point link under a trace cap.

    Maximizes log2|I + h S h†| over PSD S with Tr(S) <= p_total by pouring
    power over the squared singular values of ``h``; the dual water level is
    found by bisection.  Returns (capacity_bits, sigma); capacity carries the
    1/2 real-signalling prefactor when ``real_mode``.

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

    inv = 1.0 / gains
    lo, hi = 0.0, p_total + float(np.max(inv))
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if float(np.sum(np.clip(mid - inv, 0.0, None))) >= p_total:
            hi = mid
        else:
            lo = mid
    level = 0.5 * (lo + hi)
    powers = np.clip(level - inv, 0.0, None)
    total = float(np.sum(powers))
    if total > 0.0:
        powers *= p_total / total
    sigma = symmetrize((v * powers) @ np.conj(v.T))
    capacity = float(np.sum(np.log2(1.0 + gains * powers)))
    if real_mode:
        capacity *= 0.5
    return capacity, sigma
