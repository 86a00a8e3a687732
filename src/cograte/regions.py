"""Rate pairs, traced region boundaries, and their CSV/JSON serialization."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedMu

SCHEMA_VERSION = 1


def check_mu(mu, minimum: float = 0.0) -> float:
    """Return the weight ``mu`` as a float if it is finite and >= ``minimum``;
    raise ValueError otherwise, or UnsupportedMu for a positive ``minimum``
    (the broadcast-side problems need mu >= 1)."""
    mu = float(mu)
    if not (math.isfinite(mu) and mu >= minimum):
        error = UnsupportedMu if minimum > 0.0 else ValueError
        raise error(f"mu must be finite and >= {minimum:g}, got {mu}")
    return mu


@dataclass(frozen=True)
class RatePair:
    """A (licensed, cognitive) rate pair in bits per channel use."""

    r_p: float
    r_c: float

    def __post_init__(self):
        for name in ("r_p", "r_c"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < -1e-12:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
            object.__setattr__(self, name, max(v, 0.0))

    def mu_sum(self, mu: float) -> float:
        return mu * self.r_p + self.r_c


@dataclass(frozen=True)
class BoundaryPoint:
    """One supported boundary point: the weight, the rates, and a witness.

    The witness is a dict of named covariance matrices achieving the rates.
    """

    mu: float
    rate: RatePair
    witness: dict


@dataclass
class RegionBoundary:
    """Boundary traced by a mu-sweep, sorted by mu descending.

    Along the list r_p is nonincreasing and r_c is nondecreasing (Pareto
    order).  ``metadata`` records the channel hash and solver settings.
    """

    points: list[BoundaryPoint]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = sorted(self.points, key=lambda p: -p.mu)
        tol = 1e-6
        for prev, cur in zip(self.points, self.points[1:]):
            if cur.rate.r_p > prev.rate.r_p + tol or cur.rate.r_c < prev.rate.r_c - tol:
                raise ValueError(
                    f"boundary is not Pareto ordered near mu={cur.mu:g}: "
                    f"({prev.rate.r_p:.6f},{prev.rate.r_c:.6f}) -> "
                    f"({cur.rate.r_p:.6f},{cur.rate.r_c:.6f})"
                )

    def to_csv(self) -> str:
        lines = ["mu,r_p,r_c"]
        for p in self.points:
            lines.append(f"{p.mu:.12g},{p.rate.r_p:.12g},{p.rate.r_c:.12g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA_VERSION,
            "metadata": self.metadata,
            "points": [
                {
                    "mu": p.mu,
                    "r_p": p.rate.r_p,
                    "r_c": p.rate.r_c,
                    "witness": {k: _matrix_list(v) for k, v in p.witness.items()},
                }
                for p in self.points
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _matrix_list(m):
    a = np.atleast_2d(np.asarray(m))
    if np.iscomplexobj(a):
        return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in a]
    return [[float(v) for v in row] for row in a]


def as_grid(mu, extra_starts=()):
    """``(mus, starts)`` of a weight or a 1-D grid of weights: the checked
    weights (:func:`check_mu`) as a list, and one sequence of extra starts
    per weight, which ``extra_starts`` is for a grid and holds for a scalar."""
    if np.ndim(mu) == 0:
        return [check_mu(mu)], [extra_starts]
    mus = [check_mu(m) for m in mu]
    starts = list(extra_starts) or [()] * len(mus)
    if not mus or len(starts) != len(mus):
        raise ValueError("a mu grid must be nonempty, with one sequence of extra starts per mu")
    return mus, starts


def cross_polish(mus, rates, witnesses):
    """Assign to every mu the best rate pair among all solved witnesses.

    The candidates come from the per-mu solves of one sweep; re-scoring every
    mu against the pooled witnesses removes dominated points (the boundary of
    a convex region is its upper envelope in mu-sum) and guarantees exact
    Pareto ordering of the final list.  Ties break toward larger r_p so the
    selection is deterministic.
    """
    chosen = []
    for mu in mus:
        best = None
        for rate, wit in zip(rates, witnesses):
            score = rate.mu_sum(mu)
            if (
                best is None
                or score > best[0] + 1e-12
                or (abs(score - best[0]) <= 1e-12 and rate.r_p > best[1].r_p + 1e-15)
            ):
                best = (score, rate, wit)
        chosen.append(BoundaryPoint(mu=float(mu), rate=best[1], witness=best[2]))
    return chosen


def write_atomic(path: str, content: str) -> None:
    """Write ``content`` to ``path`` via a temp file and rename.  The temp
    file is made with mode 0o666 through the umask, as ``open(path, "w")``
    makes a file, where ``tempfile.mkstemp`` would force 0o600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
