import importlib.util
import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from cograte.channel import CognitiveChannel, load_channel
from cograte.cli import bundled_channel_text
from cograte.linalg import psd_sqrt
from cograte.solvers import SolverSettings

#: Accepted shortfall in bits of a solver against a brute-force oracle.
ORACLE_GAP = 1e-2


@cache
def _benchmark_inputs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ladder_spec(n, seed=1):
    """The JSON document of the benchmark's complex ``n``-antenna channel at
    workload ``seed`` (``perfbench/inputs.py``'s ``mimo_channel``)."""
    return _benchmark_inputs().mimo_channel(n, seed)


def ladder(n, seed=1):
    """:func:`ladder_spec`'s channel, parsed."""
    return load_channel(json.dumps(ladder_spec(n, seed)))


@pytest.fixture(scope="session")
def sec7():
    """The bundled real-valued example channel (scalar transmit sides)."""
    return load_channel(bundled_channel_text())


@pytest.fixture(scope="session")
def fast():
    return SolverSettings(starts=6, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def draw(rng, shape, complex_mode):
    m = rng.standard_normal(shape)
    return m + 1j * rng.standard_normal(shape) if complex_mode else m


def random_channel(rng, complex_mode):
    """A channel with 1 or 2 antennas per terminal and standard normal
    entries, complex ones in ``complex_mode``, at p_p = 3 and p_c = 2."""
    n_pt, n_pr, n_ct, n_cr = rng.integers(1, 3, size=4)
    return CognitiveChannel(
        h_pp=draw(rng, (n_pr, n_pt), complex_mode),
        h_pc=draw(rng, (n_cr, n_pt), complex_mode),
        h_cp=draw(rng, (n_pr, n_ct), complex_mode),
        h_cc=draw(rng, (n_cr, n_ct), complex_mode),
        p_p=3.0,
        p_c=2.0,
        real_mode=not complex_mode,
    )


def ascent_rates(program, thetas):
    """(r_p, r_c) rows of the log-dets that ``program``'s ascent climbs, at
    parameter rows ``thetas``: ``slogdet``, or singular values."""
    out = program.scale * (program._log_dets(thetas)[0]() @ program._coef)
    return out[:, 0], out[:, 1]


def covariance_rates(program, *covariances):
    """``program``'s reported rate pair at one PSD covariance per block,
    scored at their PSD square roots."""
    return program.factor_rates([psd_sqrt(q) for q in covariances])[0]


def random_psd(rng, dim, trace=None):
    a = rng.standard_normal((dim, dim))
    m = a @ a.T
    if trace is not None:
        m *= trace / np.trace(m)
    return m


def riemannian_gradient_norms(objective, groups, weights, thetas, column_scale=None):
    """Riemannian gradient norm at each row of ``thetas`` (a point per row of
    ``weights``) of :func:`~cograte.solvers.maximize_multistart`'s column-scaled
    objective: on each group of ``groups`` whose sphere a point lies on, its
    gradient pointing out, the radial part of the gradient is taken away.  A
    loop per point and group, as the reference of the lockstep polish."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    c = np.ones_like(thetas) if column_scale is None else np.asarray(column_scale, dtype=float)
    grads = c * objective(c * thetas)[1](np.atleast_2d(weights))
    for theta, grad in zip(thetas, grads):
        for idx, budget in groups:
            y, g = theta[idx], grad[idx]
            if y @ y >= budget * (1.0 - 1e-12) and y @ g > 0.0:
                grad[idx] = g - (y @ g) / (y @ y) * y
    return np.linalg.norm(grads, axis=1)


def record_polish(monkeypatch):
    """A list that gets the arguments and the result of each call of the
    Newton polish of :func:`~cograte.achievable._solve`."""
    import cograte.achievable as achievable

    calls, polish = [], achievable.newton_polish

    def recorded(*args):
        calls.append({"args": args, "result": polish(*args)})
        return calls[-1]["result"]

    monkeypatch.setattr(achievable, "newton_polish", recorded)
    return calls


def polish_report(call):
    """Ascent values, polished values, Riemannian gradient norms of the
    polished points, and the rows whose weighting was certified before the
    polish, of one :func:`record_polish` record."""
    from cograte.solvers import certified_bar

    objective, groups, settings, weights, _, values, _, cols, upper = call["args"]
    polished, thetas = call["result"]
    norms = riemannian_gradient_norms(objective, groups, weights, thetas, cols)
    return values, polished, norms, values >= certified_bar(upper, settings.rel_tol, len(values))
