import numpy as np
import pytest

from cograte.channel import load_channel
from cograte.cli import bundled_channel_text
from cograte.linalg import psd_sqrt
from cograte.solvers import SolverSettings

#: Accepted shortfall in bits of a solver against a brute-force oracle.
ORACLE_GAP = 1e-2


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
