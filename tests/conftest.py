import numpy as np
import pytest

from cograte.channel import load_channel
from cograte.cli import bundled_channel_text
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


def random_psd(rng, dim, trace=None):
    a = rng.standard_normal((dim, dim))
    m = a @ a.T
    if trace is not None:
        m *= trace / np.trace(m)
    return m
