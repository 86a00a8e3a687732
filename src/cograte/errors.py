"""Exception types raised across the package.

Every error is a subclass of :class:`CograteError` so callers can catch the
whole family at once.  The CLI maps them onto exit codes: a
:class:`ConfigError` (bad input), like a ``ValueError`` or ``OSError``, exits
2 with ``error:``; every other error is a solver failure and exits 3 with
``solver error:``.
"""


class CograteError(Exception):
    """Base class for all cograte errors."""


class ConfigError(CograteError):
    """Base class of errors in the input: channel, alpha, mu, problem size."""


class ParseError(ConfigError):
    """Channel spec document is malformed (bad JSON, wrong types)."""


class DimensionMismatch(ConfigError):
    """Matrix shapes are inconsistent with the antenna counts."""


class NonPositivePower(ConfigError):
    """A power budget is zero, negative or non-finite."""


class InvalidAlpha(ConfigError):
    """Scaling parameter alpha is not a finite positive number."""


class NonPositiveDefinite(CograteError):
    """A matrix required to be positive definite has an eigenvalue <= tol."""


class SingularNoise(CograteError):
    """Noise covariance passed to the Monte-Carlo estimator is singular."""


class InfeasibleAllocation(CograteError):
    """An allocation violates a PSD or trace constraint; the message names it."""


class SolverDiverged(CograteError):
    """An optimizer produced non-finite iterates (bad settings, never silent);
    ``owner`` indexes the weighting whose ascent failed, if known."""

    def __init__(self, message: str, owner: int | None = None):
        super().__init__(message)
        self.owner = owner


class BracketUnbounded(CograteError):
    """The scalar minimizer kept touching the bracket edge after widening."""


class OracleTooLarge(ConfigError):
    """Brute-force oracle requested on a problem with too many free scalars."""


class ZeroChannel(ConfigError):
    """Water-filling requested on an all-zero channel matrix."""


class UnsupportedMu(ConfigError):
    """Operation requires mu >= 1 (broadcast-side checks)."""
