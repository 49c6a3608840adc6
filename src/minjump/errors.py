"""Exception hierarchy.

The CLI maps these onto exit codes: configuration-level problems (bad input
shape, invalid weights, non positive definite rule matrices, malformed config
files) exit with 2, numerical breakdowns with 3, and runtime failures such as
a diverging simulation with 1.
"""


class MinjumpError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(MinjumpError):
    """Inputs with inconsistent or non-square shapes."""


class NumericError(MinjumpError):
    """Non-finite data or a numerical breakdown inside a kernel."""


class FactorizationError(NumericError):
    """Cholesky factorization failed on a matrix required to be SPD."""


class ModelError(MinjumpError):
    """Inconsistent system specification (mode counts, block shapes, gains)."""


class CertificateError(MinjumpError):
    """Rule data that does not satisfy the certificate invariants."""


class ConfigError(MinjumpError):
    """Invalid job configuration, grid setup, or weight matrix."""


class CapacityError(ConfigError):
    """Problem exceeds the embedded solver's size cap (sdp.SCALAR_CAP)."""


class RecoveryError(MinjumpError):
    """Gain recovery hit a singular matrix: the solve lost the definiteness floor."""


class DivergenceError(MinjumpError):
    """Simulated state exceeded the divergence threshold."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time
