"""Exception types shared across the package."""


class MicrolaserError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MicrolaserError, ValueError):
    """Invalid configuration value or unparseable configuration file."""


class TruncationError(MicrolaserError):
    """Photon-number basis too small for the requested computation."""


class FitConvergenceError(MicrolaserError):
    """Nonlinear fit failed to converge; ``last_iterate`` holds (c0, tau_c)."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class NoFixedPointError(MicrolaserError):
    """Gain-loss balance has no root on the scanned range."""
