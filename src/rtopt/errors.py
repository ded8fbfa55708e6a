"""Exception types shared across the package."""


class RtoptError(Exception):
    """Base class for all package errors."""


class ConfigurationError(RtoptError):
    """Invalid geometry, material, scenario or algorithm configuration."""


class SolverError(RtoptError):
    """A PDE solve failed: singular system, iteration cap or no energy decrease."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class UsageError(RtoptError):
    """An operation was called with inconsistent inputs (wrong table, wrong mesh)."""


class FormatError(RtoptError):
    """A persisted file has the wrong version string or a malformed layout."""
