"""Exception types shared across the package, the count check of the option
types, and the saved-file reader."""

import numbers


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


def check_counts(**counts):
    """Refuse every count that is not an integer (a float, inf, a bool) with
    ConfigurationError; int and numpy integers pass."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{name} must be an integer; got {value!r}")


def read_format_lines(path, magic):
    """Lines of a saved text file whose first line must be the format tag magic.

    A file that is not UTF-8 text or carries another tag raises FormatError.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a {magic} text file") from exc
    if not lines or lines[0].strip() != magic:
        raise FormatError(f"{path}: expected a {magic} file")
    return lines
