"""Exception types shared across the package, and the saved-file reader."""


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
