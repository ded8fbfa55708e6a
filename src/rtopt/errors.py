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


class FormatReader:
    """Cursor over the lines of a saved text file whose first line is the
    format tag: header(keyword) returns the words after the keyword on the
    next line, rows(n) the words of the next n lines. A file that is not
    UTF-8 text or carries another tag raises FormatError; inside a with
    block, the IndexError, ValueError or OverflowError of a short or garbled
    file becomes the one "truncated or malformed" FormatError."""

    def __init__(self, path, tag):
        try:
            with open(path, encoding="utf-8") as f:
                self.lines = f.read().splitlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not a {tag} text file") from exc
        if not self.lines or self.lines[0].strip() != tag:
            raise FormatError(f"{path}: expected a {tag} file")
        self.path, self.tag, self.pos = path, tag, 1

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, (IndexError, ValueError, OverflowError)):
            raise FormatError(
                f"{self.path}: truncated or malformed {self.tag} file") from exc

    def header(self, keyword):
        key, *words = self.lines[self.pos].split()
        if key != keyword:
            raise FormatError(
                f"{self.path}: expected '{keyword}' at line {self.pos + 1}")
        self.pos += 1
        return words

    def rows(self, n):
        if not 0 <= n <= len(self.lines) - self.pos:
            raise ValueError(f"{n} rows announced at line {self.pos}")
        self.pos += n
        return [line.split() for line in self.lines[self.pos - n:self.pos]]

    def at_end(self):
        return self.pos == len(self.lines)
