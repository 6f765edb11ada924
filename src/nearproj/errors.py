"""Exception types shared across the package."""


class NearprojError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(NearprojError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateMeshError(NearprojError):
    """A mesh operation would invert or collapse an element."""


class OutOfDomainError(NearprojError):
    """A point lies outside the mesh domain."""


class GeometryError(NearprojError):
    """Geometric bookkeeping (clipping, measures) failed a consistency check."""


class ConfigError(NearprojError, ValueError):
    """A study configuration file could not be parsed."""

    def __init__(self, message, key=None, line=None):
        super().__init__(message)
        self.key = key
        self.line = line
