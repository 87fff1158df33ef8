"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(AlgebraError):
    """An operation was called with inputs that violate its contract."""


class UnsupportedRingError(AlgebraError):
    """The requested operation is not available over this ring."""


class ResourceLimitError(AlgebraError):
    """Input exceeds a fixed desk-scale bound.

    Raised instead of letting a symbolic computation run unbounded."""


class ParseError(AlgebraError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class InternalError(AlgebraError):
    """An invariant the package guarantees was found broken: a fault of the
    implementation, not of the input."""


class DocumentError(AlgebraError):
    """An input document is malformed or inconsistent."""
