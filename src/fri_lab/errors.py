"""Exception types shared across the library."""


class FriError(Exception):
    """Base class for all errors raised by this package."""


class OrderingViolation(FriError):
    """A required ordering between abscissas or fuzzy sets does not hold."""


class DomainError(FriError):
    """A numeric argument is outside its admissible range."""


class NotFlanked(FriError):
    """No rule precedes (or none succeeds) the observation in every dimension."""


class DimensionError(FriError):
    """A rule base, rule or observation is empty, dimensions do not match, or
    an operation defined for one input dimension received more."""


class ParseError(FriError):
    """A rule-base document could not be parsed.

    Carries ``line`` and ``column`` (1-based) when the position is known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(FriError):
    """A parsed rule-base document violates the format's invariants."""
