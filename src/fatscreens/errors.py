"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input for an operation (bad graph, subset, path, weights...).

    The CLI maps these to exit code 1; anything else is a bug.
    """


class FormatError(DomainError):
    """Malformed serialized data; the message starts with its 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonConvergenceError(DomainError):
    """An iterative solver failed to reach its tolerance."""
