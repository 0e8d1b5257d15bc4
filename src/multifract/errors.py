"""Exception types shared across the package, and the integer check of JSON fields."""


class ValidationError(ValueError):
    """Raised when an input object violates its structural invariants."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver fails to reach its tolerance.

    Carries the last residual and, where tracked, the iteration count, so
    callers can report how far the iteration got, and the parameter s of the
    failing solve where the solver has one (None otherwise).
    """

    def __init__(self, message: str, residual: float, iterations: int | None = None,
                 parameter: float | None = None):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual
        self.iterations = iterations
        self.parameter = parameter


def json_int(doc: dict, key: str) -> int:
    """doc[key] as an int if it is a whole number (2 or 2.0, not 2.7, "2" or true); else ValidationError."""
    value = doc[key]
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValidationError(f"{key} must be an integer, got {value!r}")
