"""Exception types shared across the package."""


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
