"""Exception types shared across the package, and the one reader of JSON documents with its integer check."""

import json
from contextlib import contextmanager


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


@contextmanager
def json_document(text: str, what: str):
    """The JSON object that text holds, for a block that maps its fields onto a constructor.

    Text that is not JSON raises "invalid <what> JSON: ..."; a top level that
    is not an object, or a KeyError, TypeError, AttributeError or ValueError
    in the block (a missing field, or one of the wrong JSON type), raises
    "malformed <what> document: ...". A ValidationError passes through.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep to decode
        raise ValidationError(f"invalid {what} JSON: {e}") from e
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"the top level is a {type(doc).__name__}, not an object")
        yield doc
    except ValidationError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise ValidationError(f"malformed {what} document: {e}") from e


def json_int(doc: dict, key: str) -> int:
    """doc[key] as an int if it is a whole number (2 or 2.0, not 2.7, "2" or true); else ValidationError."""
    value = doc[key]
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValidationError(f"{key} must be an integer, got {value!r}")
