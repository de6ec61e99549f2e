"""Exception types shared across the toolkit.

ValidationError covers bad inputs (malformed files, out-of-range
parameters, violated preconditions); ComputationError covers numerical
failures (rank-deficient systems, non-converged solves, missing root
brackets). The CLI maps them to exit codes 1 and 2 respectively.
"""

import math


class ValidationError(ValueError):
    """Input or parameter failed validation."""


class ComputationError(RuntimeError):
    """A numerical routine could not produce a valid result."""


def require_finite(what: str, *values: float) -> None:
    """Raise ValidationError unless every value is finite: NaN compares
    false against every bound, so it slips past ``<= 0`` guards."""
    for value in values:
        if not math.isfinite(value):
            raise ValidationError(f"{what} must be finite")
