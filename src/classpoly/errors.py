"""Exception types shared across the package."""

from mpmath import mp, mpf


def nstr(x, digits: int = 12) -> str:
    """x to the given significant digits, rounded to 128 bits first: mpmath's
    str of a mantissa past about 14,000 bits, far from 1, builds an integer
    past Python's 4,300-digit limit for str."""
    with mp.workprec(128):
        return mp.nstr(mpf(x), digits)

class ClasspolyError(Exception):
    """Base class for errors raised by this package."""


class NonConvergenceError(ClasspolyError):
    """A theta series lost more bits to cancellation than a reduced point
    allows."""


class PrecisionExhaustedError(ClasspolyError):
    """All precision escalations were consumed without certifying a result."""


class RoundingFailureError(ClasspolyError):
    """A coefficient too far from the nearest integer to round safely (kind
    "rounding"), or a polynomial not vanishing at its value (kind "value")."""

    def __init__(self, residual, threshold, kind="rounding"):
        self.residual = residual
        self.threshold = threshold
        self.kind = kind
        super().__init__(
            f"{kind} residual {nstr(residual, 5)} exceeds threshold {nstr(threshold, 5)}"
        )


class CrossCheckError(ClasspolyError):
    """Two independent computations of the same quantity disagreed."""


class PowerCheckError(ClasspolyError):
    """A polynomial is not an exact power of its claimed squarefree part."""


class PoleError(ClasspolyError):
    """A function value is too large to be a finite special value."""
