"""Exception types shared across the package."""


class ClasspolyError(Exception):
    """Base class for errors raised by this package."""


class NonConvergenceError(ClasspolyError):
    """A theta series would need more than MAX_TERMS terms to reach its
    tail bound, and is refused before any term is summed; or the rr replay,
    at a point too near a cusp, would lose more bits than it adds."""


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
            f"{kind} residual {residual} exceeds threshold {threshold}"
        )


class CrossCheckError(ClasspolyError):
    """Two independent computations of the same quantity disagreed."""


class PowerCheckError(ClasspolyError):
    """A polynomial is not an exact power of its claimed squarefree part."""


class PoleError(ClasspolyError):
    """A function value is too large to be a finite special value."""
