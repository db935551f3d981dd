"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """Parameter outside the admissible domain (e.g. t <= 0, Re(rho) <= 0)."""


class UnsupportedOrderError(ValueError):
    """Derivative / operator-power order beyond what the module supports."""


class SingularMatrixError(ValueError):
    """det(rho) == 0 where an inverse or a division by the determinant is required."""


class DegenerateParameterError(ValueError):
    """Parameters hit a removable-singularity locus (degenerate fundamental system etc.)."""


class NonConvergenceError(RuntimeError):
    """Quadrature ran out of its refinement budget.

    Carries the best available estimate so callers can inspect how far off we were.
    """

    def __init__(self, message, best_value=None, error_estimate=None):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate


class PrecisionWarning(UserWarning):
    """Result is dominated by cancellation; absolute accuracy is limited."""
