"""Exception hierarchy shared across the package."""


class SphereGridError(Exception):
    """Base class for all spheregrid errors."""


class ParameterError(SphereGridError, ValueError):
    """Invalid parameter: bad integer pair, sequence, or option value."""


class DomainError(SphereGridError, ValueError):
    """Input outside the mathematical domain of an operation."""


class GeometryError(SphereGridError, ValueError):
    """Degenerate or invalid geometric input."""


class SolverError(SphereGridError, RuntimeError):
    """Area-coordinate solve missed its residual tolerance.

    Carries the worst final residual in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConsistencyError(SphereGridError, RuntimeError):
    """Internal cross-check failed (e.g. point count vs. closed form)."""
