"""Exception hierarchy shared across the package."""


class MzkickError(Exception):
    """Base class for all mzkick errors."""


class ConstraintViolationError(MzkickError):
    """A domain invariant was violated (bad amplitudes, non-unit norm, ...)."""


class GridCoverageError(MzkickError):
    """The momentum grid is too narrow for the requested state or shift."""


class GridMismatchError(MzkickError):
    """Two pointer states live on different momentum grids."""


class ZeroOverlapError(MzkickError):
    """Post-selection onto an outcome with numerically zero probability."""


class ConfigError(MzkickError):
    """Scenario configuration failed validation."""
