"""Error types shared across the package."""


class InvalidInputError(ValueError):
    """A numerical input is unusable (non-finite entries, zero reference, ...)."""


class DataFormatError(InvalidInputError):
    """A data file does not parse (a cell that is not a number, ragged rows, no rows)."""


class DimensionMismatchError(ValueError):
    """Vector or matrix shapes are inconsistent."""


class ConfigurationError(ValueError):
    """A parameter violates a construction invariant."""


class IterationInvariantError(RuntimeError):
    """An internal invariant broke during a solver run (e.g. non-finite iterate)."""
