"""Exception hierarchy shared across the package.

The CLI maps ValidationError to exit code 2 (an input the analysis cannot use: most are
caught before any compute, some, such as a window in which a potential has not settled,
only once the numerics reach them) and NumericalError to exit code 3 (a solver failed to
meet its tolerance).
"""


class CylspecError(Exception):
    """Base class for all package errors."""


class ValidationError(CylspecError):
    """Input rejected before computation starts."""


class InsufficientDataError(ValidationError):
    """A transverse eigenvalue list is too short for the requested budget."""


class WindowError(ValidationError):
    """Truncation window too small: the potential has not settled at its ends."""


class InvalidWitnessError(ValidationError):
    """Variational witness parameters violate their defining inequality."""


class NumericalError(CylspecError):
    """A numerical routine failed to converge to its tolerance."""


class ResolutionError(NumericalError):
    """Band-edge location failed or cross-validation disagreed; lowering
    e_max leaves out the modes and bands that could not be resolved."""


__all__ = [name for name in globals() if name.endswith("Error")]
