"""Exception hierarchy shared across the package.

Two top-level branches matter to the CLI: ValidationError maps to exit
code 2 (bad input, caught before any heavy numerics), NumericalError
maps to exit code 3 (a solver failed to meet its tolerance).
"""


class CylspecError(Exception):
    """Base class for all package errors."""


class ValidationError(CylspecError):
    """Input rejected before computation starts."""


class InsufficientDataError(ValidationError):
    """A synthetic eigenvalue list is too short for the requested budget."""


class TopologyError(ValidationError):
    """Operation inconsistent with the boundary topology (e.g. the
    zero-mode branch requested for a simply connected cross-section)."""


class WindowError(ValidationError):
    """Truncation window too small: the potential has not settled to its
    asymptotic value at the ends."""


class InvalidWitnessError(ValidationError):
    """Variational witness parameters violate their defining inequality."""


class NumericalError(CylspecError):
    """A numerical routine failed to converge to its tolerance."""


class ResolutionError(NumericalError):
    """Band-edge location failed or cross-validation disagreed; lowering
    e_max leaves out the modes and bands that could not be resolved."""
