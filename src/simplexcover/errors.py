"""Exception types shared across the package."""


class SimplexCoverError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(SimplexCoverError, ValueError):
    """Point or row length disagrees with the ambient dimension."""


class DegenerateSimplexError(SimplexCoverError, ValueError):
    """Vertices are affinely dependent where a full-dimensional simplex is required."""


class DegeneratePointSetError(SimplexCoverError, ValueError):
    """The point set does not affinely span the ambient space."""


class SingularMatrixError(SimplexCoverError, ArithmeticError):
    """A linear solve hit a singular (or numerically singular) matrix."""


class EnumerationCapError(SimplexCoverError, RuntimeError):
    """Exhaustive enumeration would exceed the configured subset cap."""


class LPInternalError(SimplexCoverError, RuntimeError):
    """An exact dilation or LP optimum failed the certificate it holds by construction."""


class NumericalBreakdownError(SimplexCoverError, ArithmeticError):
    """Float-mode computation lost too much precision to certify a result."""


class TheoremViolationError(SimplexCoverError, RuntimeError):
    """An exactly-verified covering guarantee failed; treated as fatal."""


class InputFormatError(SimplexCoverError, ValueError):
    """Unparseable or inconsistent user input (CSV/JSON/flags)."""
