"""Exception hierarchy shared across the library."""


class PadicOrderError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(PadicOrderError):
    """Cancellation consumed every tracked digit; the result is
    indistinguishable from zero at the current precision."""


class DivisionByZero(PadicOrderError):
    """Inversion of the zero element."""


class NotSquarefree(PadicOrderError):
    """An operation requiring a squarefree polynomial received one
    with a repeated factor."""


class ZeroRoot(PadicOrderError):
    """The polynomial has 0 as a root; it does not define a nonzero
    algebraic number, so the witness trichotomy does not apply."""


class MaxPrecisionExceeded(PadicOrderError):
    """A computation hit a precision or size cap of this library."""


class NonIntegralDensity(PadicOrderError):
    """Density coefficients are not p-integral on the region and
    cannot be normalized as requested."""


class DepthZero(PadicOrderError):
    """Subdivision depth must be positive."""


class NonUnitJacobian(PadicOrderError):
    """The map does not satisfy the unit-Jacobian sufficient condition
    required for the change-of-variables check."""


class ParseError(PadicOrderError):
    """Malformed textual input; carries a human-readable position hint."""
