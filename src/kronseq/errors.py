"""Exception types shared across the package."""


class KronseqError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(KronseqError):
    """A quotient block was empty."""


class NonPositiveQuotient(KronseqError):
    """A partial quotient was < 1."""


class NotCoprime(KronseqError):
    """Arguments were required to be coprime but are not."""


class EvenModulus(KronseqError):
    """The lower argument of a Jacobi symbol must be odd."""


class EvenArgument(KronseqError):
    """An argument that must be an odd positive integer is not."""


class PrecisionExhausted(KronseqError):
    """A 2-adic valuation is indistinguishable at the working precision."""


class NotAperiodic(KronseqError):
    """A cascade was requested for a block whose symbol sequence is periodic."""


class WindowTooShort(KronseqError):
    """The sequence window is too short for the requested check."""


class OracleMismatch(KronseqError):
    """Empirical sequence behaviour contradicts the classification."""


class ParseError(KronseqError):
    """Malformed block notation; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
