"""Exception hierarchy for lndkit.

Every error raised by this package derives from LndError, so callers can
catch the whole family with one except clause.  Errors that carry a
mathematical witness (a term, a polynomial, a position) expose it as an
attribute rather than burying it in the message.
"""

from __future__ import annotations


class LndError(Exception):
    """Base class for all lndkit errors."""


class InputError(LndError, ValueError):
    """Malformed command-line input: a list, number, option combination
    or derivation file the front end cannot use.

    It is also a ValueError, so callers that catch ValueError keep
    working.
    """


class RingMismatchError(LndError):
    """Operands live in different rings."""


class UnknownVariableError(LndError):
    """A variable name is not declared in the ring."""


class ExponentOverflowError(LndError):
    """An exponent exceeded the configured safety cap."""


class NotDivisibleError(LndError):
    """Exact division failed.

    Attributes:
        witness: a term (monomial tuple) of the dividend that the divisor
            does not divide, when available.
    """

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


class ParseError(LndError):
    """Input text violates the polynomial grammar.

    Attributes:
        position: 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NilpotencyCapError(LndError):
    """Iterated application did not reach zero within the cap."""


class SliceError(LndError):
    """A claimed slice fails the slice condition."""


class NonInvariantCandidateError(LndError):
    """A candidate kernel element is not actually killed by the derivation.

    Attributes:
        witness: the nonzero image under the derivation.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness

