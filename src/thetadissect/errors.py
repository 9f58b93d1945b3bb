"""Exception types shared across the engine.

Everything the library raises deliberately derives from EngineError, so the
CLI can tell usage problems (ParseError and friends) apart from evaluation
problems (EvaluationError and friends) when choosing exit codes.
"""


class EngineError(Exception):
    """Base class for all errors raised on purpose by this package."""


class OrderMismatch(EngineError):
    """Two cyclotomic values (or series) of different orders were combined."""


class IncompatibleOrders(EngineError):
    """Embedding requested into an order that the source order does not divide."""


class OrderNotDivisibleBy4(EngineError):
    """Real/imaginary split needs i = zeta_L^(L/4), so 4 must divide L."""


class ValidityExceeded(EngineError):
    """A comparison was requested beyond a series' validity bound."""


class EvaluationError(EngineError):
    """Base class for errors raised while evaluating an expression."""


class NonConvergent(EvaluationError):
    """Theta/Pochhammer argument degrees admit infinitely many terms per degree."""


class NonMonomialArgument(EvaluationError):
    """A theta argument did not fold to a single scaled monomial."""


class NonInvertible(EvaluationError):
    """A negative power needed an inverse the coefficient domain does not supply."""


class ParseError(EngineError):
    """Syntax error with a source offset and the token kinds that were expected."""

    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = message
        if self.expected:
            detail += " (expected: %s)" % ", ".join(sorted(self.expected))
        super().__init__("%s at offset %d" % (detail, offset))


class ExponentNotInteger(ParseError):
    """'^' must be followed by a literal (optionally signed) integer."""


class MissingEquals(ParseError):
    """An identity needs exactly one top-level '='; none was found."""


class MultipleEquals(ParseError):
    """An identity needs exactly one top-level '='; several were found."""


class UnknownIdentityName(EngineError):
    """A requested catalog entry does not exist."""
