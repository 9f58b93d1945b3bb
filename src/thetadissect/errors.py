"""Exception types shared across the engine.

Everything the library raises deliberately derives from EngineError. The CLI
exits 2 on a UsageError (a ParseError, an unknown catalog name, a bad option
value) and 3 on any other EngineError, naming its leaf class in the message.
A class exists only where a caller or a CLI line tells it apart, and each
order rule of the field is raised by one check: check_orders and
check_divides.
"""


class EngineError(Exception):
    """Base class for all errors raised on purpose by this package."""


def describe(error: EngineError) -> str:
    """The error as `Type: message`, naming its leaf class: the one spelling
    of an evaluation error, in a report and on the CLI's stderr."""
    return "%s: %s" % (type(error).__name__, error)


class OrderMismatch(EngineError):
    """Two cyclotomic values (or series) of different orders were combined."""


def check_orders(what: str, first: int, second: int) -> None:
    """Raise OrderMismatch, naming `what` and both orders, unless they agree:
    the one check of the rule that two operands share one cyclotomic order."""
    if first != second:
        raise OrderMismatch("%s orders differ: %d vs %d" % (what, first, second))


class IncompatibleOrders(EngineError):
    """A root of unity of order m met a working order L that m does not divide:
    zeta(m, e) folded at order L, CycloNum.embed into L, or a Re/Im split,
    which needs i, the root of order 4, at order L."""


def check_divides(m: int, order: int) -> None:
    """Raise IncompatibleOrders unless m divides order: the one check of the
    rule that a root of order m lives in Q(zeta_order)."""
    if order % m != 0:
        raise IncompatibleOrders("order %d does not divide %d" % (m, order))


class ValidityExceeded(EngineError):
    """A comparison was requested beyond a series' validity bound."""


class NonConvergent(EngineError):
    """Theta/Pochhammer argument degrees admit infinitely many terms per degree."""


class NonMonomialArgument(EngineError):
    """A theta argument did not fold to a single scaled monomial."""


class NonInvertible(EngineError):
    """A negative power needed an inverse the coefficient domain does not supply."""


class RequestTooLarge(EngineError):
    """A request whose cost passes a fixed cap, refused before any work; the
    README's refusal table lists every cap."""


class UsageError(EngineError):
    """A request refused before evaluation: bad syntax, option or name."""


class ParseError(UsageError):
    """Syntax error with a source offset and the token kinds that were expected."""

    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = message
        if self.expected:
            detail += " (expected: %s)" % ", ".join(sorted(self.expected))
        super().__init__("%s at offset %d" % (detail, offset))

