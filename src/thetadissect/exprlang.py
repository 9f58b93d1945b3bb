"""Surface syntax for identities: recursive-descent parser and printer.

Grammar (the public, versioned surface syntax):

  identity := expr "=" expr ;
  expr     := term (("+"|"-") term)* ;
  term     := factor ("*" factor)* ;        multiplication is always explicit
  factor   := ("-")? atom ("^" signed_integer)? ;
  atom     := integer | integer "/" integer
            | "a" | "b" | "q" | "i" | "omega"
            | "zeta" "(" integer "," integer ")"
            | "f" "(" expr "," expr ")"
            | "Re" "(" expr ")" | "Im" "(" expr ")" | "specq" "(" expr ")"
            | "(" expr ")" ;

Precedence: "^" > unary "-" > "*" > binary "+"/"-". "^" is non-associative
(a^2^3 is a syntax error). Juxtaposition is never multiplication: "a b" is a
syntax error, because "ab" vs "a*b" is the classic q-series notation trap.
Reserved meanings: i = zeta(4,1), omega = zeta(3,1).

Each text is scanned once by one regular expression, then parsed left to
right through the list of its tokens; only a parse error scans it again, with
the same pattern, for the offset of a token. A character no token starts with
is a token of its own, reported only when the parser reaches it, so a parse
error is the first in reading order: it names the token that breaks the
grammar, the token kinds expected there when the grammar allows only some,
and its offset. The parser also reports the working order the text needs:
the lcm of every root order it names (zeta(m,e) needs m, i needs 4, omega 3),
made a multiple of 4 by Re or Im. parse_expr returns (expr, order),
parse_identity (lhs, rhs, order).
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError
from .expr import (
    Expr, ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity,
    SpecializeQ, Sum, ThetaCall, Var, product_of, sum_of,
)

_SYMBOLS = {
    "/": "slash",
    "+": "plus",
    "-": "minus",
    "*": "star",
    "^": "caret",
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    "=": "equals",
    "": "end",  # the text _scan gives the end of input
}


# A run of str.isdecimal digits (those int() reads), a word that starts with
# any other str.isalnum character and goes on with isalnum and '_', or any
# other character but str.isspace: \d, \w and \s without re.ASCII. The
# symbols, ASCII digits and ASCII letters are tried first only for speed.
_TOKEN = re.compile(r"[-+*/^(),=]|[0-9]\d*|[A-Za-z]\w*|\d+|[^\W\d_]\w*|\S")


def _scan(text: str) -> list[str]:
    """The text of every token of text, then "", the end of input."""
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


def _kind(tok: str) -> str | None:
    """The kind of a token's text, None for one of no kind the grammar reads."""
    if tok.isdigit():
        return "integer"
    if tok[:1].isalpha():
        return "ident"
    return _SYMBOLS.get(tok)


# every named leaf, shared by all the trees that name it
_LEAVES = {"a": Var("a"), "b": Var("b"), "q": Var("q"),
           "i": RootOfUnity(4, 1), "omega": RootOfUnity(3, 1)}
_CALLS = {"Re": RealPart, "Im": ImagPart, "specq": SpecializeQ}
# the root order a name needs of the working order; zeta(m,e) needs m
_NEEDS = {"i": 4, "omega": 3, "Re": 4, "Im": 4}
_ROOT_NAMES = {leaf: name for name, leaf in _LEAVES.items() if isinstance(leaf, RootOfUnity)}
_CALL_NAMES = {call: name for name, call in _CALLS.items()}

# Deepest nesting of parenthesized subexpressions (including f(...), Re(...)
# and the like). Parsing, evaluation and printing all recurse once or more per
# level, so the cap keeps every stage well inside Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    """Reads the token texts of one _scan by index. A check on a token compares
    its text; an offset is worked out only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.pos = 0  # index of the lookahead
        self.depth = 0
        self.order = 1  # lcm of the root orders read so far

    def offset(self, index: int) -> int:
        """The offset of token index, from a second scan: only an error needs it."""
        return [*(m.start() for m in _TOKEN.finditer(self.text)), len(self.text)][index]

    def fail(self, message: str, expected=()):
        """Raise message about the lookahead, which fills its {}; a lookahead
        no token starts with is the first error in reading order instead."""
        tok = self.tokens[self.pos]
        kind = _kind(tok)
        if kind is None:  # its first character is the one of no kind
            raise ParseError("unexpected character %r" % tok[0], self.offset(self.pos))
        raise ParseError(message.format(_describe(kind, tok)), self.offset(self.pos), expected)

    def take(self, symbol: str) -> None:
        if self.tokens[self.pos] != symbol:
            self.fail("unexpected {}", {_SYMBOLS[symbol]})
        self.pos += 1

    def integer(self, message: str = "unexpected {}") -> int:
        tok = self.tokens[self.pos]
        if not tok.isdigit():
            self.fail(message, {"integer"})
        self.pos += 1
        # int() rejects a word of str.isdigit() characters such as "²", and a
        # run of more than sys.get_int_max_str_digits() digits
        try:
            return int(tok)
        except ValueError:
            what = "has too many digits" if tok.isdecimal() else "is not decimal"
            raise ParseError("integer literal %s" % what, self.offset(self.pos - 1)) from None

    def whole(self, stop: str) -> Expr:
        """An expr, then the token stop that must end it."""
        node = self.expr()
        if self.tokens[self.pos] != stop:
            self.fail("unexpected {} after expression", {_SYMBOLS[stop]})
        self.pos += 1
        return node

    # expr := term (("+"|"-") term)*
    def expr(self) -> Expr:
        if self.depth > MAX_NESTING:
            self.fail("expression nested more than %d levels deep" % MAX_NESTING)
        self.depth += 1
        items = [self.term()]
        tokens = self.tokens
        while (op := tokens[self.pos]) == "+" or op == "-":
            self.pos += 1
            t = self.term()
            items.append(t if op == "+" else _negate(t))
        self.depth -= 1
        return sum_of(items)

    # term := factor ("*" factor)*
    def term(self) -> Expr:
        items = [self.factor()]
        while self.tokens[self.pos] == "*":
            self.pos += 1
            items.append(self.factor())
        return product_of(items)

    # factor := ("-")? atom ("^" signed_integer)?
    def factor(self) -> Expr:
        negated = self.tokens[self.pos] == "-"
        if negated:
            self.pos += 1
        node = self.atom()
        if self.tokens[self.pos] == "^":
            self.pos += 1
            sign = 1
            if self.tokens[self.pos] == "-":
                self.pos += 1
                sign = -1
            node = Power(node, sign * self.integer("exponent must be a literal integer, got {}"))
            if self.tokens[self.pos] == "^":
                self.fail("'^' is non-associative; parenthesize")
        return _negate(node) if negated else node

    def atom(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.isdigit():
            num = self.integer()
            if self.tokens[self.pos] != "/":
                return RationalConst(Fraction(num))
            self.pos += 1
            den = self.integer()
            if den == 0:
                raise ParseError("zero denominator", self.offset(self.pos - 1))
            return RationalConst(Fraction(num, den))
        if tok == "(":
            self.pos += 1
            inner = self.expr()
            self.take(")")
            return inner
        if tok[:1].isalpha():
            return self.named_atom(tok)
        self.fail("unexpected {}", {"integer", "ident", "lparen"})

    def named_atom(self, name: str) -> Expr:
        self.pos += 1
        if name in _NEEDS:
            self.order = math.lcm(self.order, _NEEDS[name])
        if name in _LEAVES:
            return _LEAVES[name]
        if name == "zeta":
            self.take("(")
            m = self.integer()
            if m < 1:
                raise ParseError("root order must be >= 1", self.offset(self.pos - 1))
            self.take(",")
            e = self.integer()
            self.take(")")
            self.order = math.lcm(self.order, m)
            return RootOfUnity(m, e)
        if name == "f":
            self.take("(")
            first = self.expr()
            self.take(",")
            second = self.expr()
            self.take(")")
            return ThetaCall(first, second)
        if name in _CALLS:
            self.take("(")
            inner = self.expr()
            self.take(")")
            return _CALLS[name](inner)
        raise ParseError(
            "unknown name %r" % name,
            self.offset(self.pos - 1),
            {*_LEAVES, "zeta", "f", *_CALLS},
        )


def _describe(kind: str, tok: str) -> str:
    return "end of input" if kind == "end" else "%s %r" % (kind, tok)


def _negate(node: Expr) -> Expr:
    if isinstance(node, RationalConst):
        return RationalConst(-node.value)
    return Negate(node)


def parse_expr(text: str) -> tuple[Expr, int]:
    """Parse a single expression (no '=' allowed); return it with the
    working order it needs."""
    parser = _Parser(text)
    return parser.whole(""), parser.order


def parse_identity(text: str) -> tuple[Expr, Expr, int]:
    """Parse both sides of the unique '=' in one pass; return them with the
    working order they need."""
    parser = _Parser(text)
    return parser.whole("="), parser.whole(""), parser.order


# -- printing -----------------------------------------------------------------

_LEVEL_SUM = 1
_LEVEL_PRODUCT = 2
_LEVEL_UNARY = 3
_LEVEL_POWER = 4
_LEVEL_ATOM = 5


def _level(node: Expr) -> int:
    if isinstance(node, Sum):
        return _LEVEL_SUM
    if isinstance(node, Product):
        return _LEVEL_PRODUCT
    if isinstance(node, Negate) or isinstance(node, RationalConst) and node.value < 0:
        return _LEVEL_UNARY
    if isinstance(node, Power):
        return _LEVEL_POWER
    return _LEVEL_ATOM


def _render(node: Expr, min_level: int) -> str:
    if _level(node) < min_level:
        return "(%s)" % _render(node, _LEVEL_SUM)
    if isinstance(node, Sum):
        parts = [_render(node.items[0], _LEVEL_PRODUCT)]
        for item in node.items[1:]:
            if isinstance(item, Negate):
                parts.append(" - " + _render(item.item, _LEVEL_PRODUCT))
            elif isinstance(item, RationalConst) and item.value < 0:
                parts.append(" - " + _render(RationalConst(-item.value), _LEVEL_PRODUCT))
            else:
                parts.append(" + " + _render(item, _LEVEL_PRODUCT))
        return "".join(parts)
    if isinstance(node, Product):
        return "*".join(_render(item, _LEVEL_UNARY) for item in node.items)
    if isinstance(node, Negate):
        return "-" + _render(node.item, _LEVEL_POWER)
    if isinstance(node, Power):
        return "%s^%d" % (_render(node.base, _LEVEL_ATOM), node.exponent)
    if isinstance(node, ThetaCall):
        return "f(%s, %s)" % (_render(node.first, _LEVEL_SUM), _render(node.second, _LEVEL_SUM))
    if type(node) in _CALL_NAMES:
        return "%s(%s)" % (_CALL_NAMES[type(node)], _render(node.item, _LEVEL_SUM))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, RootOfUnity):
        return _ROOT_NAMES.get(node) or "zeta(%d,%d)" % (node.order, node.exponent)
    if isinstance(node, RationalConst):
        return str(node.value)
    raise TypeError("not an expression node: %r" % (node,))


def print_expr(node: Expr) -> str:
    """Canonical rendering with minimal parentheses; parse(print(x)) == x for
    every AST the parser itself produces."""
    return _render(node, _LEVEL_SUM)


def print_identity(lhs: Expr, rhs: Expr) -> str:
    return "%s = %s" % (print_expr(lhs), print_expr(rhs))
