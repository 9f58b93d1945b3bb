"""Surface syntax for identities: tokenizer, recursive-descent parser, printer.

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

The text is read once, left to right: the tokenizer yields each token when
the parser asks for it. So a parse error is the first in reading order: it
names the token that breaks the grammar, the token kinds expected there when
the grammar allows only some, and its offset. The parser also reports the
working order the text needs: the lcm of every root order it names
(zeta(m,e) needs m, i needs 4, omega 3), made a multiple of 4 by Re or Im.
parse_expr returns (expr, order), parse_identity (lhs, rhs, order).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

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
}


class Token(NamedTuple):
    kind: str  # ident | integer | slash | plus | minus | star | caret | lparen | rparen | comma | equals | end
    text: str
    offset: int


def tokenize(text: str) -> Iterator[Token]:
    """Yield the tokens of text left to right, each when it is asked for, then
    an end token; a character no token starts with raises when it is reached."""
    # tuple.__new__ skips the Python-level __new__ that NamedTuple generates
    new = tuple.__new__
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _SYMBOLS:
            yield new(Token, (_SYMBOLS[ch], ch, i))
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            yield new(Token, ("integer", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield new(Token, ("ident", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    yield Token("end", "", n)


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
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.tok = None  # the lookahead, read only when asked for: errors come in reading order
        self.depth = 0
        self.order = 1  # lcm of the root orders read so far

    def peek(self) -> Token:
        if self.tok is None:
            self.tok = next(self.tokens)
        return self.tok

    def advance(self) -> Token:
        tok = self.peek()
        if tok.kind != "end":
            self.tok = None
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("unexpected %s" % _describe(tok), tok.offset, {kind})
        return self.advance()

    def whole(self, stop: str) -> Expr:
        """An expr, then the token of kind stop that must end it."""
        node = self.expr()
        trailing = self.advance()
        if trailing.kind != stop:
            raise ParseError("unexpected %s after expression" % _describe(trailing),
                             trailing.offset, {stop})
        return node

    # expr := term (("+"|"-") term)*
    def expr(self) -> Expr:
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested more than %d levels deep" % MAX_NESTING,
                             self.peek().offset)
        self.depth += 1
        items = [self.term()]
        while self.peek().kind in ("plus", "minus"):
            op = self.advance()
            t = self.term()
            items.append(t if op.kind == "plus" else _negate(t))
        self.depth -= 1
        return sum_of(items)

    # term := factor ("*" factor)*
    def term(self) -> Expr:
        items = [self.factor()]
        while self.peek().kind == "star":
            self.advance()
            items.append(self.factor())
        return product_of(items)

    # factor := ("-")? atom ("^" signed_integer)?
    def factor(self) -> Expr:
        negated = False
        if self.peek().kind == "minus":
            self.advance()
            negated = True
        node = self.atom()
        if self.peek().kind == "caret":
            self.advance()
            node = Power(node, self.signed_integer())
            nxt = self.peek()
            if nxt.kind == "caret":
                raise ParseError("'^' is non-associative; parenthesize", nxt.offset)
        return _negate(node) if negated else node

    def signed_integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "minus":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "integer":
            raise ParseError(
                "exponent must be a literal integer, got %s" % _describe(tok),
                tok.offset,
                {"integer"},
            )
        self.advance()
        return sign * _int(tok)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "integer":
            self.advance()
            num = _int(tok)
            if self.peek().kind == "slash":
                self.advance()
                den_tok = self.expect("integer")
                den = _int(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.offset)
                return RationalConst(Fraction(num, den))
            return RationalConst(Fraction(num))
        if tok.kind == "lparen":
            self.advance()
            inner = self.expr()
            self.expect("rparen")
            return inner
        if tok.kind == "ident":
            return self.named_atom()
        raise ParseError(
            "unexpected %s" % _describe(tok), tok.offset, {"integer", "ident", "lparen"}
        )

    def named_atom(self) -> Expr:
        tok = self.advance()
        name = tok.text
        if name in _NEEDS:
            self.order = math.lcm(self.order, _NEEDS[name])
        if name in _LEAVES:
            return _LEAVES[name]
        if name == "zeta":
            self.expect("lparen")
            m_tok = self.expect("integer")
            m = _int(m_tok)
            if m < 1:
                raise ParseError("root order must be >= 1", m_tok.offset)
            self.expect("comma")
            e = _int(self.expect("integer"))
            self.expect("rparen")
            self.order = math.lcm(self.order, m)
            return RootOfUnity(m, e)
        if name == "f":
            self.expect("lparen")
            first = self.expr()
            self.expect("comma")
            second = self.expr()
            self.expect("rparen")
            return ThetaCall(first, second)
        if name in _CALLS:
            self.expect("lparen")
            inner = self.expr()
            self.expect("rparen")
            return _CALLS[name](inner)
        raise ParseError(
            "unknown name %r" % name,
            tok.offset,
            {*_LEAVES, "zeta", "f", *_CALLS},
        )


def _int(tok: Token) -> int:
    # the tokenizer takes every str.isdigit() character, some of which int()
    # rejects (such as "²"), and int() rejects more than
    # sys.get_int_max_str_digits() digits
    try:
        return int(tok.text)
    except ValueError:
        what = "has too many digits" if tok.text.isdecimal() else "is not decimal"
        raise ParseError("integer literal %s" % what, tok.offset) from None


def _describe(tok: Token) -> str:
    return "end of input" if tok.kind == "end" else "%s %r" % (tok.kind, tok.text)


def _negate(node: Expr) -> Expr:
    if isinstance(node, RationalConst):
        return RationalConst(-node.value)
    return Negate(node)


def parse_expr(text: str) -> tuple[Expr, int]:
    """Parse a single expression (no '=' allowed); return it with the
    working order it needs."""
    parser = _Parser(text)
    return parser.whole("end"), parser.order


def parse_identity(text: str) -> tuple[Expr, Expr, int]:
    """Parse both sides of the unique '=' in one pass; return them with the
    working order they need."""
    parser = _Parser(text)
    return parser.whole("equals"), parser.whole("end"), parser.order


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
