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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExponentNotInteger, MissingEquals, MultipleEquals, ParseError
from .expr import (
    Expr, ImagPart, Negate, Power, Product, RationalConst, RealPart,
    RootOfUnity, SpecializeQ, Sum, ThetaCall, Var, product_of, sum_of,
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


@dataclass(frozen=True)
class Token:
    kind: str  # ident | integer | slash | plus | minus | star | caret | lparen | rparen | comma | equals | end
    text: str
    offset: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("integer", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(Token("end", "", n))
    return tokens


_CALLS = {"Re": RealPart, "Im": ImagPart, "specq": SpecializeQ}

# Deepest nesting of parenthesized subexpressions (including f(...), Re(...)
# and the like). Parsing, evaluation and printing all recurse once or more per
# level, so the cap keeps every stage well inside Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("unexpected %s" % _describe(tok), tok.offset, {kind})
        return self.advance()

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
            raise ExponentNotInteger(
                "exponent must be a literal integer, got %s" % _describe(tok),
                tok.offset,
                {"integer"},
            )
        self.advance()
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "integer":
            self.advance()
            num = int(tok.text)
            if self.peek().kind == "slash":
                self.advance()
                den_tok = self.expect("integer")
                if int(den_tok.text) == 0:
                    raise ParseError("zero denominator", den_tok.offset)
                return RationalConst(Fraction(num, int(den_tok.text)))
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
        if name in ("a", "b", "q"):
            return Var(name)
        if name == "i":
            return RootOfUnity(4, 1)
        if name == "omega":
            return RootOfUnity(3, 1)
        if name == "zeta":
            self.expect("lparen")
            m_tok = self.expect("integer")
            if int(m_tok.text) < 1:
                raise ParseError("root order must be >= 1", m_tok.offset)
            self.expect("comma")
            e_tok = self.expect("integer")
            self.expect("rparen")
            return RootOfUnity(int(m_tok.text), int(e_tok.text))
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
            {"a", "b", "q", "i", "omega", "zeta", "f", "Re", "Im", "specq"},
        )


def _describe(tok: Token) -> str:
    return "end of input" if tok.kind == "end" else "%s %r" % (tok.kind, tok.text)


def _negate(node: Expr) -> Expr:
    if isinstance(node, RationalConst):
        return RationalConst(-node.value)
    return Negate(node)


def _parse_tokens(tokens: list[Token]) -> Expr:
    parser = _Parser(tokens)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError("unexpected %s after expression" % _describe(trailing), trailing.offset)
    return node


def parse_expr(text: str) -> Expr:
    """Parse a single expression (no '=' allowed)."""
    return _parse_tokens(tokenize(text))


def parse_identity(text: str) -> tuple[Expr, Expr]:
    """Split on the unique top-level '=' and parse both sides."""
    tokens = tokenize(text)
    eq_positions = [idx for idx, t in enumerate(tokens) if t.kind == "equals"]
    if not eq_positions:
        raise MissingEquals("identity needs '='", len(text), {"equals"})
    if len(eq_positions) > 1:
        raise MultipleEquals(
            "identity has more than one '='", tokens[eq_positions[1]].offset
        )
    split = eq_positions[0]
    end = tokens[-1]
    lhs = _parse_tokens(tokens[:split] + [end])
    rhs = _parse_tokens(tokens[split + 1:])
    return lhs, rhs


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
    if isinstance(node, Negate):
        return _LEVEL_UNARY
    if isinstance(node, RationalConst) and node.value < 0:
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
    if isinstance(node, RealPart):
        return "Re(%s)" % _render(node.item, _LEVEL_SUM)
    if isinstance(node, ImagPart):
        return "Im(%s)" % _render(node.item, _LEVEL_SUM)
    if isinstance(node, SpecializeQ):
        return "specq(%s)" % _render(node.item, _LEVEL_SUM)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, RootOfUnity):
        if (node.order, node.exponent) == (4, 1):
            return "i"
        if (node.order, node.exponent) == (3, 1):
            return "omega"
        return "zeta(%d,%d)" % (node.order, node.exponent)
    if isinstance(node, RationalConst):
        return str(node.value)
    raise TypeError("not an expression node: %r" % (node,))


def print_expr(node: Expr) -> str:
    """Canonical rendering with minimal parentheses; parse(print(x)) == x for
    every AST the parser itself produces."""
    return _render(node, _LEVEL_SUM)


def print_identity(lhs: Expr, rhs: Expr) -> str:
    return "%s = %s" % (print_expr(lhs), print_expr(rhs))
