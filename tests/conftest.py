import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
# the benchmark's oracles import nothing from thetadissect, so they serve the
# tests as references that do not lean on the engine they check
ORACLES_DIR = os.path.join(ROOT, "perfbench")
if ORACLES_DIR not in sys.path:
    sys.path.insert(0, ORACLES_DIR)

import oracles as orc  # noqa: E402
from thetadissect.catalog import evaluate, fold_scaled_monomial  # noqa: E402
from thetadissect.dissect import closed_form_parts  # noqa: E402
from thetadissect.cyclotomic import CycloNum, euler_phi  # noqa: E402
from thetadissect.errors import IncompatibleOrders, NonMonomialArgument, ParseError  # noqa: E402
from thetadissect.expr import (  # noqa: E402
    ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity, ThetaCall, Var,
    product_of, sum_of,
)
from thetadissect.exprlang import (  # noqa: E402
    _CALLS, _LEAVES, _NEEDS, _SYMBOLS, MAX_NESTING, _negate,
)
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial  # noqa: E402
from thetadissect.theta import ThetaArgs  # noqa: E402


def rational_coeff(value, order=1):
    """The int or Fraction `value` as an element of Q(zeta_order)."""
    value = Fraction(value)
    return CycloNum(order, (value.numerator,) + (0,) * (euler_phi(order) - 1), value.denominator)


def make_series(entries, validity, order=1):
    """entries: {(p, q): rational or CycloNum}."""
    pairs = []
    for (p, q), c in entries.items():
        if not isinstance(c, CycloNum):
            c = rational_coeff(c, order)
        pairs.append((Monomial(p, q), c))
    return LaurentSeries.make(pairs, validity, order)


def plain_theta_args(order=1):
    """Arguments (a, b) of the plain kernel f(a, b)."""
    return ThetaArgs(
        ScaledMonomial.make(1, 1, 0, order),
        ScaledMonomial.make(1, 0, 1, order),
    )


# Orders with 2*phi - 1 > L (the primes >= 5, 9, 15) make a product's
# convolution reach past zeta^(L-1), where reduction must index its rows by
# j mod L.
KERNEL_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15)
# numerators at the edges of the k-byte signed digits for the array widths
# 1, 2, 4, 8, the rounded width 3 and the big-int width 9, their square
# roots, and numbers near +-10^30
_EDGES = [s * (2 ** (8 * k - 1) + d) for k in (1, 2, 3, 4, 8, 9) for d in (-1, 0, 1) for s in (1, -1)]
_EDGES += [s * 2 ** (4 * k - 1) for k in (1, 2, 4, 8, 9) for s in (1, -1)]  # squares at the edges
numerators = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(_EDGES),
    st.integers(-3, 3).map(lambda d: 10 ** 30 + d),
    st.integers(-3, 3).map(lambda d: -10 ** 30 + d),
)
denominators = st.sampled_from((1, 1, 1, 2, 3, 7, 12, 10 ** 30 + 1))


def cyclo_from_pairs(order, pairs):
    """The element with power-basis coefficients n/d for the (n, d) in pairs."""
    den = math.lcm(*(d for _, d in pairs))
    return CycloNum(order, tuple(n * (den // d) for n, d in pairs), den)


def rand_cyclo(rng, order, span=9):
    pairs = [(rng.randint(-span, span), rng.randint(1, span)) for _ in range(euler_phi(order))]
    return cyclo_from_pairs(order, pairs)


@dataclass(frozen=True)
class FractionCyclo:
    """The Fraction-vector arithmetic of Q(zeta_order) that CycloNum used
    before it stored integer numerators over one denominator, kept as the
    reference: coeffs is the power-basis vector of Fractions, and every
    reduction modulo Phi_order goes through the oracles' roots."""

    order: int
    coeffs: tuple

    @staticmethod
    def of(c):
        return FractionCyclo(c.order, tuple(Fraction(x, c.den) for x in c.nums))

    @staticmethod
    def combine(order, values, step=1):
        """The sum of values[j] * zeta_order^(j*step): the oracles' power-basis
        rows of the roots, scaled and added, without the engine's table."""
        total = (Fraction(0),) * orc.phi(order)
        for j, c in enumerate(values):
            if c:
                total = orc.vec_add(total, orc.vec_scale(orc.root(order, j * step), c))
        return FractionCyclo(order, total)

    def __add__(self, other):
        return FractionCyclo(self.order, orc.vec_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCyclo(self.order, orc.vec_scale(self.coeffs, other))
        conv = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                conv[i + j] += a * b
        return FractionCyclo.combine(self.order, conv)

    def __pow__(self, n):
        result = FractionCyclo.combine(self.order, [Fraction(1)])
        for _ in range(n):
            result = result * self
        return result

    def embed(self, target):
        return FractionCyclo.combine(target, self.coeffs, target // self.order)

    def conjugate(self):
        return FractionCyclo.combine(self.order, self.coeffs, self.order - 1)

    def real_imag(self):
        i_unit = FractionCyclo.combine(self.order, [0] * (self.order // 4) + [Fraction(1)])
        conj = self.conjugate()
        return (self + conj) * Fraction(1, 2), (self - conj) * (-i_unit) * Fraction(1, 2)


def series_expr(series):
    """An expression that evaluates to `series` at its order and validity:
    the sum over its terms a^p*b^q*x and the nonzero entries n of x of
    n/den * zeta(order, j) * a^p * b^q, or 0 for the zero series."""
    return sum_of(Product((RationalConst(Fraction(n, c.den)), RootOfUnity(series.order, j),
                           Power(Var("a"), m.p), Power(Var("b"), m.q)))
                  for m, c in series.terms.items() for j, n in enumerate(c.nums) if n)


def evaluated_parts(series):
    """(Re, Im) of a series, as `evaluate` takes them at its order and validity."""
    expr = series_expr(series)
    return tuple(evaluate(part(expr), series.validity, series.order)
                 for part in (RealPart, ImagPart))


def constant_parts(x):
    """(Re x, Im x) of a CycloNum: the constant terms of `evaluated_parts` of
    the constant series x."""
    parts = evaluated_parts(make_series({(0, 0): x}, 0, x.order))
    return tuple(part.coefficient(Monomial(0, 0)) for part in parts)


def full_digits(n):
    """str(n) with CPython's int-to-str digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def fraction_terms(series):
    """A series as the oracles hold one: {(p, q): power-basis Fraction tuple}."""
    return {(m.p, m.q): FractionCyclo.of(c).coeffs for m, c in series.terms.items()}


def collapse_q(series):
    """The bivariate series at a = b = q by the oracles' collapse, as a series
    of the same validity and order: the reference that specq is checked
    against."""
    order = series.order
    return LaurentSeries.make(
        [(Monomial(*mono), cyclo_from_pairs(order, [c.as_integer_ratio() for c in vec]))
         for mono, vec in orc.specialize_q(fraction_terms(series)).items()],
        series.validity, order)


def schoolbook_terms(x, y, validity):
    """The pairwise CycloNum double loop the integer kernel replaced, kept as
    the reference."""
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            mono = m1 * m2
            if mono.total_degree > validity:
                continue
            prod = c1 * c2
            acc[mono] = acc[mono] + prod if mono in acc else prod
    return {m: c for m, c in acc.items() if any(c.nums)}


def known_min_degree(s):
    """The least degree s can hold: an empty series may hide validity + 1."""
    return min(m.total_degree for m in s.terms) if s.terms else s.validity + 1


def schoolbook_fold(items):
    """Every partial product of a left fold of `schoolbook_terms`, each step
    exact through min(V1 + m2, V2 + m1) for validities V and least degrees m."""
    partials = [items[0]]
    for other in items[1:]:
        acc = partials[-1]
        validity = min(acc.validity + known_min_degree(other),
                       other.validity + known_min_degree(acc))
        partials.append(LaurentSeries(schoolbook_terms(acc, other, validity), validity, acc.order))
    return partials


def schoolbook_tree(items):
    """Every node of a balanced product tree of `schoolbook_terms`, children
    before parents and left before right: (left, right, validity) for the
    products of the node's first len // 2 items and of the rest, and the
    node's bound min(V1 + m2, V2 + m1). The last node is the root."""
    nodes = []

    def build(part):
        if len(part) == 1:
            return part[0]
        mid = len(part) // 2
        left, right = build(part[:mid]), build(part[mid:])
        validity = min(left.validity + known_min_degree(right),
                       right.validity + known_min_degree(left))
        nodes.append((left, right, validity))
        return LaurentSeries(schoolbook_terms(left, right, validity), validity, left.order)

    build(items)
    return nodes


_VAR_MONOMIALS = {"a": Monomial(1, 0), "b": Monomial(0, 1), "q": Monomial(1, 0)}


def reference_fold(node, order):
    """The fold as it was when every node that does not fold raised
    NonMonomialArgument on the spot, kept as the reference for the fold that
    returns that node to its caller instead."""
    if isinstance(node, RationalConst):
        if node.value == 0:
            raise NonMonomialArgument("zero cannot be a theta-argument coefficient")
        return ScaledMonomial(node.value, 0, order, Monomial(0, 0))
    if isinstance(node, RootOfUnity):
        if order % node.order != 0:
            raise IncompatibleOrders("order %d does not divide %d" % (node.order, order))
        return ScaledMonomial(1, node.exponent * (order // node.order), order, Monomial(0, 0))
    if isinstance(node, Var):
        return ScaledMonomial(1, 0, order, _VAR_MONOMIALS[node.name])
    if isinstance(node, Negate):
        return -reference_fold(node.item, order)
    if isinstance(node, Product):
        result = reference_fold(node.items[0], order)
        for item in node.items[1:]:
            result = result * reference_fold(item, order)
        return result
    if isinstance(node, Power):
        base, n = reference_fold(node.base, order), node.exponent
        ratio = Fraction(base.ratio) ** n if n < 0 else base.ratio ** n
        return ScaledMonomial(ratio, base.exponent * n, order,
                              Monomial(base.mono.p * n, base.mono.q * n))
    raise NonMonomialArgument(
        "%s does not fold to a scaled monomial" % type(node).__name__
    )


def power_by_fold(s, n):
    """s ** n by the program's one power rule: the fold of Power(node, n) for
    a node that folds to the scaled monomial s."""
    node = Product((RationalConst(Fraction(s.ratio)), RootOfUnity(s.order, s.exponent),
                    Power(Var("a"), s.mono.p), Power(Var("b"), s.mono.q)))
    return fold_scaled_monomial(Power(node, n), s.order)


_Token = namedtuple("_Token", "kind text offset")


def reference_spans(text):
    """(offset, text) of every token, by the token rule of the parser written
    as a character loop: a run of str.isdecimal characters, a word that starts
    with any other str.isalnum character and goes on with isalnum characters
    and '_', or any other character but white space (str.isspace)."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch.isspace():
            i = j
            continue
        if ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
        elif ch.isalnum():
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        yield i, text[i:j]
        i = j


def decimal_rule_tokens(text):
    """The tokens of reference_spans as (kind, text, offset) triples, then an
    end token; a token of no kind raises a ParseError when it is reached. A
    word of str.isdigit characters (such as '²') is an integer."""
    for i, tok in reference_spans(text):
        if tok.isdigit():
            yield _Token("integer", tok, i)
        elif tok[0].isalpha():
            yield _Token("ident", tok, i)
        elif tok in _SYMBOLS:
            yield _Token(_SYMBOLS[tok], tok, i)
        else:
            raise ParseError("unexpected character %r" % tok[0], i)
    yield _Token("end", "", len(text))


def isdigit_rule_tokens(text):
    """The token rule the parser read with before it scanned every text with
    one regular expression, as the character loop it used when it read each
    token as it asked for it: a run of str.isdigit characters, a str.isalpha
    letter and the isalnum characters and '_' after it, or a symbol, as
    (kind, text, offset) triples, then an end token; any other character but
    white space raises a ParseError when it is reached."""
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in _SYMBOLS:
            yield _Token(_SYMBOLS[ch], ch, i)
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            yield _Token("integer", text[i:j], i)
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield _Token("ident", text[i:j], i)
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    yield _Token("end", "", n)


def _reference_int(tok):
    try:
        return int(tok.text)
    except ValueError:
        what = "has too many digits" if tok.text.isdecimal() else "is not decimal"
        raise ParseError("integer literal %s" % what, tok.offset) from None


def _reference_describe(tok):
    return "end of input" if tok.kind == "end" else "%s %r" % (tok.kind, tok.text)


class _ReferenceParser:
    """The recursive-descent parser as it was when it pulled each token from
    a lazy character loop only when it looked at it, kept as the reference
    for the parser that scans the whole text first: a parse error is the
    first in reading order by construction here."""

    def __init__(self, text, tokens):
        self.tokens = tokens(text)
        self.tok = None
        self.depth = 0
        self.order = 1

    def peek(self):
        if self.tok is None:
            self.tok = next(self.tokens)
        return self.tok

    def advance(self):
        tok = self.peek()
        if tok.kind != "end":
            self.tok = None
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("unexpected %s" % _reference_describe(tok), tok.offset, {kind})
        return self.advance()

    def whole(self, stop):
        node = self.expr()
        trailing = self.advance()
        if trailing.kind != stop:
            raise ParseError("unexpected %s after expression" % _reference_describe(trailing),
                             trailing.offset, {stop})
        return node

    def expr(self):
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

    def term(self):
        items = [self.factor()]
        while self.peek().kind == "star":
            self.advance()
            items.append(self.factor())
        return product_of(items)

    def factor(self):
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

    def signed_integer(self):
        sign = 1
        tok = self.peek()
        if tok.kind == "minus":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "integer":
            raise ParseError("exponent must be a literal integer, got %s"
                             % _reference_describe(tok), tok.offset, {"integer"})
        self.advance()
        return sign * _reference_int(tok)

    def atom(self):
        tok = self.peek()
        if tok.kind == "integer":
            self.advance()
            num = _reference_int(tok)
            if self.peek().kind == "slash":
                self.advance()
                den_tok = self.expect("integer")
                den = _reference_int(den_tok)
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
        raise ParseError("unexpected %s" % _reference_describe(tok), tok.offset,
                         {"integer", "ident", "lparen"})

    def named_atom(self):
        tok = self.advance()
        name = tok.text
        if name in _NEEDS:
            self.order = math.lcm(self.order, _NEEDS[name])
        if name in _LEAVES:
            return _LEAVES[name]
        if name == "zeta":
            self.expect("lparen")
            m_tok = self.expect("integer")
            m = _reference_int(m_tok)
            if m < 1:
                raise ParseError("root order must be >= 1", m_tok.offset)
            self.expect("comma")
            e = _reference_int(self.expect("integer"))
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
        raise ParseError("unknown name %r" % name, tok.offset, {*_LEAVES, "zeta", "f", *_CALLS})


def reference_parse_expr(text, tokens=decimal_rule_tokens):
    parser = _ReferenceParser(text, tokens)
    return parser.whole("end"), parser.order


def reference_parse_identity(text, tokens=decimal_rule_tokens):
    parser = _ReferenceParser(text, tokens)
    return parser.whole("equals"), parser.whole("end"), parser.order


def reference_transformation_text(m, e=1):
    """The statement of the modulus-m transformation at zeta = zeta_m^e,
    written from closed_form_parts as text, as the catalog once wrote it
    before parsing it back."""
    e %= m
    pieces = []
    for k in range(m):
        prefix, args = closed_form_parts(m, k)
        factors = []
        if e * k * k % m:
            factors.append("zeta(%d,%d)" % (m, e * k * k % m))
        if prefix != Monomial(0, 0):
            factors.append(prefix.render())
        factors.append("f(%s, %s)" % (args.first.mono.render(), args.second.mono.render()))
        pieces.append("*".join(factors))
    return "f(zeta(%d,%d)*a, zeta(%d,%d)*b) = %s" % (m, e, m, e, " + ".join(pieces))
