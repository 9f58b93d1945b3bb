import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from thetadissect.catalog import evaluate  # noqa: E402
from thetadissect.cyclotomic import CycloNum, _reduction_rows, euler_phi  # noqa: E402
from thetadissect.errors import IncompatibleOrders, NonMonomialArgument, ParseError  # noqa: E402
from thetadissect.expr import (  # noqa: E402
    ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity, Var, sum_of,
)
from thetadissect.exprlang import _SYMBOLS  # noqa: E402
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial  # noqa: E402
from thetadissect.theta import ThetaArgs  # noqa: E402


def make_series(entries, validity, order=1):
    """entries: {(p, q): rational or CycloNum}."""
    pairs = []
    for (p, q), c in entries.items():
        if not isinstance(c, CycloNum):
            c = CycloNum.from_rational(Fraction(c), order)
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
    reference: coeffs is the power-basis vector of Fractions."""

    order: int
    coeffs: tuple

    @staticmethod
    def of(c):
        return FractionCyclo(c.order, tuple(Fraction(x, c.den) for x in c.nums))

    @staticmethod
    def combine(order, values, step=1):
        """The sum of values[j] * zeta_order^(j*step), reduced modulo Phi_order."""
        rows = _reduction_rows(order)
        out = [Fraction(0)] * len(rows[0])
        for j, c in enumerate(values):
            if c:
                for i, v in enumerate(rows[j * step % order]):
                    out[i] += c * v
        return FractionCyclo(order, tuple(out))

    def __add__(self, other):
        return FractionCyclo(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return FractionCyclo(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FractionCyclo(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCyclo(self.order, tuple(a * other for a in self.coeffs))
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


def reference_basis_terms(c):
    """Nonzero (power, Fraction coefficient) pairs, power ascending."""
    return [(j, Fraction(x, c.den)) for j, x in enumerate(c.nums) if x]


def reference_str(c):
    """The Fraction-based spelling of a CycloNum that the text formatter
    replaced, kept as the reference."""
    terms = reference_basis_terms(c)
    if not terms:
        return "0"
    parts = []
    for j, r in terms:
        if j == 0:
            body = str(abs(r))
        else:
            z = "zeta%d" % c.order if j == 1 else "zeta%d^%d" % (c.order, j)
            body = z if abs(r) == 1 else "%s*%s" % (abs(r), z)
        if not parts:
            parts.append(("-" if r < 0 else "") + body)
        else:
            parts.append((" - " if r < 0 else " + ") + body)
    return "".join(parts)


def reference_render_term(mono, coeff):
    """(negative-sign, body) for one series term, by the Fraction-based
    spelling, kept as the reference."""
    mono_txt = mono.render()
    basis = reference_basis_terms(coeff)
    if coeff.is_rational():
        r = coeff.as_rational()
        mag = abs(r)
        if mono_txt == "1":
            return r < 0, str(mag)
        return r < 0, mono_txt if mag == 1 else "%s*%s" % (mag, mono_txt)
    if len(basis) == 1:
        j, r = basis[0]
        z = "zeta%d" % coeff.order if j == 1 else "zeta%d^%d" % (coeff.order, j)
        head = z if abs(r) == 1 else "%s*%s" % (abs(r), z)
        return r < 0, head if mono_txt == "1" else "%s*%s" % (head, mono_txt)
    wrapped = "(%s)" % reference_str(coeff)
    return False, wrapped if mono_txt == "1" else "%s*%s" % (wrapped, mono_txt)


def reference_render(series):
    """The rendering of a series by the Fraction-based spelling."""
    if not series.terms:
        return "0"
    parts = []
    for mono, coeff in series.sorted_terms():
        negative, body = reference_render_term(mono, coeff)
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append((" - " if negative else " + ") + body)
    return "".join(parts)


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
    return {m: c for m, c in acc.items() if not c.is_zero()}


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
        return reference_fold(node.base, order) ** node.exponent
    raise NonMonomialArgument(
        "%s does not fold to a scaled monomial" % type(node).__name__
    )


def reference_tokenize(text):
    """The character loop the tokenizer used when tokens were frozen
    dataclasses, kept as the reference: (kind, text, offset) triples."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((_SYMBOLS[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("integer", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(("end", "", n))
    return tokens
