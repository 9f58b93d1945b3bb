"""Expression evaluation, the built-in identity catalog, and verification.

Evaluation is bottom-up into LaurentSeries over a single working order L
(every root of unity in the expression must live in a field embedding into
Q(zeta_L)). Theta-call arguments, product factors, leaves and powers are
constant-folded to scaled monomials by one fold that returns, instead of a
scaled monomial, the first node that stops it: a zero constant or a node
that is not a monomial. Under f(,) that node is a NonMonomialArgument named
in the message; in a product or a power it marks a series operand, so no
exception steers evaluation. Re and Im are identities between series:
with conj x the coefficientwise conjugate, Re x = (x + conj x)/2 and
Im x = (conj x - x)*i/2, i = zeta_L^(L/4), so 4 must divide L.

The catalog holds the classical m=2/3/4 dissection identities from
Ramanujan's notebooks (Berndt's editions, Parts III and IV), stated as text
in the identity language, plus the modulus-m transformation identities for
m = 2..8, which transformation_identity writes from the closed form.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .cyclotomic import CycloNum
from .dissect import closed_form_parts
from .errors import (
    EngineError, IncompatibleOrders, NonInvertible, NonMonomialArgument, OrderNotDivisibleBy4,
    UnknownIdentityName,
)
from .expr import (
    Expr, ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity,
    SpecializeQ, Sum, ThetaCall, Var, required_order,
)
from .exprlang import parse_identity
from .laurent import LaurentSeries, Mismatch, Monomial, ScaledMonomial
from .theta import ThetaArgs, theta_expand

_VAR_MONOMIALS = {"a": Monomial(1, 0), "b": Monomial(0, 1), "q": Monomial(1, 0)}


def _fold(node: Expr, order: int):
    """The scaled monomial that node folds to; or, when it does not fold, the
    first node (depth first, left to right) that stops it: a zero
    RationalConst or a node that is not a monomial. A root of unity whose
    order does not divide `order` raises IncompatibleOrders."""
    if isinstance(node, Var):
        return ScaledMonomial(1, 0, order, _VAR_MONOMIALS[node.name])
    if isinstance(node, Power):
        base = _fold(node.base, order)
        return base ** node.exponent if isinstance(base, ScaledMonomial) else base
    if isinstance(node, Product):
        result = None
        for item in node.items:
            part = _fold(item, order)
            if not isinstance(part, ScaledMonomial):
                return part
            result = part if result is None else result * part
        return result
    if isinstance(node, RootOfUnity):
        if order % node.order != 0:
            raise IncompatibleOrders("order %d does not divide %d" % (node.order, order))
        return ScaledMonomial(1, node.exponent * (order // node.order), order, Monomial(0, 0))
    if isinstance(node, RationalConst):
        if node.value == 0:
            return node
        return ScaledMonomial(node.value, 0, order, Monomial(0, 0))
    if isinstance(node, Negate):
        item = _fold(node.item, order)
        return -item if isinstance(item, ScaledMonomial) else item
    return node


def fold_scaled_monomial(node: Expr, order: int) -> ScaledMonomial:
    """Constant-fold an expression to c * a^p * b^q, or raise NonMonomialArgument.

    q folds to the a-slot (the univariate convention of specialize_q).
    """
    folded = _fold(node, order)
    if isinstance(folded, ScaledMonomial):
        return folded
    if isinstance(folded, RationalConst):
        raise NonMonomialArgument("zero cannot be a theta-argument coefficient")
    raise NonMonomialArgument(
        "%s does not fold to a scaled monomial" % type(folded).__name__
    )


def _monomial_series(s: ScaledMonomial, degree: int) -> LaurentSeries:
    # an exact monomial is exact at every degree; keep its term visible
    validity = max(degree, s.total_degree)
    return LaurentSeries.from_scaled_monomial(s, validity)


def evaluate(node: Expr, degree: int, order: int) -> LaurentSeries:
    """Evaluate to a series exact through at least `degree` (catalog shapes);
    the result's validity field carries the honest bound either way."""
    if isinstance(node, Sum):
        return LaurentSeries.sum([evaluate(item, degree, order) for item in node.items])
    if isinstance(node, Product):
        # the items that fold form one monomial prefix; the rest are series
        prefix = None
        series_items = []
        for item in node.items:
            part = _fold(item, order)
            if not isinstance(part, ScaledMonomial):
                series_items.append(item)
            else:
                prefix = part if prefix is None else prefix * part
        if not series_items:
            return _monomial_series(prefix, degree)
        result = LaurentSeries.product([evaluate(item, degree, order) for item in series_items])
        if prefix is not None:
            result = result.scale(prefix)
        return result
    if isinstance(node, ThetaCall):
        args = ThetaArgs(
            fold_scaled_monomial(node.first, order),
            fold_scaled_monomial(node.second, order),
        )
        return theta_expand(args, degree)
    if isinstance(node, Negate):
        return -evaluate(node.item, degree, order)
    if isinstance(node, (RealPart, ImagPart)):
        if order % 4 != 0:
            raise OrderNotDivisibleBy4("order %d is not divisible by 4" % order)
        x = evaluate(node.item, degree, order)
        conj = x.map_coeffs(CycloNum.conjugate)
        if isinstance(node, RealPart):
            parts, exponent = (x, conj), 0
        else:
            parts, exponent = (conj, -x), order // 4
        return LaurentSeries.sum(parts).scale(
            ScaledMonomial(Fraction(1, 2), exponent, order, Monomial(0, 0)))
    if isinstance(node, SpecializeQ):
        return evaluate(node.item, degree, order).specialize_q()
    # one fold serves the nodes that can be monomials: Var, RootOfUnity, RationalConst, Power
    folded = _fold(node, order)
    if isinstance(folded, ScaledMonomial):
        return _monomial_series(folded, degree)
    if isinstance(node, RationalConst):  # zero
        return LaurentSeries.zero(degree, order)
    if not isinstance(node, Power):
        raise TypeError("not an expression node: %r" % (node,))
    # a power of a series, a zero constant's included
    if node.exponent < 0:
        raise NonInvertible("negative power needs a monomial base")
    if node.exponent == 0:
        return LaurentSeries.one(degree, order)
    # by squaring: every grouping of equal factors has the left fold's
    # validity, so about log2(N) products give the same series
    base = evaluate(node.base, degree, order)
    result, n = None, node.exponent
    while n:
        if n & 1:
            result = base if result is None else LaurentSeries.product((result, base))
        n >>= 1
        if n:
            base = LaurentSeries.product((base, base))
    return result


# -- identities and reports ----------------------------------------------------


@dataclass(frozen=True)
class Identity:
    name: str
    lhs: Expr
    rhs: Expr
    required_root_order: int
    paper_ref: str


def make_identity(name: str, lhs: Expr, rhs: Expr, paper_ref: str) -> Identity:
    return Identity(name, lhs, rhs, required_order(lhs, rhs), paper_ref)


@dataclass(frozen=True)
class Report:
    """Outcome of one verification. lhs and rhs hold the two evaluated
    series (None on error); they are not serialized or compared."""

    name: str
    paper_ref: str
    degree: int
    status: str  # verified | failed | error
    first_mismatch: Optional[Mismatch]
    lhs_terms: int
    rhs_terms: int
    millis: float
    error: Optional[str] = None
    lhs: Optional[LaurentSeries] = field(default=None, compare=False, repr=False)
    rhs: Optional[LaurentSeries] = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "degree": self.degree,
            "status": self.status,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "millis": round(self.millis, 3),
        }
        if self.first_mismatch is not None:
            doc["first_mismatch"] = {
                "monomial": self.first_mismatch.monomial.render(),
                "lhs": str(self.first_mismatch.left),
                "rhs": str(self.first_mismatch.right),
            }
        if self.error is not None:
            doc["error"] = self.error
        return doc


def verify_identity(identity: Identity, degree: int) -> Report:
    """Evaluate both sides at the identity's root order and compare through
    `degree`. Evaluation errors become status="error", never exceptions."""
    start = time.perf_counter()
    status = "verified"
    mismatch = None
    lhs_terms = rhs_terms = 0
    error = None
    try:
        lhs = evaluate(identity.lhs, degree, identity.required_root_order)
        rhs = evaluate(identity.rhs, degree, identity.required_root_order)
        lhs_terms, rhs_terms = lhs.term_count, rhs.term_count
        mismatch = lhs.first_mismatch(rhs, degree)
        if mismatch is not None:
            status = "failed"
    except EngineError as exc:
        status = "error"
        error = "%s: %s" % (type(exc).__name__, exc)
        lhs = rhs = None
    millis = (time.perf_counter() - start) * 1000.0
    return Report(identity.name, identity.paper_ref, degree, status,
                  mismatch, lhs_terms, rhs_terms, millis, error, lhs, rhs)


def summarize(reports) -> dict:
    counts = {"total": len(reports), "verified": 0, "failed": 0, "error": 0}
    for r in reports:
        counts[r.status] += 1
    return counts


# -- the built-in catalog --------------------------------------------------------

# (name, statement, notebook reference). The m=4 entries use the argument
# pairs produced by the closed form (second argument B_4 (ab)^(-4k)); see
# remark_im_parts for the negative exponents that brings in.
_NOTEBOOK_ENTRIES = (
    ("entry30_ii",
     "f(a^3*b, a*b^3) = 1/2*(f(a, b) + f(-a, -b))",
     "Berndt, Ramanujan's Notebooks III, p. 46, Entry 30(ii)"),
    ("entry30_iii",
     "a*f(a^5*b^3, a^-1*b) = 1/2*(f(a, b) - f(-a, -b))",
     "Berndt, Ramanujan's Notebooks III, p. 46, Entry 30(iii)"),
    ("entry25_i",
     "specq(f(a^3*b, a*b^3)) = specq(1/2*(f(a, b) + f(-a, -b)))",
     "Berndt, Ramanujan's Notebooks III, p. 40, Entry 25(i): a=b=q in Entry 30(ii)"),
    ("entry25_ii",
     "specq(a*f(a^5*b^3, a^-1*b)) = specq(1/2*(f(a, b) - f(-a, -b)))",
     "Berndt, Ramanujan's Notebooks III, p. 40, Entry 25(ii): a=b=q in Entry 30(iii)"),
    ("entry7",
     "f(omega*a, omega*b) = omega*f(a, b) + (1 - omega)*f(a^6*b^3, a^3*b^6)",
     "Berndt, Ramanujan's Notebooks IV, p. 144, Entry 7"),
    ("entry9a",
     "f(i*a, i*b) = f(a^10*b^6, a^6*b^10) + a^3*b*f(a^18*b^14, a^-2*b^2)"
     " + i*(a*f(a^14*b^10, a^2*b^6) + a^6*b^3*f(a^22*b^18, a^-6*b^-2))",
     "Berndt, Ramanujan's Notebooks IV, p. 146, Entry 9: four-term dissection form"),
    ("entry9b",
     "f(i*a, i*b) = 1/2*(1 + i)*f(a, b) + 1/2*(1 - i)*f(-a, -b)",
     "Berndt, Ramanujan's Notebooks IV, p. 146, Entry 9: compact form"),
    ("remark_re",
     "Re(f(i*a, i*b)) = f(a^3*b, a*b^3)",
     "real part of Entry 9 equals the Entry 30(ii) form"),
    ("remark_re_parts",
     "Re(f(i*a, i*b)) = f(a^10*b^6, a^6*b^10) + a^3*b*f(a^18*b^14, a^-2*b^2)",
     "real part of Entry 9: even dissection components"),
    ("remark_im",
     "Im(f(i*a, i*b)) = a*f(a^5*b^3, a^-1*b)",
     "imaginary part of Entry 9 equals the Entry 30(iii) form"),
    ("remark_im_parts",
     "Im(f(i*a, i*b)) = a*f(a^14*b^10, a^2*b^6) + a^6*b^3*f(a^22*b^18, a^-6*b^-2)",
     "imaginary part of Entry 9: odd dissection components"),
    ("remark_q_re",
     "specq(Re(f(i*a, i*b))) = f(q^16, q^16) + q^4*f(q^32, 1)",
     "a=b=q form of the even split of Entry 9"),
    ("remark_q_im",
     "specq(Im(f(i*a, i*b))) = q*f(q^24, q^8) + q^9*f(q^40, q^-8)",
     "a=b=q form of the odd split of Entry 9"),
)


def transformation_identity(m: int, e: int = 1) -> Identity:
    """f(zeta a, zeta b) = sum over k of zeta^(k^2) S_k(a, b) with zeta = zeta_m^e,
    each S_k in the closed form of closed_form_parts. zeta may be any m-th
    root of unity, not only a primitive one; the left side keeps zeta(m,e)
    even when it is 1, so both sides evaluate in Q(zeta_m)."""
    if m < 1:
        raise ValueError("modulus m must be >= 1")
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
    statement = "f(zeta(%d,%d)*a, zeta(%d,%d)*b) = %s" % (m, e, m, e, " + ".join(pieces))
    name, paper_ref = "thm_m%d" % m, "modulus-%d root-of-unity transformation" % m
    if e != 1:
        name, paper_ref = name + "_e%d" % e, paper_ref + " at zeta_%d^%d" % (m, e)
    return make_identity(name, *parse_identity(statement), paper_ref)


@functools.cache
def catalog_by_name() -> Mapping[str, Identity]:
    """The built-in identities by name, each carrying its notebook reference
    string. Built on first use and shared, so the mapping is read-only."""
    entries = [make_identity(name, *parse_identity(statement), paper_ref)
               for name, statement, paper_ref in _NOTEBOOK_ENTRIES]
    entries += [transformation_identity(m) for m in range(2, 9)]
    return MappingProxyType({identity.name: identity for identity in entries})


def builtin_catalog() -> tuple[Identity, ...]:
    """Every built-in identity, in catalog order."""
    return tuple(catalog_by_name().values())


def get_identity(name: str) -> Identity:
    table = catalog_by_name()
    if name not in table:
        raise UnknownIdentityName(
            "no catalog entry named %r (known: %s)" % (name, ", ".join(sorted(table)))
        )
    return table[name]
