"""Expression evaluation, the built-in identity catalog, and verification.

Evaluation is bottom-up into LaurentSeries over a single working order L
(every root of unity in the expression must live in a field embedding into
Q(zeta_L)). One fold carries (r, e, p, q) for r * zeta_L^e * a^p * b^q as
plain values, r an int unless rational input or a negative power makes it
a Fraction, and builds one ScaledMonomial per folded node. A subtree that
does not fold is a zero constant, a node that is not a monomial, or a power
of one. Under f(,) the fold stops at the first such node, a
NonMonomialArgument named in the message. Every node that is not a sum,
Re, Im or specq is split by the same fold into a scaled-monomial prefix (a
negation gives -1) and the largest subtrees that do not fold, so no
exception steers evaluation. When those are one theta call, a bare call
being the prefix 1 times itself, the prefix goes to theta_expand, which
builds each term's coefficient with it: for the modulus-m transformation,
zeta^(k^2) times a root-table row is another row. Otherwise each subtree is
evaluated as a series and their product is scaled by the prefix. Re and Im are
one coefficient map each: with conj the complex conjugation of Q(zeta_L),
Re maps c to (c + conj c)/2 and Im maps c to (c' + conj c')/2 for
c' = -i*c, which is (conj c - c)*i/2, i = zeta_L^(L/4), so 4 must divide
L, or IncompatibleOrders is raised as for any root whose order does not
divide L. A coefficient whose part is zero drops its term.
specq(E) is evaluated as E with every b read as q, a one-variable series
from the leaves up: a, b -> q is a ring homomorphism that keeps total
degrees, which are all the validity calculus reads, so the result is the
bivariate series of E collapsed by specialize_q through that series'
validity, and exact through at least as much (more where a = b cancels the
least terms of a product operand).

The catalog holds the classical m=2/3/4 dissection identities from
Ramanujan's notebooks (Berndt's editions, Parts III and IV), stated as text
in the identity language, plus the modulus-m transformation identities for
m = 2..8, which transformation_identity builds as an AST from the closed
form, with no statement text to parse.
"""
from __future__ import annotations

import functools
import time
from collections.abc import Mapping
from types import MappingProxyType

from .cyclotomic import CycloNum
from .dissect import closed_form_parts
from .errors import (
    EngineError, NonInvertible, NonMonomialArgument, UsageError, check_divides, describe,
)
from .expr import (
    Expr, ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity,
    SpecializeQ, Sum, ThetaCall, Var, b_as_q, product_of, sum_of,
)
from .exprlang import parse_identity
from .laurent import LaurentSeries, Mismatch, Monomial, ScaledMonomial, ratio_power
from .record import Record, set_field
from .theta import ThetaArgs, theta_expand

_VAR_PARTS = {"a": (1, 0, 1, 0), "b": (1, 0, 0, 1), "q": (1, 0, 1, 0)}


def _fold(node: Expr, order: int, series: list | None = None):
    """(r, e, p, q) for the r * zeta_order^e * a^p * b^q that node folds to,
    e reduced mod order at each step. A node that does not fold is a zero
    RationalConst, a node that is not a monomial, or a power of either.
    Without `series` the fold returns the first such node (depth first, left
    to right) or, under a power, the node that stops the base. Given a list
    `series`, it appends every largest subtree that does not fold there,
    inside products and negations too, and counts it as 1, so the node is the
    returned prefix times the product of `series`. A root of unity whose order
    does not divide `order` raises IncompatibleOrders."""
    stop = node
    if isinstance(node, Var):
        return _VAR_PARTS[node.name]
    if isinstance(node, Power):
        stop, n = _fold(node.base, order), node.exponent
        if type(stop) is tuple:
            return ratio_power(stop[0], n), stop[1] * n % order, stop[2] * n, stop[3] * n
    if isinstance(node, Product):
        r, e, p, q = 1, 0, 0, 0
        for item in node.items:
            part = _fold(item, order, series)
            if type(part) is not tuple:
                return part
            r, e, p, q = r * part[0], (e + part[1]) % order, p + part[2], q + part[3]
        return r, e, p, q
    if isinstance(node, RootOfUnity):
        check_divides(node.order, order)
        return 1, node.exponent * (order // node.order) % order, 0, 0
    if isinstance(node, RationalConst):
        v = node.value  # an int ratio unless the constant is not an integer
        if v:
            return v.numerator if v.denominator == 1 else v, 0, 0, 0
    if isinstance(node, Negate):
        item = _fold(node.item, order, series)
        return (-item[0],) + item[1:] if type(item) is tuple else item
    if series is None:
        return stop
    series.append(node)
    return 1, 0, 0, 0


def _scaled(parts: tuple, order: int) -> ScaledMonomial:
    """The one ScaledMonomial of a folded node's (r, e, p, q)."""
    r, e, p, q = parts
    return ScaledMonomial(r, e, order, Monomial(p, q))


def fold_scaled_monomial(node: Expr, order: int) -> ScaledMonomial:
    """Constant-fold an expression to c * a^p * b^q, or raise NonMonomialArgument.

    q folds to the a-slot (the univariate convention of specialize_q).
    """
    folded = _fold(node, order)
    if type(folded) is tuple:
        return _scaled(folded, order)
    if isinstance(folded, RationalConst):
        raise NonMonomialArgument("zero cannot be a theta-argument coefficient")
    raise NonMonomialArgument(
        "%s does not fold to a scaled monomial" % type(folded).__name__
    )


def _monomial_series(s: ScaledMonomial, degree: int) -> LaurentSeries:
    # an exact monomial is exact at every degree; keep its term visible
    validity = max(degree, s.total_degree)
    return LaurentSeries({s.mono: s.coeff}, validity, s.order)


def evaluate(node: Expr, degree: int, order: int) -> LaurentSeries:
    """Evaluate to a series exact through at least `degree` (catalog shapes);
    the result's validity field carries the honest bound either way."""
    if isinstance(node, Sum):
        return LaurentSeries.sum([evaluate(item, degree, order) for item in node.items])
    if isinstance(node, (RealPart, ImagPart)):
        check_divides(4, order)  # i = zeta_L^(L/4)
        # Im x = Re(-i*x), and -i = zeta_L^(3L/4)
        shift = 3 * order // 4 if isinstance(node, ImagPart) else 0

        def part(c: CycloNum) -> CycloNum:
            c = c.scaled(1, 1, shift)
            return (c + c.conjugate()).scaled(1, 2)

        return evaluate(node.item, degree, order).map_coeffs(part)
    if isinstance(node, SpecializeQ):
        return evaluate(b_as_q(node.item), degree, order)
    # every other node is a scaled-monomial prefix times the series it cannot fold
    series = []
    prefix = _fold(node, order, series)
    if not series:
        return _monomial_series(_scaled(prefix, order), degree)
    if len(series) == 1 and isinstance(series[0], ThetaCall):
        # the prefix times one theta call, a bare call being 1 times itself:
        # the prefix enters each term's coefficient as the call expands
        theta = series[0]
        args = ThetaArgs(
            fold_scaled_monomial(theta.first, order),
            fold_scaled_monomial(theta.second, order),
        )
        return theta_expand(args, degree, _scaled(prefix, order))
    if series[0] is node:  # the node does not fold and has no factor that does
        if isinstance(node, RationalConst):  # zero
            return LaurentSeries.zero(degree, order)
        if not isinstance(node, Power):
            raise TypeError("not an expression node: %r" % (node,))
        # a power of a series, a zero constant's included
        if node.exponent < 0:
            raise NonInvertible("negative power needs a monomial base")
        if node.exponent == 0:
            return LaurentSeries.one(degree, order)
        return evaluate(node.base, degree, order).power(node.exponent)
    result = LaurentSeries.product([evaluate(item, degree, order) for item in series])
    if prefix != (1, 0, 0, 0):
        result = result.scale(_scaled(prefix, order))
    return result


# -- identities and reports ----------------------------------------------------


class Identity(Record):
    __slots__ = ("name", "lhs", "rhs", "required_root_order", "paper_ref")

    def __init__(self, name: str, lhs: Expr, rhs: Expr, required_root_order: int,
                 paper_ref: str):
        set_field(self, "name", name)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "required_root_order", required_root_order)
        set_field(self, "paper_ref", paper_ref)


class Report(Record):
    """Outcome of one verification, spelled by to_dict and to_line; status is
    verified, failed or error. The two evaluated series (None on error) and
    the EngineError of an error status, its traceback dropped, are neither
    serialized, compared nor printed by repr: they are slots outside
    `_fields`."""

    __slots__ = ("name", "paper_ref", "degree", "status", "first_mismatch", "lhs_terms",
                 "rhs_terms", "millis", "error", "lhs", "rhs", "exception")
    _fields = __slots__[:9]

    def __init__(self, name: str, paper_ref: str, degree: int, status: str,
                 first_mismatch: Mismatch | None, lhs_terms: int, rhs_terms: int,
                 millis: float, error: str | None = None,
                 lhs: LaurentSeries | None = None, rhs: LaurentSeries | None = None,
                 exception: EngineError | None = None):
        set_field(self, "name", name)
        set_field(self, "paper_ref", paper_ref)
        set_field(self, "degree", degree)
        set_field(self, "status", status)
        set_field(self, "first_mismatch", first_mismatch)
        set_field(self, "lhs_terms", lhs_terms)
        set_field(self, "rhs_terms", rhs_terms)
        set_field(self, "millis", millis)
        set_field(self, "error", error)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "exception", exception)

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
            doc["first_mismatch"] = self.first_mismatch.to_dict("lhs", "rhs")
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def to_line(self) -> str:
        """The fields of to_dict as one line of text."""
        doc = self.to_dict()
        if self.status == "verified":
            return ("%(name)s: verified (degree %(degree)d, lhs %(lhs_terms)d terms,"
                    " rhs %(rhs_terms)d terms)" % doc)
        if self.status == "failed":
            return ("%(name)s: failed at %(monomial)s (lhs %(lhs)s, rhs %(rhs)s;"
                    " degree %(degree)d)" % dict(doc, **doc["first_mismatch"]))
        return "%(name)s: error (%(error)s)" % doc


def verify_identity(identity: Identity, degree: int) -> Report:
    """Evaluate both sides at the identity's root order and compare through
    `degree`. Evaluation errors become status="error", never exceptions; the
    report keeps the error for a caller that raises it."""
    start = time.perf_counter()
    status = "verified"
    mismatch = None
    lhs_terms = rhs_terms = 0
    exception = None
    try:
        lhs = evaluate(identity.lhs, degree, identity.required_root_order)
        rhs = evaluate(identity.rhs, degree, identity.required_root_order)
        lhs_terms, rhs_terms = lhs.term_count, rhs.term_count
        mismatch = lhs.first_mismatch(rhs, degree)
        if mismatch is not None:
            status = "failed"
    except EngineError as exc:
        status = "error"
        exception = exc.with_traceback(None)  # its frames would hold the series
        lhs = rhs = None
    millis = (time.perf_counter() - start) * 1000.0
    error = None if exception is None else describe(exception)
    return Report(identity.name, identity.paper_ref, degree, status,
                  mismatch, lhs_terms, rhs_terms, millis, error, lhs, rhs, exception)


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


def _monomial_factors(mono: Monomial) -> list:
    """The factors a^p*b^q parses to: a Var at exponent 1, a Power otherwise,
    nothing at exponent 0."""
    return [Var(name) if n == 1 else Power(Var(name), n)
            for name, n in (("a", mono.p), ("b", mono.q)) if n]


def transformation_identity(m: int, e: int = 1) -> Identity:
    """f(zeta a, zeta b) = sum over k of zeta^(k^2) S_k(a, b) with zeta = zeta_m^e,
    each S_k in the closed form of closed_form_parts, built as the AST the
    parser would read from the statement's text (print_identity spells it).
    zeta may be any m-th root of unity, not only a primitive one; the left
    side keeps zeta(m,e) even when it is 1, so both sides evaluate in
    Q(zeta_m), the identity's order."""
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    e %= m
    pieces = []
    for k in range(m):
        prefix, args = closed_form_parts(m, k)
        root = [RootOfUnity(m, e * k * k)] if e * k * k % m else []
        theta = ThetaCall(product_of(_monomial_factors(args.first.mono)),
                          product_of(_monomial_factors(args.second.mono)))
        pieces.append(product_of(root + _monomial_factors(prefix) + [theta]))
    zeta = RootOfUnity(m, e)
    lhs = ThetaCall(Product((zeta, Var("a"))), Product((zeta, Var("b"))))
    name, paper_ref = "thm_m%d" % m, "modulus-%d root-of-unity transformation" % m
    if e != 1:
        name, paper_ref = name + "_e%d" % e, paper_ref + " at zeta_%d^%d" % (m, e)
    return Identity(name, lhs, sum_of(pieces), m, paper_ref)


@functools.cache
def catalog_by_name() -> Mapping[str, Identity]:
    """The built-in identities by name, each carrying its notebook reference
    string. Built on first use and shared, so the mapping is read-only."""
    entries = [Identity(name, *parse_identity(statement), paper_ref)
               for name, statement, paper_ref in _NOTEBOOK_ENTRIES]
    entries += [transformation_identity(m) for m in range(2, 9)]
    return MappingProxyType({identity.name: identity for identity in entries})


def builtin_catalog() -> tuple[Identity, ...]:
    """Every built-in identity, in catalog order."""
    return tuple(catalog_by_name().values())


def get_identity(name: str) -> Identity:
    table = catalog_by_name()
    if name not in table:
        raise UsageError(
            "no catalog entry named %r (known: %s)" % (name, ", ".join(sorted(table)))
        )
    return table[name]
