"""Expression evaluation, the built-in identity catalog, and verification.

Evaluation is bottom-up into LaurentSeries over a single working order L
(every root of unity in the expression must live in a field embedding into
Q(zeta_L)). Theta-call arguments are constant-folded to scaled monomials
first; anything else under f(,) is a NonMonomialArgument.

The catalog holds the classical m=2/3/4 dissection identities from
Ramanujan's notebooks (Berndt's editions, Parts III and IV) plus generated
modulus-m transformation identities for m = 2..8.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from .cyclotomic import CycloNum, zeta_power
from .dissect import DissectionSpec, closed_form_parts
from .errors import EngineError, NonInvertible, NonMonomialArgument, UnknownIdentityName
from .expr import (
    Expr, ImagPart, Negate, Power, Product, RationalConst, RealPart,
    RootOfUnity, SpecializeQ, Sum, ThetaCall, Var, product_of, rational,
    required_order, sum_of,
)
from .laurent import LaurentSeries, Mismatch, Monomial, ScaledMonomial
from .theta import ThetaArgs, theta_expand

_VAR_MONOMIALS = {"a": Monomial(1, 0), "b": Monomial(0, 1), "q": Monomial(1, 0)}


def fold_scaled_monomial(node: Expr, order: int) -> ScaledMonomial:
    """Constant-fold an expression to c * a^p * b^q, or raise NonMonomialArgument.

    q folds to the a-slot (the univariate convention of specialize_q).
    """
    if isinstance(node, RationalConst):
        if node.value == 0:
            raise NonMonomialArgument("zero cannot be a theta-argument coefficient")
        return ScaledMonomial(CycloNum.from_rational(node.value, order), Monomial(0, 0))
    if isinstance(node, RootOfUnity):
        coeff = zeta_power(node.order, node.exponent).embed(order)
        return ScaledMonomial(coeff, Monomial(0, 0))
    if isinstance(node, Var):
        return ScaledMonomial(CycloNum.one(order), _VAR_MONOMIALS[node.name])
    if isinstance(node, Negate):
        return -fold_scaled_monomial(node.item, order)
    if isinstance(node, Product):
        result = fold_scaled_monomial(node.items[0], order)
        for item in node.items[1:]:
            result = result * fold_scaled_monomial(item, order)
        return result
    if isinstance(node, Power):
        return fold_scaled_monomial(node.base, order) ** node.exponent
    raise NonMonomialArgument(
        "%s does not fold to a scaled monomial" % type(node).__name__
    )


def _monomial_series(s: ScaledMonomial, degree: int) -> LaurentSeries:
    # an exact monomial is exact at every degree; keep its term visible
    validity = max(degree, s.total_degree)
    return LaurentSeries.from_scaled_monomial(s, validity)


def evaluate(node: Expr, degree: int, order: int) -> LaurentSeries:
    """Evaluate to a series exact through at least `degree` (catalog shapes);
    the result's validity field carries the honest bound either way."""
    if isinstance(node, Sum):
        result = evaluate(node.items[0], degree, order)
        for item in node.items[1:]:
            result = result + evaluate(item, degree, order)
        return result
    if isinstance(node, Product):
        folded: list[ScaledMonomial] = []
        series_items: list[Expr] = []
        for item in node.items:
            try:
                folded.append(fold_scaled_monomial(item, order))
            except NonMonomialArgument:
                series_items.append(item)
        prefix = None
        for s in folded:
            prefix = s if prefix is None else prefix * s
        if not series_items:
            return _monomial_series(prefix, degree)
        result = evaluate(series_items[0], degree, order)
        for item in series_items[1:]:
            result = result * evaluate(item, degree, order)
        if prefix is not None:
            result = result.scale(prefix)
        return result
    if isinstance(node, Power):
        try:
            return _monomial_series(fold_scaled_monomial(node, order), degree)
        except NonMonomialArgument:
            pass
        if node.exponent < 0:
            raise NonInvertible("negative power needs a monomial base")
        if node.exponent == 0:
            return LaurentSeries.one(degree, order)
        base = evaluate(node.base, degree, order)
        result = base
        for _ in range(node.exponent - 1):
            result = result * base
        return result
    if isinstance(node, ThetaCall):
        args = ThetaArgs(
            fold_scaled_monomial(node.first, order),
            fold_scaled_monomial(node.second, order),
        )
        return theta_expand(args, degree)
    if isinstance(node, Negate):
        return -evaluate(node.item, degree, order)
    if isinstance(node, RealPart):
        return evaluate(node.item, degree, order).map_coeffs(lambda c: c.real_imag()[0])
    if isinstance(node, ImagPart):
        return evaluate(node.item, degree, order).map_coeffs(lambda c: c.real_imag()[1])
    if isinstance(node, SpecializeQ):
        return evaluate(node.item, degree, order).specialize_q()
    if isinstance(node, RationalConst):
        if node.value == 0:
            return LaurentSeries.zero(degree, order)
        return _monomial_series(fold_scaled_monomial(node, order), degree)
    if isinstance(node, (Var, RootOfUnity)):
        return _monomial_series(fold_scaled_monomial(node, order), degree)
    raise TypeError("not an expression node: %r" % (node,))


# -- identities and reports ----------------------------------------------------


@dataclass(frozen=True)
class Identity:
    name: str
    lhs: Expr
    rhs: Expr
    required_root_order: int
    paper_ref: str
    default_degree: int = 60


def make_identity(name: str, lhs: Expr, rhs: Expr, paper_ref: str,
                  default_degree: int = 60) -> Identity:
    return Identity(name, lhs, rhs, required_order(lhs, rhs), paper_ref, default_degree)


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
    counts = {"verified": 0, "failed": 0, "error": 0}
    for r in reports:
        counts[r.status] += 1
    return {
        "total": len(reports),
        "verified": counts["verified"],
        "failed": counts["failed"],
        "error": counts["error"],
    }


# -- the built-in catalog --------------------------------------------------------

_A = Var("a")
_B = Var("b")
_Q = Var("q")
_I = RootOfUnity(4, 1)
_OMEGA = RootOfUnity(3, 1)
_F_AB = ThetaCall(_A, _B)
_F_NEG = ThetaCall(Negate(_A), Negate(_B))
_F_II = ThetaCall(product_of([_I, _A]), product_of([_I, _B]))


def _mono_factors(p: int, q: int) -> list[Expr]:
    items: list[Expr] = []
    for var, e in ((_A, p), (_B, q)):
        if e == 0:
            continue
        items.append(var if e == 1 else Power(var, e))
    return items


def _mono_ast(p: int, q: int) -> Expr:
    return product_of(_mono_factors(p, q))


def _theta_ast(p1: int, q1: int, p2: int, q2: int) -> ThetaCall:
    return ThetaCall(_mono_ast(p1, q1), _mono_ast(p2, q2))


def _q_theta(e1: int, e2: int) -> ThetaCall:
    first = _Q if e1 == 1 else Power(_Q, e1)
    second = rational(1) if e2 == 0 else (_Q if e2 == 1 else Power(_Q, e2))
    return ThetaCall(first, second)


def _half(expr: Expr) -> Expr:
    return product_of([rational(1, 2), expr])


def _transform_identity(m: int) -> Identity:
    zeta = RootOfUnity(m, 1)
    lhs = ThetaCall(product_of([zeta, _A]), product_of([zeta, _B]))
    pieces = []
    for k in range(m):
        prefix, args = closed_form_parts(DissectionSpec(m, k))
        factors: list[Expr] = []
        root = RootOfUnity(m, k * k)
        if root.exponent != 0:
            factors.append(root)
        factors.extend(_mono_factors(prefix.p, prefix.q))
        factors.append(
            ThetaCall(
                _mono_ast(args.first.mono.p, args.first.mono.q),
                _mono_ast(args.second.mono.p, args.second.mono.q),
            )
        )
        pieces.append(product_of(factors))
    return make_identity(
        "thm_m%d" % m, lhs, sum_of(pieces),
        "modulus-%d root-of-unity transformation" % m,
    )


@functools.cache
def catalog_by_name() -> Mapping[str, Identity]:
    """The built-in identities by name, each carrying its notebook reference
    string. Built on first use and shared, so the mapping is read-only.

    The m=4 entries use the argument pairs produced by the closed form
    (second argument B_4 (ab)^(-4k)); see remark_im_parts for the negative
    exponents that brings in.
    """
    entries = [
        make_identity(
            "entry30_ii",
            _theta_ast(3, 1, 1, 3),
            _half(sum_of([_F_AB, _F_NEG])),
            "Berndt, Ramanujan's Notebooks III, p. 46, Entry 30(ii)",
        ),
        make_identity(
            "entry30_iii",
            product_of([_A, _theta_ast(5, 3, -1, 1)]),
            _half(sum_of([_F_AB, Negate(_F_NEG)])),
            "Berndt, Ramanujan's Notebooks III, p. 46, Entry 30(iii)",
        ),
        make_identity(
            "entry25_i",
            SpecializeQ(_theta_ast(3, 1, 1, 3)),
            SpecializeQ(_half(sum_of([_F_AB, _F_NEG]))),
            "Berndt, Ramanujan's Notebooks III, p. 40, Entry 25(i): a=b=q in Entry 30(ii)",
        ),
        make_identity(
            "entry25_ii",
            SpecializeQ(product_of([_A, _theta_ast(5, 3, -1, 1)])),
            SpecializeQ(_half(sum_of([_F_AB, Negate(_F_NEG)]))),
            "Berndt, Ramanujan's Notebooks III, p. 40, Entry 25(ii): a=b=q in Entry 30(iii)",
        ),
        make_identity(
            "entry7",
            ThetaCall(product_of([_OMEGA, _A]), product_of([_OMEGA, _B])),
            sum_of([
                product_of([_OMEGA, _F_AB]),
                product_of([sum_of([rational(1), Negate(_OMEGA)]), _theta_ast(6, 3, 3, 6)]),
            ]),
            "Berndt, Ramanujan's Notebooks IV, p. 144, Entry 7",
        ),
        make_identity(
            "entry9a",
            _F_II,
            sum_of([
                _theta_ast(10, 6, 6, 10),
                product_of([*_mono_factors(3, 1), _theta_ast(18, 14, -2, 2)]),
                product_of([
                    _I,
                    sum_of([
                        product_of([_A, _theta_ast(14, 10, 2, 6)]),
                        product_of([*_mono_factors(6, 3), _theta_ast(22, 18, -6, -2)]),
                    ]),
                ]),
            ]),
            "Berndt, Ramanujan's Notebooks IV, p. 146, Entry 9: four-term dissection form",
        ),
        make_identity(
            "entry9b",
            _F_II,
            sum_of([
                product_of([rational(1, 2), sum_of([rational(1), _I]), _F_AB]),
                product_of([rational(1, 2), sum_of([rational(1), Negate(_I)]), _F_NEG]),
            ]),
            "Berndt, Ramanujan's Notebooks IV, p. 146, Entry 9: compact form",
        ),
        make_identity(
            "remark_re",
            RealPart(_F_II),
            _theta_ast(3, 1, 1, 3),
            "real part of Entry 9 equals the Entry 30(ii) form",
        ),
        make_identity(
            "remark_re_parts",
            RealPart(_F_II),
            sum_of([
                _theta_ast(10, 6, 6, 10),
                product_of([*_mono_factors(3, 1), _theta_ast(18, 14, -2, 2)]),
            ]),
            "real part of Entry 9: even dissection components",
        ),
        make_identity(
            "remark_im",
            ImagPart(_F_II),
            product_of([_A, _theta_ast(5, 3, -1, 1)]),
            "imaginary part of Entry 9 equals the Entry 30(iii) form",
        ),
        make_identity(
            "remark_im_parts",
            ImagPart(_F_II),
            sum_of([
                product_of([_A, _theta_ast(14, 10, 2, 6)]),
                product_of([*_mono_factors(6, 3), _theta_ast(22, 18, -6, -2)]),
            ]),
            "imaginary part of Entry 9: odd dissection components",
        ),
        make_identity(
            "remark_q_re",
            SpecializeQ(RealPart(_F_II)),
            sum_of([
                _q_theta(16, 16),
                product_of([Power(_Q, 4), _q_theta(32, 0)]),
            ]),
            "a=b=q form of the even split of Entry 9",
        ),
        make_identity(
            "remark_q_im",
            SpecializeQ(ImagPart(_F_II)),
            sum_of([
                product_of([_Q, _q_theta(24, 8)]),
                product_of([Power(_Q, 9), _q_theta(40, -8)]),
            ]),
            "a=b=q form of the odd split of Entry 9",
        ),
    ]
    for m in range(2, 9):
        entries.append(_transform_identity(m))
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
