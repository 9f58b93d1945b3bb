"""Ramanujan theta kernel f(x, y) = sum over all integers n of
x^(n(n+1)/2) * y^(n(n-1)/2), expanded at scaled-monomial arguments, plus
q-Pochhammer products and the triple-product form
(-x; xy) * (-y; xy) * (xy; xy).

Formal admissibility: writing d1, d2 for the total degrees of the two
argument monomials, the expansion has finitely many terms per total degree
iff d1 + d2 > 0. That rule is this engine's formal counterpart of the
analytic |xy| < 1 condition and is enforced on construction of ThetaArgs.
The triple-product form needs each of its three Pochhammer arguments to
climb in degree, so it additionally requires d1 > 0 and d2 > 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycloNum, zeta_power
from .errors import NonConvergent, OrderMismatch
from .laurent import LaurentSeries, Monomial, ScaledMonomial


def _tri_up(n: int) -> int:
    return n * (n + 1) // 2


def _tri_down(n: int) -> int:
    return n * (n - 1) // 2


@dataclass(frozen=True)
class ThetaArgs:
    first: ScaledMonomial
    second: ScaledMonomial

    def __post_init__(self):
        if self.first.order != self.second.order:
            raise OrderMismatch(
                "theta argument coefficient orders differ: %d vs %d"
                % (self.first.order, self.second.order)
            )
        if self.first.total_degree + self.second.total_degree <= 0:
            raise NonConvergent(
                "theta argument degrees d1=%d, d2=%d need d1+d2 > 0"
                % (self.first.total_degree, self.second.total_degree)
            )

    @property
    def order(self) -> int:
        return self.first.order


def term_degree(args: ThetaArgs, n: int) -> int:
    """Total degree of the index-n term: d1*n(n+1)/2 + d2*n(n-1)/2."""
    return args.first.total_degree * _tri_up(n) + args.second.total_degree * _tri_down(n)


def theta_index_range(args: ThetaArgs, bound: int) -> range:
    """All integers n whose term has total degree <= bound.

    The degree is an upward parabola in n; we walk outward from the integer
    floor of its vertex, so no floating point is involved and no index can be
    missed. The range is empty when even the vertex exceeds the bound.
    """
    d1 = args.first.total_degree
    d2 = args.second.total_degree
    vertex = Fraction(-(d1 - d2), 2 * (d1 + d2))
    n0 = math.floor(vertex)
    lo = n0
    while term_degree(args, lo) <= bound:
        lo -= 1
    hi = n0 + 1
    while term_degree(args, hi) <= bound:
        hi += 1
    return range(lo + 1, hi)


def theta_expand(args: ThetaArgs, bound: int) -> LaurentSeries:
    """Expand f(first, second) including exactly the indices of total degree
    <= bound; the result is exact through that bound.

    Negative bounds are legal: the parabola can dip below zero when one
    argument has negative degree, and dissection budgets exploit that.
    """
    order = args.order
    x, y = args.first, args.second
    rational = x.ratio != 1 or y.ratio != 1
    entries = []
    for n in theta_index_range(args, bound):
        t, u = _tri_up(n), _tri_down(n)
        # (r1 zeta^e1)^t (r2 zeta^e2)^u = r1^t r2^u zeta^(e1 t + e2 u)
        coeff = zeta_power(order, x.exponent * t + y.exponent * u)
        if rational:
            coeff = coeff * (x.ratio ** t * y.ratio ** u)
        entries.append((x.mono ** t * y.mono ** u, coeff))
    return LaurentSeries.make(entries, bound, order)


def pochhammer_expand(x: ScaledMonomial, qq: ScaledMonomial, bound: int) -> LaurentSeries:
    """(x; qq)_inf = product over k >= 0 of (1 - x*qq^k), truncated.

    Factors are included while deg(x*qq^k) <= bound; for nonnegative-degree x
    the omitted factors only touch degrees beyond the bound, so the result is
    exact through it. For negative-degree x the validity calculus of the
    series product reports the honest (smaller) bound.
    """
    if qq.total_degree <= 0:
        raise NonConvergent("Pochhammer ratio degree %d must be positive" % qq.total_degree)
    if x.order != qq.order:
        raise OrderMismatch("Pochhammer coefficient orders differ")
    order = x.order
    # one(bound) first: it sets the validity the product starts from
    factors = [LaurentSeries.one(bound, order)]
    term = x
    while term.total_degree <= bound:
        factors.append(LaurentSeries.make(
            [(Monomial(0, 0), CycloNum.one(order)), (term.mono, -term.coeff)], bound, order
        ))
        term = term * qq
    return LaurentSeries.product(factors)


def triple_product_rhs(args: ThetaArgs, bound: int) -> LaurentSeries:
    """(-x; xy) * (-y; xy) * (xy; xy) for x, y = args; the product form of the
    theta kernel, kept as an independent path from theta_expand."""
    if args.first.total_degree <= 0 or args.second.total_degree <= 0:
        raise NonConvergent(
            "triple product needs both argument degrees positive, got %d and %d"
            % (args.first.total_degree, args.second.total_degree)
        )
    x, y = args.first, args.second
    xy = x * y
    p1 = pochhammer_expand(-x, xy, bound)
    p2 = pochhammer_expand(-y, xy, bound)
    p3 = pochhammer_expand(xy, xy, bound)
    return LaurentSeries.product((p1, p2, p3))
