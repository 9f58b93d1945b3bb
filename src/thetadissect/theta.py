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

The theta sum runs on integers, T(n) = n(n+1)/2 and T(-n) as exponents, a
ratio read as its numerator and denominator: no Fraction is built. Its cost
is read off the index range first, and a sum past MAX_THETA_TERMS indices
or MAX_THETA_BITS bits of ratio powers raises RequestTooLarge. So does a
Pochhammer ladder past MAX_THETA_TERMS factors, counted from the degrees.
This module alone reads MAX_THETA_TERMS: theta sums, ladders and the
dissection windows of dissect.py all hand their index range to
check_index_cap.
"""
from __future__ import annotations

import math

from .cyclotomic import CycloNum, _digits, _zeta_powers
from .errors import NonConvergent, RequestTooLarge, check_orders
from .laurent import LaurentSeries, Monomial, ScaledMonomial, ratio_bits
from .record import Record, set_field

# a theta sum, a Pochhammer ladder, a dissection filter or a whole dissection
# run with more indices than this is refused before its first term is built
MAX_THETA_TERMS = 1 << 18
# and so is a theta sum whose index count times the bits of its largest ratio
# power passes this budget
MAX_THETA_BITS = 1 << 24


def check_index_cap(what: str, indices: range) -> int:
    """The number of indices in the window, counted from its ends for any
    step, since len() overflows past 2^63; past MAX_THETA_TERMS it raises
    RequestTooLarge, naming `what` and the count in full."""
    count = (indices[-1] - indices[0]) // indices.step + 1 if indices else 0
    if count > MAX_THETA_TERMS:
        raise RequestTooLarge("%s of %s indices passes the %d-index cap"
                              % (what, _digits(count), MAX_THETA_TERMS))
    return count


class ThetaArgs(Record):
    __slots__ = ("first", "second")

    def __init__(self, first: ScaledMonomial, second: ScaledMonomial):
        check_orders("theta argument", first.order, second.order)
        if first.total_degree + second.total_degree <= 0:
            raise NonConvergent(
                "theta argument degrees d1=%d, d2=%d need d1+d2 > 0"
                % (first.total_degree, second.total_degree)
            )
        set_field(self, "first", first)
        set_field(self, "second", second)

    @property
    def order(self) -> int:
        return self.first.order


def theta_index_range(args: ThetaArgs, bound: int) -> range:
    """All integers n whose term has total degree <= bound.

    With s = d1 + d2 > 0 and t = d1 - d2, the index-n term has degree
    d1*n(n+1)/2 + d2*n(n-1)/2 = (s*n^2 + t*n)/2, which is <= bound iff
    (2*s*n + t)^2 <= t^2 + 8*s*bound, that is iff |2*s*n + t| <= r for
    r = isqrt(t^2 + 8*s*bound). So the range is closed-form integer
    arithmetic, empty when t^2 + 8*s*bound < 0 (the vertex is above the bound).
    """
    s = args.first.total_degree + args.second.total_degree
    t = args.first.total_degree - args.second.total_degree
    disc = t * t + 8 * s * bound
    if disc < 0:
        return range(0)
    r = math.isqrt(disc)
    return range(-((r + t) // (2 * s)), (r - t) // (2 * s) + 1)


def theta_expand(args: ThetaArgs, bound: int) -> LaurentSeries:
    """Expand f(first, second) including exactly the indices of total degree
    <= bound; the result is exact through that bound.

    Negative bounds are legal: the parabola can dip below zero when one
    argument has negative degree, and dissection budgets exploit that.

    For x = r1 zeta^e1 a^p1 b^q1 and y = r2 zeta^e2 a^p2 b^q2 the index-n term
    is r1^t r2^u zeta^(e1 t + e2 u) a^(p1 t + p2 u) b^(q1 t + q2 u) with
    t = T(n), u = T(-n): integer arithmetic on exponents, a row of the shared
    table of root powers, and, for ratios other than 1, their numerators and
    denominators raised to t and u. Each term's coefficient is built once.
    Two indices meet on one monomial only for proportional arguments, such as
    f(a, 1) or f(q, -q); LaurentSeries.make sums their coefficients and drops
    the zeros.

    Before any term, the index count must be at most MAX_THETA_TERMS and the
    count times the bits of the largest ratio power at most MAX_THETA_BITS,
    or RequestTooLarge is raised. T(n) and T(-n) peak at the range's ends,
    and a ratio of +-1 costs no bits (laurent.ratio_bits).
    """
    order = args.order
    x, y = args.first, args.second
    (p1, q1), (p2, q2) = x.mono, y.mono
    e1, e2 = x.exponent, y.exponent
    n1, d1 = x.ratio.numerator, x.ratio.denominator
    n2, d2 = y.ratio.numerator, y.ratio.denominator
    rational = n1 != 1 or d1 != 1 or n2 != 1 or d2 != 1
    indices = theta_index_range(args, bound)
    count = check_index_cap("theta sum", indices)
    b1, b2 = ratio_bits(x.ratio), ratio_bits(y.ratio)
    bits = max((n * n + n) // 2 * b1 + (n * n - n) // 2 * b2
               for n in (indices.start, indices.stop - 1))
    if count * bits > MAX_THETA_BITS:
        raise RequestTooLarge(
            "theta sum of %d indices with ratio powers of up to %d bits passes the"
            " %d-bit budget" % (count, bits, MAX_THETA_BITS))
    powers = _zeta_powers(order)
    entries = []
    for n in indices:
        t = n * (n + 1) // 2
        u = t - n  # T(-n) = n(n-1)/2
        coeff = powers[(e1 * t + e2 * u) % order]
        if rational:
            coeff = coeff.scaled(n1 ** t * n2 ** u, d1 ** t * d2 ** u)
        entries.append((Monomial(p1 * t + p2 * u, q1 * t + q2 * u), coeff))
    return LaurentSeries.make(entries, bound, order)


def pochhammer_expand(x: ScaledMonomial, qq: ScaledMonomial, bound: int) -> LaurentSeries:
    """(x; qq)_inf = product over k >= 0 of (1 - x*qq^k), truncated.

    Factors are included while deg(x*qq^k) <= bound; for nonnegative-degree x
    the omitted factors only touch degrees beyond the bound, so the result is
    exact through it. For negative-degree x the validity calculus of the
    series product reports the honest (smaller) bound. The factor count is
    read off the degrees first, and more than MAX_THETA_TERMS factors raise
    RequestTooLarge.
    """
    if qq.total_degree <= 0:
        raise NonConvergent("Pochhammer ratio degree %d must be positive" % qq.total_degree)
    check_orders("Pochhammer", x.order, qq.order)
    order = x.order
    # the degrees of the factors x*qq^k
    ladder = range(x.total_degree, bound + 1, qq.total_degree)
    check_index_cap("Pochhammer ladder", ladder)
    # one(bound) first: it sets the validity the product starts from
    factors = [LaurentSeries.one(bound, order)]
    one = CycloNum.one(order)
    term = x
    for _ in ladder:
        factors.append(LaurentSeries.make([(Monomial(0, 0), one), (term.mono, -term.coeff)],
                                          bound, order))
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
