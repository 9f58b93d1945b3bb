from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    KERNEL_ORDERS, fraction_terms, make_series, orc, plain_theta_args, schoolbook_fold,
)
from thetadissect.catalog import evaluate
from thetadissect.cyclotomic import CycloNum, zeta_power
from thetadissect import dissect, theta
from thetadissect.dissect import dissect_filter
from thetadissect.errors import NonConvergent, OrderMismatch, RequestTooLarge
from thetadissect.exprlang import parse_expr
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial
from thetadissect.theta import (
    ThetaArgs, check_index_cap, pochhammer_expand, theta_expand, theta_index_range,
    triple_product_rhs,
)


def args_of(c1, p1, q1, c2, p2, q2, order=1):
    """f(c1*a^p1*b^q1, c2*a^p2*b^q2), each c a ratio r or a pair (r, e)
    standing for r * zeta_order^e."""
    def scaled(c, p, q):
        ratio, e = c if isinstance(c, tuple) else (c, 0)
        return ScaledMonomial(ratio, e, order, Monomial(p, q))
    return ThetaArgs(scaled(c1, p1, q1), scaled(c2, p2, q2))


def test_f_ab_through_9():
    s = theta_expand(plain_theta_args(), 9)
    assert s.render() == "1 + a + b + a^3*b + a*b^3 + a^6*b^3 + a^3*b^6"
    assert s.validity == 9


def test_f_neg_through_4():
    s = theta_expand(args_of(-1, 1, 0, -1, 0, 1), 4)
    assert s.render() == "1 - a - b + a^3*b + a*b^3"


def test_nonconvergent_arguments():
    with pytest.raises(NonConvergent):
        args_of(1, 1, 0, 1, -1, 0)  # f(a, a^-1): d1 + d2 = 0


def test_f_ia_ib_against_direct_sum():
    # independent oracle: walk n in a window wide enough for degree 4 by hand
    i = zeta_power(4, 1)
    expected = {}
    for n in range(-2, 3):
        t, u = n * (n + 1) // 2, n * (n - 1) // 2
        if t + u <= 4:
            expected[(t, u)] = i ** (n * n)
    series = theta_expand(args_of((1, 1), 1, 0, (1, 1), 0, 1, order=4), 4)
    assert series == make_series(expected, 4, order=4)
    assert series.render() == "1 + zeta4*a + zeta4*b + a^3*b + a*b^3"


def test_negative_bound_collects_negative_degree_terms():
    # arguments of the (m=4, k=3) closed form: degrees 40 and -8
    args = args_of(1, 22, 18, 1, -6, -2)
    s = theta_expand(args, -7)
    assert s == make_series({(-6, -2): 1}, -7)
    assert not theta_expand(args, -49).terms


def test_pochhammer_a_ab_through_2():
    s = pochhammer_expand(ScaledMonomial.make(1, 1, 0), ScaledMonomial.make(1, 1, 1), 2)
    assert s.render() == "1 - a"
    assert s.validity == 2


def test_pochhammer_high_degree_argument_is_one():
    s = pochhammer_expand(ScaledMonomial.make(1, 4, 4), ScaledMonomial.make(1, 1, 1), 5)
    assert s == make_series({(0, 0): 1}, 5)


def pochhammer_fold(x, qq, bound):
    """(x; qq) through bound, one factor 1 - x*qq^k at a time on the
    schoolbook product, starting from 1 exact through bound."""
    factors = [LaurentSeries.one(bound, x.order)]
    term = x
    while term.total_degree <= bound:
        factors.append(make_series({(0, 0): 1, (term.mono.p, term.mono.q): -term.coeff},
                                   bound, x.order))
        term = term * qq
    return schoolbook_fold(factors)[-1]


def test_pochhammer_negative_degree_argument():
    # factors 1 - a^-1, 1 - b, 1 - a*b^2, 1 - a^2*b^3: the a^-1 lowers the
    # bound to 5, and the first omitted factor, 1 - a^3*b^4, only touches
    # degree 6 (a^-1 * a^3*b^4) and up
    x, qq = ScaledMonomial.make(1, -1, 0), ScaledMonomial.make(1, 1, 1)
    s = pochhammer_expand(x, qq, 6)
    expected = pochhammer_fold(x, qq, 6)
    assert s.validity == expected.validity == 5
    assert s.terms == expected.terms


def test_pochhammer_scaled_root_argument():
    x = ScaledMonomial(Fraction(1, 2), 5, 12, Monomial(1, 0))  # 1/2 * zeta12^5 * a
    qq = ScaledMonomial(1, 0, 12, Monomial(1, 1))
    s = pochhammer_expand(x, qq, 12)
    expected = pochhammer_fold(x, qq, 12)
    assert s.validity == expected.validity == 12
    assert s.terms == expected.terms
    assert s.coefficient(Monomial(1, 0)) == -x.coeff


def test_pochhammer_nonconvergent_ratio():
    with pytest.raises(NonConvergent):
        pochhammer_expand(ScaledMonomial.make(1, 1, 0), ScaledMonomial.make(1, 1, -1), 5)


def test_arguments_of_two_orders_are_refused():
    x, y = ScaledMonomial.make(1, 1, 0, 3), ScaledMonomial.make(1, 0, 1, 4)
    with pytest.raises(OrderMismatch):
        ThetaArgs(x, y)
    with pytest.raises(OrderMismatch):
        pochhammer_expand(x, y, 5)


_ORDER_3, _ORDER_4 = LaurentSeries.one(3, 3), LaurentSeries.one(3, 4)


# every operation that combines two orders raises through errors.check_orders
@pytest.mark.parametrize("call, message", [
    (lambda: CycloNum.one(3) + CycloNum.one(4), "coefficient orders differ: 3 vs 4"),
    (lambda: CycloNum.one(3) * CycloNum.one(4), "coefficient orders differ: 3 vs 4"),
    (lambda: ScaledMonomial.make(1, 1, 0, 3) * ScaledMonomial.make(1, 0, 1, 4),
     "scaled monomial orders differ: 3 vs 4"),
    (lambda: LaurentSeries.make([(Monomial(0, 0), CycloNum.one(4))], 3, 3),
     "coefficient and series orders differ: 4 vs 3"),
    (lambda: LaurentSeries.sum([_ORDER_3, _ORDER_3, _ORDER_4]), "series orders differ: 3 vs 4"),
    (lambda: LaurentSeries.product([_ORDER_3, _ORDER_4]), "series orders differ: 3 vs 4"),
    (lambda: _ORDER_3.scale(ScaledMonomial.make(1, 0, 0, 4)),
     "scalar and series orders differ: 4 vs 3"),
    (lambda: _ORDER_3.first_mismatch(_ORDER_4, 3), "series orders differ: 3 vs 4"),
    (lambda: ThetaArgs(ScaledMonomial.make(1, 1, 0, 3), ScaledMonomial.make(1, 0, 1, 4)),
     "theta argument orders differ: 3 vs 4"),
    (lambda: pochhammer_expand(ScaledMonomial.make(1, 1, 0, 3),
                               ScaledMonomial.make(1, 0, 1, 4), 5),
     "Pochhammer orders differ: 3 vs 4"),
], ids=["coefficient-sum", "coefficient-product", "scaled-monomial-product", "make", "sum",
        "product", "scale", "first_mismatch", "ThetaArgs", "pochhammer_expand"])
def test_every_order_mismatch_names_both_orders(call, message):
    with pytest.raises(OrderMismatch) as info:
        call()
    assert str(info.value) == message


def test_triple_product_matches_theta_at_9():
    args = plain_theta_args()
    assert triple_product_rhs(args, 9) == theta_expand(args, 9)


def test_triple_product_matches_theta_at_300():
    args = plain_theta_args()
    assert triple_product_rhs(args, 300) == theta_expand(args, 300)


def test_triple_product_matches_theta_scaled_args_16():
    args = args_of(1, 3, 1, 1, 1, 3)
    lhs = theta_expand(args, 16)
    rhs = triple_product_rhs(args, 16)
    assert lhs.first_mismatch(rhs, 16) is None


def test_triple_product_degree0_is_one():
    assert triple_product_rhs(plain_theta_args(), 0).render() == "1"


def test_triple_product_needs_positive_degrees():
    with pytest.raises(NonConvergent):
        triple_product_rhs(args_of(1, 2, 0, 1, -1, 0), 10)


def test_triple_product_equality_several_argument_pairs():
    pairs = [
        args_of(1, 1, 0, 1, 0, 1),
        args_of(1, 3, 1, 1, 1, 3),
        args_of((1, 1), 1, 0, (1, 1), 0, 1, order=4),
        args_of((1, 1), 2, 1, -1, 1, 2, order=3),
        args_of(Fraction(1, 2), 1, 0, 2, 0, 1),
    ]
    for args in pairs:
        lhs = theta_expand(args, 50)
        rhs = triple_product_rhs(args, 50)
        assert lhs.first_mismatch(rhs, 50) is None


def test_index_range_completeness():
    cases = [
        (plain_theta_args(), 60),
        (args_of(1, 22, 18, 1, -6, -2), 60),
        (args_of(1, 5, 3, 1, -1, 1), 35),
        (args_of(1, 1, 0, 1, 0, 1), 0),
    ]
    for args, bound in cases:
        assert_index_range_complete(args, bound)


def assert_index_range_complete(args, bound):
    """theta_index_range holds exactly the n with d1*n(n+1)/2 + d2*n(n-1)/2
    <= bound; the degree is convex in n, so five indices past each end
    suffice."""
    d1, d2 = args.first.total_degree, args.second.total_degree
    rng = theta_index_range(args, bound)
    for n in range(rng.start - 5, rng.stop + 5):
        inside = rng.start <= n < rng.stop
        assert inside == (d1 * n * (n + 1) // 2 + d2 * n * (n - 1) // 2 <= bound)


@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12),
       st.integers(-200, 2000))
@settings(max_examples=300, deadline=None)
def test_index_range_completeness_random_arguments(p1, q1, p2, q2, bound):
    assume(p1 + q1 + p2 + q2 > 0)
    assert_index_range_complete(args_of(1, p1, q1, 1, p2, q2), bound)


def test_symmetry_in_the_two_arguments():
    lhs = theta_expand(plain_theta_args(), 40)
    swapped = ThetaArgs(ScaledMonomial.make(1, 0, 1), ScaledMonomial.make(1, 1, 0))
    rhs = theta_expand(swapped, 40)
    assert lhs == rhs


def test_univariate_one_argument():
    # f(x, 1) is legal: d1 + d2 = deg(x) > 0; indices n and -n-1 coincide,
    # so every triangular exponent of x shows up twice
    s = theta_expand(args_of(1, 8, 0, 1, 0, 0), 32)
    assert s == make_series({(0, 0): 2, (8, 0): 2, (24, 0): 2}, 32)


RATIOS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3), Fraction(3, 2))


@st.composite
def kernel_cases(draw):
    """Theta arguments over a kernel order, any ratio in RATIOS and any root
    exponent, with monomials of either sign of degree, and a bound that may
    be negative. Half the time the second monomial is a multiple of the
    first (0 gives f(x, 1), 1 gives f(x, +-x)), where indices meet."""
    order = draw(st.sampled_from(KERNEL_ORDERS))
    exps = st.integers(-4, 6)
    p1, q1 = draw(exps), draw(exps)
    if draw(st.booleans()):
        k = draw(st.integers(-2, 3))
        p2, q2 = k * p1, k * q1
    else:
        p2, q2 = draw(exps), draw(exps)
    assume(p1 + q1 + p2 + q2 > 0)
    first, second = (ScaledMonomial(draw(st.sampled_from(RATIOS)), draw(st.integers(-40, 40)),
                                    order, mono)
                     for mono in (Monomial(p1, q1), Monomial(p2, q2)))
    return ThetaArgs(first, second), draw(st.integers(-30, 60))


def index_order(x, y, bound):
    """The monomials of the indices n of f(x, y) with degree <= bound, n
    ascending, each at the last n that reaches it, where the terms that meet
    on it are summed. With s = d1 + d2 >= 1 and t = d1 - d2 the index-n
    degree (s*n^2 + t*n)/2 is at least |n|(|n| - |t|)/2, which passes |bound|
    once |n| > |t| + 2|bound|."""
    (_, _, p1, q1), (_, _, p2, q2) = x, y
    d1, d2 = p1 + q1, p2 + q2
    reach = abs(d1 - d2) + 2 * abs(bound) + 1
    order = {}
    for n in range(-reach, reach + 1):
        t, u = n * (n + 1) // 2, n * (n - 1) // 2
        if d1 * t + d2 * u <= bound:
            mono = (p1 * t + p2 * u, q1 * t + q2 * u)
            order.pop(mono, None)
            order[mono] = None
    return list(order)


@given(kernel_cases())
@settings(max_examples=400, deadline=None)
def test_theta_expand_matches_the_fraction_power_reference(case):
    args, bound = case
    x, y = ((s.ratio, s.exponent, *s.mono) for s in (args.first, args.second))
    got, expected = theta_expand(args, bound), orc.theta_direct(x, y, bound, args.order)
    assert (got.validity, got.order) == (bound, args.order)
    assert fraction_terms(got) == expected
    # terms stand in index order; a monomial two indices meet on stands at the last
    assert list(got.terms) == [m for m in index_order(x, y, bound) if m in expected]


@pytest.mark.parametrize("order", [1, 2, 4])
def test_f_q_minus_q_equals_f_minus_q4_minus_q4_at_400(order):
    # f(q, -q): indices n and -n meet on q^(n^2) with signs (-1)^T(n) and
    # (-1)^T(-n), which cancel for odd n; f(-q^4, -q^4): they meet on
    # q^(4n^2) with one sign. Each side is 1 + 2 * sum of (-1)^j q^(4j^2).
    lhs = evaluate(parse_expr("f(q, -q)")[0], 400, order)
    rhs = evaluate(parse_expr("f(-q^4, -q^4)")[0], 400, order)
    expected = {(0, 0): 1, **{(4 * j * j, 0): 2 * (-1) ** j for j in range(1, 11)}}
    assert lhs == rhs == make_series(expected, 400, order)
    assert lhs.term_count == 11


def test_the_index_cap_holds_at_its_edge(monkeypatch):
    # f(a, b) at degree 8 has the 5 indices -2..2, and its class n = 0 mod 2
    # the 3 indices -2, 0, 2
    monkeypatch.setattr(theta, "MAX_THETA_TERMS", 5)
    assert theta_expand(plain_theta_args(), 8).term_count == 5
    with pytest.raises(RequestTooLarge):
        theta_expand(plain_theta_args(), 12)
    monkeypatch.setattr(theta, "MAX_THETA_TERMS", 3)
    assert dissect_filter(2, 0, 8).term_count == 3
    with pytest.raises(RequestTooLarge):
        dissect_filter(2, 0, 16)


def test_the_theta_cap_alone_bounds_every_dissection_window(monkeypatch):
    # dissect.py keeps no copy of the cap. At degree 16 the class n = 1 mod 3
    # holds the 3 indices -2, 1, 4 and at degree 25 also -5; a run over every
    # class holds the 3 indices -1..1 at degree 1 and the 5 indices -2..2 at 4
    monkeypatch.setattr(theta, "MAX_THETA_TERMS", 3)
    assert dissect_filter(3, 1, 16).term_count == 3
    with pytest.raises(RequestTooLarge,
                       match="^dissection filter of 4 indices passes the 3-index cap$"):
        dissect_filter(3, 1, 25)
    dissect.check_run_size(1)
    with pytest.raises(RequestTooLarge,
                       match="^dissection run of 5 indices passes the 3-index cap$"):
        dissect.check_run_size(4)


def test_the_index_cap_counts_a_window_from_its_ends(monkeypatch):
    for window in (range(5), range(-3, 9, 4), range(10, 0, -3), range(4, 4), range(7, 3),
                   range(3, 7, -1)):
        assert check_index_cap("window", window) == len(window)
    # len() overflows past 2^63; the count is read off the ends at any step
    # and named in full
    count = (2 * 10 ** 30 + 6) // 7
    for window in (range(-10 ** 30, 10 ** 30, 7), range(10 ** 30, -10 ** 30, -7)):
        with pytest.raises(RequestTooLarge,
                           match="^window of %d indices passes the %d-index cap$"
                           % (count, theta.MAX_THETA_TERMS)):
            check_index_cap("window", window)
        monkeypatch.setattr(theta, "MAX_THETA_TERMS", count)
        assert check_index_cap("window", window) == count
        monkeypatch.undo()


def test_the_ladder_cap_holds_at_its_edge(monkeypatch):
    # (a^-1; a*b) at degree 6 has the 4 factors of degrees -1, 1, 3 and 5,
    # at degree 7 a fifth, and none below degree -1
    x, qq = ScaledMonomial.make(1, -1, 0), ScaledMonomial.make(1, 1, 1)
    monkeypatch.setattr(theta, "MAX_THETA_TERMS", 4)
    assert pochhammer_expand(x, qq, 6) == pochhammer_fold(x, qq, 6)
    with pytest.raises(RequestTooLarge):
        pochhammer_expand(x, qq, 7)
    monkeypatch.setattr(theta, "MAX_THETA_TERMS", 0)
    assert pochhammer_expand(x, qq, -2) == LaurentSeries.one(-2)
    with pytest.raises(RequestTooLarge):
        pochhammer_expand(x, qq, -1)


def test_a_triple_product_past_the_ladder_cap_is_refused():
    # 5*10^19 factors in the first ladder: refused before any is built
    with pytest.raises(RequestTooLarge, match="Pochhammer ladder of 50000000000000000000 indices"):
        triple_product_rhs(plain_theta_args(), 10 ** 20)


def test_the_bit_budget_holds_at_its_edge(monkeypatch):
    # f(2*a, b) at degree 30000: 347 indices, 2^15051 at both ends, 3 bits for 2
    args = args_of(2, 1, 0, 1, 0, 1)
    assert len(theta_index_range(args, 30000)) == 347
    monkeypatch.setattr(theta, "MAX_THETA_BITS", 347 * 15051 * 3)
    assert theta_expand(args, 30000).term_count == 347
    monkeypatch.setattr(theta, "MAX_THETA_BITS", 347 * 15051 * 3 - 1)
    with pytest.raises(RequestTooLarge):
        theta_expand(args, 30000)
    # a ratio of -1 costs no bits
    monkeypatch.setattr(theta, "MAX_THETA_BITS", 0)
    assert theta_expand(args_of(-1, 1, 0, -1, 0, 1), 30000).term_count == 347
