from fractions import Fraction

import pytest

from conftest import make_series, plain_theta_args, schoolbook_fold
from thetadissect.cyclotomic import zeta_power
from thetadissect.errors import NonConvergent
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial
from thetadissect.theta import (
    ThetaArgs, pochhammer_expand, term_degree, theta_expand, theta_index_range,
    triple_product_rhs,
)


def args_of(c1, p1, q1, c2, p2, q2, order=1):
    return ThetaArgs(
        ScaledMonomial.make(c1, p1, q1, order),
        ScaledMonomial.make(c2, p2, q2, order),
    )


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
    series = theta_expand(args_of(i, 1, 0, i, 0, 1, order=4), 4)
    assert series == make_series(expected, 4, order=4)
    assert series.render() == "1 + zeta4*a + zeta4*b + a^3*b + a*b^3"


def test_negative_bound_collects_negative_degree_terms():
    # arguments of the (m=4, k=3) closed form: degrees 40 and -8
    args = args_of(1, 22, 18, 1, -6, -2)
    s = theta_expand(args, -7)
    assert s == make_series({(-6, -2): 1}, -7)
    assert theta_expand(args, -49).is_zero()


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
    i = zeta_power(4, 1)
    w = zeta_power(3, 1)
    pairs = [
        args_of(1, 1, 0, 1, 0, 1),
        args_of(1, 3, 1, 1, 1, 3),
        args_of(i, 1, 0, i, 0, 1, order=4),
        args_of(w, 2, 1, -1, 1, 2, order=3),
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
        rng = theta_index_range(args, bound)
        for n in range(rng.start - 5, rng.stop + 5):
            inside = rng.start <= n < rng.stop
            assert inside == (term_degree(args, n) <= bound)


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
