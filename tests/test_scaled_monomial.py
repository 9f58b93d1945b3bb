"""The typed coefficient of ScaledMonomial, (ratio r, exponent e) standing for
r * zeta_L^e, against arithmetic on the same values as CycloNum elements."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from thetadissect.cyclotomic import CycloNum, zeta_power
from thetadissect.errors import OrderMismatch
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial
from thetadissect.theta import ThetaArgs, theta_expand

_orders = st.integers(1, 30)
_ratios = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(lambda r: r != 0)
_exponents = st.integers(-90, 90)
_monos = st.builds(Monomial, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def scaled_pairs(draw):
    """Two scaled monomials over one order."""
    order = draw(_orders)
    return tuple(
        ScaledMonomial(draw(_ratios), draw(_exponents), order, draw(_monos)) for _ in range(2)
    )


@given(_orders, _ratios, _exponents, _monos)
def test_coeff_is_the_scaled_root(order, r, e, mono):
    s = ScaledMonomial(r, e, order, mono)
    assert s.coeff == zeta_power(order, e) * r
    assert 0 <= s.exponent < order
    assert s.ratio > 0 or order % 2 == 1
    assert ScaledMonomial.make(s.coeff, mono.p, mono.q) == s


@given(_orders, _exponents, _monos)
def test_minus_one_is_the_half_turn_for_even_orders(half, e, mono):
    order = 2 * half
    assert ScaledMonomial(-1, e, order, mono) == ScaledMonomial(1, e + half, order, mono)
    assert ScaledMonomial(-1, e, order, mono).coeff == -zeta_power(order, e)


@given(scaled_pairs())
def test_product_and_negation_match_cyclonum(pair):
    x, y = pair
    assert (x * y).coeff == x.coeff * y.coeff
    assert (x * y).mono == x.mono * y.mono
    assert (-x).coeff == -x.coeff
    assert (-x).mono == x.mono
    assert (x == y) == (x.coeff == y.coeff and x.mono == y.mono)


@given(scaled_pairs(), st.integers(-7, 7))
def test_powers_match_cyclonum(pair, n):
    x, _ = pair
    power = x ** n
    assert power.mono == x.mono ** n
    if n >= 0:
        assert power.coeff == x.coeff ** n
    else:
        assert (power.coeff * x.coeff ** -n).is_one()


def test_negative_power_of_scaled_root():
    x = ScaledMonomial.make(zeta_power(12, 5) * Fraction(3, 7), 1, -2)
    inv = x ** -1
    assert inv == ScaledMonomial(Fraction(7, 3), 7, 12, Monomial(-1, 2))
    assert (x * inv).coeff.is_one() and (x * inv).mono == Monomial(0, 0)
    with pytest.raises(ValueError):
        ScaledMonomial.make(CycloNum.zero(4), 0, 0)
    with pytest.raises(ValueError):
        ScaledMonomial.make(CycloNum(4, (1, 1), 2), 0, 0)
    with pytest.raises(ValueError):  # only ScaledMonomial takes negative powers
        zeta_power(12, 5) ** -1


def test_product_needs_one_order():
    with pytest.raises(OrderMismatch):
        ScaledMonomial.make(1, 1, 0, 3) * ScaledMonomial.make(1, 0, 1, 4)


def _direct_theta(x_coeff, x_mono, y_coeff, y_mono, order, bound):
    """sum over n of x^(n(n+1)/2) y^(n(n-1)/2), each coefficient a CycloNum
    power, over a window of n wide enough for the argument degrees drawn."""
    d1, d2 = x_mono.total_degree, y_mono.total_degree
    entries = []
    for n in range(-40, 41):
        t, u = n * (n + 1) // 2, n * (n - 1) // 2
        if d1 * t + d2 * u <= bound:
            entries.append((x_mono ** t * y_mono ** u, x_coeff ** t * y_coeff ** u))
    return LaurentSeries.make(entries, bound, order)


@settings(max_examples=60, deadline=None)
@given(_orders, _ratios, _exponents, _ratios, _exponents,
       st.tuples(st.integers(0, 3), st.integers(-1, 2)),
       st.tuples(st.integers(-1, 3), st.integers(-1, 2)),
       st.integers(-2, 12))
def test_theta_expand_matches_direct_cyclonum_sum(order, r1, e1, r2, e2, m1, m2, bound):
    x_mono, y_mono = Monomial(*m1), Monomial(*m2)
    assume(x_mono.total_degree + y_mono.total_degree > 0)
    x_coeff = zeta_power(order, e1) * r1
    y_coeff = zeta_power(order, e2) * r2
    args = ThetaArgs(ScaledMonomial(r1, e1, order, x_mono),
                     ScaledMonomial(r2, e2, order, y_mono))
    assert theta_expand(args, bound) == _direct_theta(x_coeff, x_mono, y_coeff, y_mono, order, bound)
