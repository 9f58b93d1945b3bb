from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_series
from thetadissect.cyclotomic import CycloNum, zeta_power
from thetadissect.errors import EmptySeries, OrderMismatch, ValidityExceeded
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial


def test_add_examples():
    x = make_series({(0, 0): 1, (1, 0): 1}, 5)
    y = make_series({(0, 0): 1, (0, 1): 1}, 5)
    assert (x + y) == make_series({(0, 0): 2, (1, 0): 1, (0, 1): 1}, 5)


def test_additive_inverse_cancels_to_zero():
    x = make_series({(2, 1): Fraction(3, 4), (0, 0): -2}, 6)
    total = x + (-x)
    assert total.is_zero()
    assert total.render() == "0"
    assert total.validity == 6


def test_add_validity_is_min_and_prunes_above_it():
    x = make_series({(3, 0): 1}, 10)
    y = make_series({(0, 1): 1}, 1)
    total = x + y
    assert total.validity == 1
    assert total == make_series({(0, 1): 1}, 1)


def test_add_order_mismatch():
    with pytest.raises(OrderMismatch):
        make_series({(0, 0): 1}, 3, order=3) + make_series({(0, 0): 1}, 3, order=4)


def test_mul_examples():
    x = make_series({(0, 0): 1, (1, 0): 1}, 8)
    y = make_series({(0, 0): 1, (0, 1): 1}, 8)
    assert x * y == make_series({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, 8)
    one = LaurentSeries.one(8)
    assert x * one == x


def test_geometric_cancellation_through_validity():
    # (1 - a) * (1 + a + ... + a^V) leaves exactly 1 through V
    v = 7
    geo = make_series({(k, 0): 1 for k in range(v + 1)}, v)
    left = make_series({(0, 0): 1, (1, 0): -1}, v)
    prod = left * geo
    assert prod.validity == v
    assert prod == LaurentSeries.one(v)


def test_mul_validity_with_negative_min_degree():
    x = make_series({(-2, 0): 1}, 5)   # mindeg -2
    y = make_series({(0, 0): 1, (1, 0): 1}, 5)  # mindeg 0
    prod = x * y
    assert prod.validity == min(5 + 0, 5 + (-2))
    assert prod == make_series({(-2, 0): 1, (-1, 0): 1}, 3)


def test_mul_with_empty_operand():
    # the empty operand may hide terms of degree 4 and up, so the product
    # is known through min(5 + 4, 3 + 1) = 4
    x = make_series({(1, 0): 1}, 5)
    z = LaurentSeries.zero(3)
    prod = x * z
    assert prod.is_zero() and prod.validity == 4
    # one completion of z: b^4 was cut off at 3, and a*b^4 lies above 4
    assert (x * make_series({(0, 4): 1}, 10)).equal_through(prod, 4)


def test_mul_of_two_empty_operands():
    prod = LaurentSeries.zero(3) * LaurentSeries.zero(5)
    assert prod.is_zero() and prod.validity == 3 + 5 + 1


def test_mul_empty_operand_with_negative_min_degree():
    # shrunk example of the truncate-before-or-after property: q = {a^2*b^4}
    # truncated at 5 is empty, and b^-1 * a^2*b^4 = a^2*b^3 has degree 5
    huge = 10 ** 6
    p_exact = make_series({(0, -1): 1}, huge)
    q_exact = make_series({(2, 4): 1}, huge)
    truncated = p_exact.truncate(5) * q_exact.truncate(5)
    assert truncated.validity == 4
    exact = p_exact * q_exact
    assert truncated.equal_through(exact.truncate(truncated.validity), truncated.validity)


def test_scale_examples():
    x = make_series({(0, 0): 1, (0, 1): 1}, 4)
    shifted = x.scale(ScaledMonomial.make(1, -1, 1))
    assert shifted == make_series({(-1, 1): 1, (-1, 2): 1}, 4)
    assert shifted.validity == 4  # degree-0 monomial prefix
    assert x.scale(ScaledMonomial.make(1, 0, 0)) == x
    up = x.scale(ScaledMonomial.make(1, 2, 1))
    assert up.validity == 7


def test_equal_through_examples():
    x = make_series({(0, 0): 1, (1, 0): 1}, 6)
    assert x.equal_through(x, 6)
    y = make_series({(0, 0): 1, (0, 1): 1}, 6)
    mm = x.first_mismatch(y, 1)
    assert mm is not None
    assert mm.monomial == Monomial(1, 0)  # 'a' is reported, not 'b'
    assert mm.left == CycloNum.one()
    assert mm.right == CycloNum.zero()
    with pytest.raises(ValidityExceeded):
        x.first_mismatch(y, 7)


def test_specialize_examples():
    x = make_series({(3, 1): 1, (1, 3): 1}, 9)
    assert x.specialize_q() == make_series({(4, 0): 2}, 9)
    empty = LaurentSeries.zero(5)
    assert empty.specialize_q().is_zero()
    assert x.specialize_q().validity == 9


def test_min_total_degree_examples():
    assert make_series({(0, 0): 1, (1, 0): 1}, 9).min_total_degree() == 0
    assert make_series({(-1, 1): 1, (1, 0): 1}, 9).min_total_degree() == 0
    assert make_series({(0, 3): 1}, 9).min_total_degree() == 3
    with pytest.raises(EmptySeries):
        LaurentSeries.zero(5).min_total_degree()


def test_render_order_and_format():
    s = make_series({(1, 3): 1, (3, 1): 1, (0, 0): 1, (1, 0): -1}, 6)
    assert s.render() == "1 - a + a^3*b + a*b^3"
    zs = LaurentSeries.make(
        [(Monomial(1, 0), zeta_power(4, 1)),
         (Monomial(0, 0), CycloNum(4, (Fraction(1, 2), Fraction(1, 2))))],
        4, 4,
    )
    assert zs.render() == "(1/2 + 1/2*zeta4) + zeta4*a"


def test_scaled_monomial_rejects_zero_coeff():
    with pytest.raises(ValueError):
        ScaledMonomial.make(0, 1, 0)


# --- property tests -----------------------------------------------------------

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_monos = st.tuples(st.integers(-3, 4), st.integers(-3, 4))


@st.composite
def small_series(draw, validity=st.integers(2, 8)):
    v = draw(validity)
    entries = draw(st.dictionaries(_monos, _coeffs, max_size=6))
    return make_series(entries, v)


@given(small_series(), small_series(), small_series())
@settings(max_examples=80, deadline=None)
def test_ring_laws_through_shared_validity(x, y, z):
    left = (x + y) + z
    right = x + (y + z)
    assert left.equal_through(right, min(left.validity, right.validity))
    xy = x * y
    yx = y * x
    assert xy.equal_through(yx, min(xy.validity, yx.validity))
    d1 = x * (y + z)
    d2 = x * y + x * z
    assert d1.equal_through(d2, min(d1.validity, d2.validity))


@given(small_series(), small_series())
@settings(max_examples=80, deadline=None)
def test_no_zero_coefficients_and_no_terms_above_validity(x, y):
    for s in (x + y, x * y, x - y, x.specialize_q()):
        assert all(not c.is_zero() for c in s.terms.values())
        assert all(m.total_degree <= s.validity for m in s.terms)


@given(
    st.dictionaries(_monos, _coeffs, max_size=5),
    st.dictionaries(_monos, _coeffs, max_size=5),
    st.integers(3, 8),
)
@settings(max_examples=80, deadline=None)
def test_validity_soundness_truncate_before_or_after(p_entries, q_entries, cut):
    huge = 10 ** 6  # stands in for validity infinity of exact polynomials
    p_exact = make_series(p_entries, huge)
    q_exact = make_series(q_entries, huge)
    truncated = p_exact.truncate(cut) * q_exact.truncate(cut)
    exact = p_exact * q_exact
    assert truncated.equal_through(exact.truncate(truncated.validity), truncated.validity)


@given(small_series(), small_series())
@settings(max_examples=80, deadline=None)
def test_specialize_is_linear_and_multiplicative(x, y):
    sum_spec = (x + y).specialize_q()
    spec_sum = x.specialize_q() + y.specialize_q()
    assert sum_spec.equal_through(spec_sum, min(sum_spec.validity, spec_sum.validity))
    prod_spec = (x * y).specialize_q()
    spec_prod = x.specialize_q() * y.specialize_q()
    assert prod_spec.equal_through(spec_prod, min(prod_spec.validity, spec_prod.validity))
