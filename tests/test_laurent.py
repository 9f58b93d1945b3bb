from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (KERNEL_ORDERS, cyclo_from_pairs, denominators, known_min_degree,
                      make_series, numerators, reference_render, reference_str,
                      schoolbook_fold, schoolbook_terms)
from thetadissect import laurent
from thetadissect.cyclotomic import CycloNum, euler_phi, zeta_power
from thetadissect.errors import OrderMismatch, ValidityExceeded
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
    assert (x * make_series({(0, 4): 1}, 10)).first_mismatch(prod, 4) is None


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
    assert truncated.first_mismatch(exact.truncate(truncated.validity), truncated.validity) is None


def test_scale_examples():
    x = make_series({(0, 0): 1, (0, 1): 1}, 4)
    shifted = x.scale(ScaledMonomial.make(1, -1, 1))
    assert shifted == make_series({(-1, 1): 1, (-1, 2): 1}, 4)
    assert shifted.validity == 4  # degree-0 monomial prefix
    assert x.scale(ScaledMonomial.make(1, 0, 0)) == x
    up = x.scale(ScaledMonomial.make(1, 2, 1))
    assert up.validity == 7


@given(st.sampled_from(KERNEL_ORDERS), st.data())
@settings(max_examples=100, deadline=None)
def test_scale_by_a_scaled_root_matches_coefficient_products(order, data):
    phi = euler_phi(order)
    values = st.lists(st.tuples(numerators, denominators), min_size=phi, max_size=phi)
    x = LaurentSeries.make([(Monomial(p, 1), cyclo_from_pairs(order, data.draw(values)))
                            for p in range(data.draw(st.integers(1, 3)))], 5, order)
    ratio = Fraction(data.draw(st.sampled_from((1, -1, 3))), data.draw(st.sampled_from((1, 2))))
    e = data.draw(st.integers(0, order - 1))
    s = ScaledMonomial(ratio, e, order, Monomial(2, -1))
    factor = zeta_power(order, e) * ratio
    assert x.scale(s) == LaurentSeries({m * s.mono: c * factor for m, c in x.terms.items()},
                                       6, order)


@given(st.sampled_from(KERNEL_ORDERS), st.data())
@settings(max_examples=300, deadline=None)
def test_coefficient_text_matches_the_fraction_reference(order, data):
    nums = data.draw(st.lists(numerators, min_size=euler_phi(order), max_size=euler_phi(order)))
    x = CycloNum(order, tuple(nums), data.draw(denominators))
    assert str(x) == reference_str(x)
    for mono in (Monomial(0, 0), Monomial(1, 0), Monomial(-1, 2)):
        series = LaurentSeries.make([(mono, x)], 2, order)
        assert series.render() == reference_render(series)


def test_mismatch_with_a_term_stored_on_one_side():
    x = make_series({(0, 0): 1}, 6, order=8)
    y = make_series({(0, 0): 1, (-1, 2): cyclo_from_pairs(8, [(1, 2), (0, 1), (0, 1), (-3, 4)])},
                    6, order=8)
    mm = x.first_mismatch(y, 6)
    assert mm.monomial == Monomial(-1, 2)
    assert mm.left == CycloNum.zero(8) and str(mm.left) == "0"
    assert str(mm.right) == "1/2 - 3/4*zeta8^3"
    flipped = y.first_mismatch(x, 6)
    assert (flipped.left, flipped.right) == (mm.right, CycloNum.zero(8))


def test_equal_through_examples():
    x = make_series({(0, 0): 1, (1, 0): 1}, 6)
    assert x.first_mismatch(x, 6) is None
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
    # an empty series may hide terms from validity + 1 up
    assert LaurentSeries.zero(5).min_total_degree() == 6


def test_render_order_and_format():
    s = make_series({(1, 3): 1, (3, 1): 1, (0, 0): 1, (1, 0): -1}, 6)
    assert s.render() == "1 - a + a^3*b + a*b^3"
    zs = LaurentSeries.make(
        [(Monomial(1, 0), zeta_power(4, 1)),
         (Monomial(0, 0), CycloNum(4, (1, 1), 2))],
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
    assert left.first_mismatch(right, min(left.validity, right.validity)) is None
    xy = x * y
    yx = y * x
    assert xy.first_mismatch(yx, min(xy.validity, yx.validity)) is None
    d1 = x * (y + z)
    d2 = x * y + x * z
    assert d1.first_mismatch(d2, min(d1.validity, d2.validity)) is None


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
    assert truncated.first_mismatch(exact.truncate(truncated.validity), truncated.validity) is None


@given(small_series(), small_series())
@settings(max_examples=80, deadline=None)
def test_specialize_is_linear_and_multiplicative(x, y):
    sum_spec = (x + y).specialize_q()
    spec_sum = x.specialize_q() + y.specialize_q()
    assert sum_spec.first_mismatch(spec_sum, min(sum_spec.validity, spec_sum.validity)) is None
    prod_spec = (x * y).specialize_q()
    spec_prod = x.specialize_q() * y.specialize_q()
    assert prod_spec.first_mismatch(spec_prod, min(prod_spec.validity, spec_prod.validity)) is None


# --- the integer product kernel against the pairwise schoolbook product --------


def kronecker(xs, ys, validity):
    """The packed convolution, laid out as the product lays it out."""
    if not xs or not ys:
        return {}
    return laurent._kronecker_convolution(xs, ys, validity, laurent._packing(xs, ys))


def kernel_terms(convolve, x, y, validity):
    """One middle of the kernel on every term of x and y, with the shared
    front and back ends."""
    everything = 10 ** 9
    xs, x_den = laurent._integer_rows(x.terms, everything)
    ys, y_den = laurent._integer_rows(y.terms, everything)
    rows = laurent._reduced_rows(convolve(xs, ys, validity), x.order)
    return laurent._series_terms(rows, x_den * y_den, x.order)


def _draw_operand(draw, order, exponents, validities):
    entries = {}
    for mono in draw(st.lists(st.tuples(exponents, exponents), max_size=8, unique=True)):
        pairs = [(draw(numerators), draw(denominators)) if draw(st.booleans()) else (0, 1)
                 for _ in range(euler_phi(order))]
        entries[mono] = cyclo_from_pairs(order, pairs)
    return make_series(entries, draw(validities), order)


@st.composite
def kernel_operands(draw):
    order = draw(st.sampled_from(KERNEL_ORDERS))
    x, y = (_draw_operand(draw, order, st.integers(-4, 6), st.integers(-6, 14)) for _ in range(2))
    # from below every term (-9 < -4 + -4) to above every pair
    return x, y, draw(st.integers(-9, 14))


@st.composite
def chains(draw):
    """1 to 5 operands over one order: empty ones, negative exponents, and
    ones whose terms all lie at degree 10 or more, above most running bounds."""
    order = draw(st.sampled_from(KERNEL_ORDERS))
    chain = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            chain.append(_draw_operand(draw, order, st.integers(-4, 6), st.integers(-6, 14)))
        else:
            chain.append(_draw_operand(draw, order, st.integers(5, 9), st.integers(10, 20)))
    return chain


@given(kernel_operands())
@settings(max_examples=200, deadline=None)
def test_kernel_middles_match_schoolbook_product(case):
    x, y, validity = case
    expected = schoolbook_terms(x, y, validity)
    assert kernel_terms(laurent._sparse_convolution, x, y, validity) == expected
    assert kernel_terms(kronecker, x, y, validity) == expected


@given(kernel_operands())
@settings(max_examples=100, deadline=None)
def test_mul_matches_schoolbook_product(case):
    x, y, _ = case
    prod = x * y
    assert prod.terms == schoolbook_terms(x, y, prod.validity)


@given(chains())
@settings(max_examples=150, deadline=None)
def test_product_matches_schoolbook_fold(chain):
    partials = schoolbook_fold(chain)
    # each step hands the density rule the rows `_integer_rows` builds from the
    # schoolbook partial product: cut at the step's bound, over the least
    # common denominator
    expected = []
    for acc, other, step in zip(partials, chain[1:], partials[1:]):
        if acc.terms and other.terms:
            xs, _ = laurent._integer_rows(acc.terms, step.validity - known_min_degree(other))
            ys, _ = laurent._integer_rows(other.terms, step.validity - known_min_degree(acc))
            expected.append((sorted(xs), sorted(ys)))
    seen = []
    is_dense = laurent._is_dense

    def density_rule(xs, ys, packing):
        seen.append((sorted(xs), sorted(ys)))
        assert packing == laurent._packing(xs, ys)
        return is_dense(xs, ys, packing)

    with mock.patch.object(laurent, "_is_dense", density_rule):
        prod = LaurentSeries.product(chain)
    assert prod.validity == partials[-1].validity
    assert prod.terms == partials[-1].terms
    assert seen == expected


def test_product_of_one_series_is_itself():
    x = make_series({(0, 0): 1, (-1, 2): Fraction(1, 3)}, 4)
    assert LaurentSeries.product([x]) is x


def test_product_order_mismatch():
    with pytest.raises(OrderMismatch):
        LaurentSeries.product([LaurentSeries.one(3, 3), LaurentSeries.one(3, 3),
                               LaurentSeries.one(3, 4)])


def test_kronecker_digit_edges_are_exact():
    def check(x, y):
        assert kernel_terms(kronecker, x, y, 5) == schoolbook_terms(x, y, 5)

    for k in (1, 2, 3, 4, 8, 9):
        # one term each, phi = 1: the product's one digit is the bound itself
        for c in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1), 2 ** (8 * k - 1) + 1):
            for sign in (1, -1):
                x = make_series({(1, 0): sign * c}, 5)
                check(x, make_series({(0, 1): 1}, 5))
                check(x, make_series({(0, 1): -1, (0, 2): 3}, 5))
        # (c + c*a)^2: the digit of a is 2*c^2 = 2^(8k - 1), one past k bytes,
        # so the slot must count the two products that meet in it
        for sign in (1, -1):
            c = sign * 2 ** (4 * k - 1)
            x = make_series({(0, 0): c, (1, 0): c}, 5)
            check(x, x)
            check(x, -x)


def test_kernel_density_rule():
    # f(q,q)^2-like univariate operands pack densely; a sparse high-degree
    # theta sum does not
    dense = make_series({(n, 0): n % 5 + 1 for n in range(40)}, 40)
    xs, _ = laurent._integer_rows(dense.terms, 40)
    assert laurent._is_dense(xs, xs, laurent._packing(xs, xs))
    sparse = make_series({(n * (n + 1) // 2, n * (n - 1) // 2): 1 for n in range(-20, 21)}, 400)
    ys, _ = laurent._integer_rows(sparse.terms, 400)
    assert not laurent._is_dense(ys, ys, laurent._packing(ys, ys))
