import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (KERNEL_ORDERS, FractionCyclo, cyclo_from_pairs, denominators,
                      fraction_terms, full_digits, known_min_degree, make_series, numerators,
                      orc, power_by_fold, rational_coeff, schoolbook_fold, schoolbook_terms,
                      schoolbook_tree, series_expr)
from thetadissect import laurent
from thetadissect.catalog import evaluate
from thetadissect.cyclotomic import CycloNum, euler_phi, zeta_power
from thetadissect.errors import OrderMismatch, RequestTooLarge, ValidityExceeded
from thetadissect.expr import Power, RationalConst, Sum
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial


def test_add_examples():
    x = make_series({(0, 0): 1, (1, 0): 1}, 5)
    y = make_series({(0, 0): 1, (0, 1): 1}, 5)
    assert (x + y) == make_series({(0, 0): 2, (1, 0): 1, (0, 1): 1}, 5)


def test_additive_inverse_cancels_to_zero():
    x = make_series({(2, 1): Fraction(3, 4), (0, 0): -2}, 6)
    total = x + (-x)
    assert not total.terms
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


def test_make_sums_drops_zeros_and_cuts_in_one_pass():
    # over Q(zeta_3), validity 2: a cancels, then reappears; a*b cancels for
    # good; a zero coefficient; a^3 above the validity
    z = zeta_power(3, 1)
    half = rational_coeff(Fraction(1, 2), 3)
    entries = [(Monomial(1, 0), z), (Monomial(0, 2), half), (Monomial(1, 0), -z),
               (Monomial(1, 1), z), (Monomial(0, 0), CycloNum.zero(3)),
               (Monomial(3, 0), z), (Monomial(1, 0), z + half), (Monomial(1, 1), -z),
               (Monomial(0, 2), half)]
    reference = {}
    for mono, coeff in entries:
        if mono.total_degree <= 2:
            reference[mono] = reference.get(mono, CycloNum.zero(3)) + coeff
    reference = {m: c for m, c in reference.items() if any(c.nums)}
    series = LaurentSeries.make(entries, 2, 3)
    assert series.terms == reference
    assert series.terms == {Monomial(1, 0): z + half, Monomial(0, 2): half + half}
    assert (series.validity, series.order) == (2, 3)
    # a coefficient of another order is refused, above the validity too
    for mono in (Monomial(0, 0), Monomial(3, 0)):
        with pytest.raises(OrderMismatch):
            LaurentSeries.make(entries + [(mono, CycloNum.one(4))], 2, 3)


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
    assert not prod.terms and prod.validity == 4
    # one completion of z: b^4 was cut off at 3, and a*b^4 lies above 4
    assert (x * make_series({(0, 4): 1}, 10)).first_mismatch(prod, 4) is None


def test_mul_of_two_empty_operands():
    prod = LaurentSeries.zero(3) * LaurentSeries.zero(5)
    assert not prod.terms and prod.validity == 3 + 5 + 1


def test_mul_empty_operand_with_negative_min_degree():
    # shrunk example of the truncate-before-or-after property: q = {a^2*b^4}
    # truncated at 5 is empty, and b^-1 * a^2*b^4 = a^2*b^3 has degree 5
    huge = 10 ** 6
    p_exact = make_series({(0, -1): 1}, huge)
    q_exact = make_series({(2, 4): 1}, huge)
    truncated = LaurentSeries.make(p_exact.terms.items(), 5, 1) * LaurentSeries.make(
        q_exact.terms.items(), 5, 1)
    assert truncated.validity == 4
    exact = p_exact * q_exact
    assert truncated.first_mismatch(exact, truncated.validity) is None


def test_scale_examples():
    x = make_series({(0, 0): 1, (0, 1): 1}, 4)
    shifted = x.scale(ScaledMonomial.make(1, -1, 1))
    assert shifted == make_series({(-1, 1): 1, (-1, 2): 1}, 4)
    assert shifted.validity == 4  # degree-0 monomial prefix
    assert x.scale(ScaledMonomial.make(1, 0, 0)) == x
    up = x.scale(ScaledMonomial.make(1, 2, 1))
    assert up.validity == 7
    with pytest.raises(OrderMismatch):
        x.scale(ScaledMonomial.make(1, 0, 0, 4))


def test_scale_by_one_keeps_the_coefficient_objects():
    x = make_series({(0, 0): Fraction(1, 2), (1, 2): 3}, 4, 3)
    scaled = x.scale(ScaledMonomial(1, 0, 3, Monomial(1, 0)))
    assert [id(c) for c in scaled.terms.values()] == [id(c) for c in x.terms.values()]


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
    factor = zeta_power(order, e) * rational_coeff(ratio, order)
    assert x.scale(s) == LaurentSeries({m * s.mono: c * factor for m, c in x.terms.items()},
                                       6, order)


@given(st.sampled_from(KERNEL_ORDERS), st.data())
@settings(max_examples=300, deadline=None)
def test_coefficient_text_matches_the_fraction_reference(order, data):
    nums = data.draw(st.lists(numerators, min_size=euler_phi(order), max_size=euler_phi(order)))
    x = CycloNum(order, tuple(nums), data.draw(denominators))
    assert str(x) == orc.render_number(FractionCyclo.of(x).coeffs, order)
    for mono in (Monomial(0, 0), Monomial(1, 0), Monomial(-1, 2)):
        series = LaurentSeries.make([(mono, x)], 2, order)
        assert series.render() == orc.render_series(fraction_terms(series), order)


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
    # the caller names the sides of the one spelling
    assert mm.to_dict("filter", "closed") == {
        "monomial": "a^-1*b^2", "filter": "0", "closed": "1/2 - 3/4*zeta8^3"}


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
    assert not empty.specialize_q().terms
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
    for s in (x + y, x * y, x + -y, x.specialize_q()):
        assert all(any(c.nums) for c in s.terms.values())
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
    truncated = LaurentSeries.make(p_exact.terms.items(), cut, 1) * LaurentSeries.make(
        q_exact.terms.items(), cut, 1)
    exact = p_exact * q_exact
    assert truncated.first_mismatch(exact, truncated.validity) is None


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
    return laurent._kronecker_convolution(xs, ys, validity, laurent._packing(xs, ys))


def kernel_terms(convolve, x, y, validity):
    """One middle of the kernel on every term of x and y, with the shared
    front and back ends."""
    xs, x_den, _, _ = laurent._operand(x)
    ys, y_den, _, _ = laurent._operand(y)
    # `_times` returns before either middle when an operand is empty
    conv = convolve(xs, ys, validity) if xs and ys else {}
    rows = laurent._reduced_rows(conv, x.order)
    return laurent._from_operand((rows, x_den * y_den, validity, None), x.order).terms


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
def chains(draw, longest=5):
    """1 to `longest` operands over one order: empty ones, negative exponents,
    and ones whose terms all lie at degree 10 or more, above most running
    bounds."""
    order = draw(st.sampled_from(KERNEL_ORDERS))
    chain = []
    for _ in range(draw(st.integers(1, longest))):
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
    # each node of the tree hands the density rule the rows `_operand` reads
    # from the schoolbook products of its two halves: each cut by
    # `_truncated_rows` to the node's bound less the other half's least
    # degree, over the least common denominator, in tree order
    def cut(s, through):
        rows, den, _, _ = laurent._operand(s)
        return laurent._truncated_rows(rows, den, through)[0]

    expected = []
    for left, right, validity in schoolbook_tree(chain):
        if left.terms and right.terms:
            xs = cut(left, validity - known_min_degree(right))
            ys = cut(right, validity - known_min_degree(left))
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


@st.composite
def powers(draw):
    """An operand as `chains` draws them, and an exponent 0..12."""
    order = draw(st.sampled_from(KERNEL_ORDERS))
    if draw(st.booleans()):
        x = _draw_operand(draw, order, st.integers(-4, 6), st.integers(-6, 14))
    else:
        x = _draw_operand(draw, order, st.integers(5, 9), st.integers(10, 20))
    return x, draw(st.integers(0, 12))


# an operand `powers()` draws whose least-degree part the X^N cap refuses at
# n = 12 (2,464 bits per factor) and answers at n = 11
_REFUSED_AT_12 = make_series({
    (0, 0): cyclo_from_pairs(15, [(10 ** 30 + 3, 10 ** 30 + 1), (-3, 7)] + [(0, 1)] * 6),
    (3, -3): cyclo_from_pairs(15, [(0, 1)] * 6 + [(-10 ** 30 + 2, 12), (10 ** 30, 10 ** 30 + 1)]),
}, 5, 15)


@given(powers())
@example((_REFUSED_AT_12, 12))
@example((_REFUSED_AT_12, 11))
@settings(max_examples=150, deadline=None)
def test_power_by_squaring_matches_the_left_fold(case):
    x, n = case
    # the sum with 0 keeps a one-term x off the exact monomial route, so the
    # power is taken on the series
    power = Power(Sum((series_expr(x), RationalConst(Fraction(0)))), n)
    assert x.power(1) is x
    if n:
        try:
            direct = x.power(n)
        except RequestTooLarge as refusal:
            # evaluate takes the power through the same cap and message
            with pytest.raises(RequestTooLarge) as info:
                evaluate(power, x.validity, x.order)
            assert str(info.value) == str(refusal)
            return
    expected = schoolbook_fold([x] * n)[-1] if n else LaurentSeries.one(x.validity, x.order)
    assert evaluate(power, x.validity, x.order) == expected
    if n:
        assert direct == expected


def test_power_refuses_a_least_degree_part_past_the_bit_cap():
    with pytest.raises(ValueError):
        LaurentSeries.one(3).power(0)
    # 1 + a*b^-1: each factor doubles the magnitude sum, 1 bit, and
    # (1024 * 1 + 1) * 1024 * 1 bits pass 2^20, 1023 copies do not
    x = make_series({(0, 0): 1, (1, -1): 1}, 0)
    assert x.power(1023) == make_series({(k, -k): math.comb(1023, k) for k in range(1024)}, 0)
    with pytest.raises(RequestTooLarge, match="power 1024 of a 2-term .* 1 bits per factor"):
        x.power(1024)
    # coefficients whose magnitudes sum to 1 still cost the bits of 2/2 each:
    # (724 + 1) * 724 * 2 bits pass 2^20, and 1/2 + 1/2*zeta5 is no root
    half = make_series({(0, 0): Fraction(1, 2), (1, -1): Fraction(1, 2)}, 0)
    assert half.power(723).terms[Monomial(0, 0)] == rational_coeff(Fraction(1, 2 ** 723), 1)
    with pytest.raises(RequestTooLarge, match="power 724 of a 2-term .* 2 bits per factor"):
        half.power(724)
    mean = LaurentSeries({Monomial(0, 0): rational_coeff(Fraction(1, 2), 5) + CycloNum(
        5, (0, 1, 0, 0), 2)}, 0, 5)
    with pytest.raises(RequestTooLarge, match="power 131073 of a 1-term .* 8 bits per factor"):
        mean.power(131073)
    # (3 + 4i)/5 lies on the unit circle but is no root of unity: 3 + 4i
    # times its conjugate is 25, and its powers grow
    gauss = LaurentSeries({Monomial(0, 0): CycloNum(4, (3, 4), 5)}, 0, 4)
    with pytest.raises(RequestTooLarge, match="power 87382 of a 1-term .* 12 bits per factor"):
        gauss.power(87382)
    assert gauss.power(87381).terms[Monomial(0, 0)].den == 5 ** 87381
    # a first power does no work, so it answers whatever P costs
    big = make_series({(5, 0): 2 ** 300000, (0, 5): 1}, 5)
    assert big.power(1) is big
    with pytest.raises(RequestTooLarge):
        big.power(2)
    # an empty series has no P, and its powers cost nothing
    assert LaurentSeries.zero(2).power(10 ** 30).validity == 2 + (10 ** 30 - 1) * 3
    # only the least-degree part counts: 1 + a + a^2 at degree 10 has P = 1
    assert make_series({(0, 0): 1, (1, 0): 1, (2, 0): 1}, 10).power(10 ** 30).validity == 10
    # an exponent past the 4300-digit int-to-str limit is named in full
    with pytest.raises(RequestTooLarge, match="power %s of" % full_digits(10 ** 5000)):
        x.power(10 ** 5000)


@pytest.mark.parametrize("ratio, exponent, order", [
    (2, 0, 1), (Fraction(-3, 7), 0, 1), (Fraction(5, 2), 5, 12), (3, 2, 3),
    (Fraction(1, 3), 4, 5), (-1, 1, 3), (1, 7, 9),
])
def test_power_of_a_scaled_root_is_refused_exactly_where_its_ratio_power_is(ratio, exponent,
                                                                           order):
    s = ScaledMonomial(ratio, exponent, order, Monomial(1, 0))
    x = LaurentSeries({s.mono: s.coeff}, 1, order)
    bits = laurent.ratio_bits(s.ratio)
    if not bits:  # a +-root of unity: no cap
        n = 10 ** 30 + 1
        power = power_by_fold(s, n)
        assert x.power(n) == LaurentSeries({power.mono: power.coeff}, n, order)
        return
    edge = laurent.MAX_POWER_BITS // bits
    power = power_by_fold(s, edge)
    assert x.power(edge) == LaurentSeries({power.mono: power.coeff}, edge, order)
    with pytest.raises(RequestTooLarge):
        power_by_fold(s, edge + 1)
    with pytest.raises(RequestTooLarge, match="1-term least-degree part"):
        x.power(edge + 1)


@given(st.one_of(chains(), chains(longest=9)))
@settings(max_examples=150, deadline=None)
def test_product_equals_the_left_fold(chain):
    expected = schoolbook_fold(chain)[-1]
    prod = LaurentSeries.product(chain)
    assert prod.terms == expected.terms
    assert prod.validity == expected.validity


_ONE_PLUS_A = make_series({(0, 0): 1, (1, 0): 1}, 6)
_ONE_MINUS_B = make_series({(0, 0): 1, (0, 1): -1}, 5)
_NEGATIVE_EXPONENT = make_series({(-1, 2): 1, (0, 0): 1}, 4)  # a^-1*b^2 + 1
_NEGATIVE_DEGREE = make_series({(-2, 1): Fraction(1, 2), (0, 0): 1}, 4)  # 1/2*a^-2*b + 1
_EMPTY = LaurentSeries.zero(3)


@pytest.mark.parametrize("chain, validity", [
    # an empty operand first, in the middle and last: min over i of
    # V_i + sum of the other least degrees, an empty one counting V + 1
    ((_EMPTY, _ONE_PLUS_A, _ONE_MINUS_B), 3),
    ((_ONE_PLUS_A, _ONE_MINUS_B, _EMPTY, _NEGATIVE_EXPONENT, _ONE_PLUS_A), 3),
    ((_ONE_PLUS_A, _ONE_MINUS_B, _EMPTY), 3),
    ((_NEGATIVE_EXPONENT, _ONE_PLUS_A), 4),
    ((_NEGATIVE_DEGREE, _ONE_PLUS_A), 4),
    ((_NEGATIVE_DEGREE, _ONE_MINUS_B, _NEGATIVE_EXPONENT), 3),
    ((_ONE_PLUS_A, _NEGATIVE_DEGREE, _NEGATIVE_DEGREE, _ONE_MINUS_B, _NEGATIVE_EXPONENT,
      _ONE_PLUS_A, _NEGATIVE_DEGREE), 1),
    ((_ONE_PLUS_A,) * 7, 6),
])
def test_product_pinned_chains(chain, validity):
    expected = schoolbook_fold(list(chain))[-1]
    prod = LaurentSeries.product(chain)
    assert prod.validity == expected.validity == validity
    assert prod.terms == expected.terms
    assert (not prod.terms) == (_EMPTY in chain)


def test_product_pinned_values():
    assert LaurentSeries.product((_ONE_PLUS_A,) * 7) == make_series(
        {(k, 0): math.comb(7, k) for k in range(7)}, 6)
    assert LaurentSeries.product((_NEGATIVE_DEGREE, _ONE_PLUS_A)) == make_series(
        {(0, 0): 1, (1, 0): 1, (-2, 1): Fraction(1, 2), (-1, 1): Fraction(1, 2)}, 4)
    # (1 + a + a^-1*b^2 + b^2) * (1 - b), every term at degree 3 or below
    assert LaurentSeries.product((_NEGATIVE_EXPONENT, _ONE_PLUS_A, _ONE_MINUS_B)) == make_series(
        {(0, 0): 1, (1, 0): 1, (-1, 2): 1, (0, 2): 1,
         (0, 1): -1, (1, 1): -1, (-1, 3): -1, (0, 3): -1}, 4)


def test_product_of_one_series_is_itself():
    x = make_series({(0, 0): 1, (-1, 2): Fraction(1, 3)}, 4)
    assert LaurentSeries.product([x]) is x


def test_product_order_mismatch():
    with pytest.raises(OrderMismatch):
        LaurentSeries.product([LaurentSeries.one(3, 3), LaurentSeries.one(3, 3),
                               LaurentSeries.one(3, 4)])
    # in the last of seven items, after six that would multiply
    factors = [make_series({(0, 0): 1, (k, 1): 1}, 8, order=3) for k in range(6)]
    with pytest.raises(OrderMismatch):
        LaurentSeries.product(factors + [LaurentSeries.one(8, 4)])


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
    xs = laurent._operand(dense)[0]
    assert laurent._is_dense(xs, xs, laurent._packing(xs, xs))
    sparse = make_series({(n * (n + 1) // 2, n * (n - 1) // 2): 1 for n in range(-20, 21)}, 400)
    ys = laurent._operand(sparse)[0]
    assert not laurent._is_dense(ys, ys, laurent._packing(ys, ys))
