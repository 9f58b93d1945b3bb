import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    KERNEL_ORDERS, FractionCyclo, constant_parts, denominators, numerators, rand_cyclo,
)
from thetadissect.cyclotomic import (
    CycloNum, cyclotomic_polynomial, euler_phi, zeta_power,
)
from thetadissect.errors import IncompatibleOrders, OrderMismatch, OrderNotDivisibleBy4

ORDERS = [1, 2, 3, 4, 6, 8, 12]
SAMPLES = 120


# --- independent oracle: Phi_m via the Moebius product -----------------------
# Phi_m(x) = prod over d | m of (x^(m/d) - 1)^mu(d), computed with naive
# integer polynomial multiplication and long division.

def _mu(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdiv_exact(num, den):
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        quot[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert all(c == 0 for c in num)
    return quot


def phi_oracle(m):
    num = [1]
    den = [1]
    for d in range(1, m + 1):
        if m % d:
            continue
        factor = [-1] + [0] * (m // d - 1) + [1]  # x^(m/d) - 1
        if _mu(d) == 1:
            num = _pmul(num, factor)
        elif _mu(d) == -1:
            den = _pmul(den, factor)
    return _pdiv_exact(num, den)


def test_cyclotomic_polynomial_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)      # x - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)    # x^2 + 1


def test_cyclotomic_polynomial_phi6_by_division_oracle():
    # divide x^6 - 1 by Phi_1 * Phi_2 * Phi_3, all from the oracle
    den = _pmul(_pmul(phi_oracle(1), phi_oracle(2)), phi_oracle(3))
    expected = _pdiv_exact([-1, 0, 0, 0, 0, 0, 1], den)
    assert expected == [1, -1, 1]                          # x^2 - x + 1
    assert cyclotomic_polynomial(6) == tuple(expected)


@pytest.mark.parametrize("m", list(range(1, 31)))
def test_cyclotomic_polynomial_matches_moebius_oracle(m):
    assert list(cyclotomic_polynomial(m)) == phi_oracle(m)
    assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


# --- second independent path: x^n - 1 divided by Phi_d over the proper divisors d


@functools.lru_cache(maxsize=None)
def phi_by_division(n):
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _pdiv_exact(poly, phi_by_division(d))
    return tuple(poly)


def test_cyclotomic_polynomial_matches_division_reference():
    for n in [*range(1, 121), 210, 2310]:
        assert cyclotomic_polynomial(n) == phi_by_division(n), n


def test_zeta_power_examples():
    assert zeta_power(4, 2) == CycloNum.from_rational(-1, 4)          # i^2 = -1
    assert zeta_power(3, 3) == CycloNum.one(3)                        # zeta^3 = 1
    assert zeta_power(6, 2) == CycloNum(6, (-1, 1))  # zeta6 - 1


def test_zeta_power_negative_exponent_wraps():
    assert zeta_power(4, -1) == zeta_power(4, 3)


def test_arith_examples():
    half_plus_i = CycloNum(4, (1, 1), 2)
    half_minus_i = CycloNum(4, (1, -1), 2)
    assert half_plus_i + half_minus_i == CycloNum.one(4)
    w = zeta_power(3, 1)
    assert w * w == CycloNum(3, (-1, -1))  # -1 - zeta3
    assert zeta_power(4, 1) * Fraction(1, 2) == CycloNum(4, (0, 1), 2)


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        CycloNum.one(3) + CycloNum.one(4)
    with pytest.raises(OrderMismatch):
        CycloNum.one(3) * CycloNum.one(6)


def test_embed_examples():
    assert zeta_power(2, 1).embed(6) == CycloNum.from_rational(-1, 6)
    assert zeta_power(3, 1).embed(12) == zeta_power(12, 4)
    with pytest.raises(IncompatibleOrders):
        zeta_power(3, 1).embed(8)


def test_embed_multiplicative_on_random_pairs():
    rng = random.Random(20260808)
    for _ in range(50):
        x = rand_cyclo(rng, 3)
        y = rand_cyclo(rng, 3)
        assert (x * y).embed(12) == x.embed(12) * y.embed(12)


def test_conjugation_examples():
    i = zeta_power(4, 1)
    assert i.conjugate() == -i
    half_plus_i = CycloNum(4, (1, 1), 2)
    half_minus_i = CycloNum(4, (1, -1), 2)
    assert half_plus_i.conjugate() == half_minus_i


def test_real_imag_examples():
    # the parts of a constant, by the series identities of catalog.evaluate
    half_plus_i = CycloNum(4, (1, 1), 2)
    re, im = constant_parts(half_plus_i)
    assert re == CycloNum.from_rational(Fraction(1, 2), 4)
    assert im == CycloNum.from_rational(Fraction(1, 2), 4)
    re, im = constant_parts(CycloNum.one(4))
    assert re == CycloNum.one(4) and im.is_zero()
    r = CycloNum.from_rational(Fraction(7, 3), 8)
    re, im = constant_parts(r)
    assert re == r and im.is_zero()
    re, im = constant_parts(CycloNum.zero(8))
    assert re.is_zero() and im.is_zero()
    with pytest.raises(OrderNotDivisibleBy4):
        constant_parts(CycloNum.one(6))


@pytest.mark.parametrize("order", ORDERS)
def test_field_axioms_on_random_triples(order):
    rng = random.Random(1000 + order)
    for _ in range(SAMPLES):
        x, y, z = (rand_cyclo(rng, order, span=5) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("order", ORDERS)
def test_minimal_polynomial_annihilates_zeta(order):
    value = CycloNum.zero(order)
    for j, c in enumerate(cyclotomic_polynomial(order)):
        value = value + zeta_power(order, j) * Fraction(c)
    assert value.is_zero()


@pytest.mark.parametrize("order", ORDERS)
def test_embed_is_injective_and_a_ring_hom(order):
    rng = random.Random(2000 + order)
    for _ in range(SAMPLES):
        x = rand_cyclo(rng, order, span=5)
        y = rand_cyclo(rng, order, span=5)
        assert (x + y).embed(24) == x.embed(24) + y.embed(24)
        assert (x * y).embed(24) == x.embed(24) * y.embed(24)
        if x != y:
            assert x.embed(24) != y.embed(24)


@pytest.mark.parametrize("order", ORDERS)
def test_conjugation_is_ring_hom_and_involution(order):
    rng = random.Random(3000 + order)
    for _ in range(SAMPLES):
        x = rand_cyclo(rng, order, span=5)
        y = rand_cyclo(rng, order, span=5)
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x


@pytest.mark.parametrize("order", [4, 8, 12])
def test_real_imag_round_trip(order):
    rng = random.Random(4000 + order)
    i_unit = zeta_power(order, order // 4)
    for _ in range(SAMPLES):
        x = rand_cyclo(rng, order, span=5)
        re, im = constant_parts(x)
        assert re + i_unit * im == x
        assert re.conjugate() == re
        assert im.conjugate() == im


def test_str_rendering():
    assert str(CycloNum.from_rational(Fraction(-3, 2), 1)) == "-3/2"
    assert str(zeta_power(6, 2)) == "-1 + zeta6"
    assert str(zeta_power(4, 1) * Fraction(1, 2)) == "1/2*zeta4"
    assert str(CycloNum.zero(8)) == "0"


# --- integer numerators over one denominator, against the Fraction reference -----


def assert_canonical(c):
    assert len(c.nums) == euler_phi(c.order)
    assert c.den > 0 and math.gcd(c.den, *c.nums) == 1
    if c.is_zero():
        assert c.nums == (0,) * len(c.nums) and c.den == 1


def test_construction_puts_values_in_canonical_form():
    for raw, canonical in [
        (CycloNum(4, (2, 4), 4), CycloNum(4, (1, 2), 2)),
        (CycloNum(4, (1, -2), -3), CycloNum(4, (-1, 2), 3)),
        (CycloNum(1, (6,), -4), CycloNum(1, (-3,), 2)),
        (CycloNum(3, (0, 0), -7), CycloNum.zero(3)),
        (CycloNum(6, (-5, 5), 5), zeta_power(6, 2)),
    ]:
        assert raw == canonical and hash(raw) == hash(canonical)
        assert (raw.nums, raw.den) == (canonical.nums, canonical.den)
        assert_canonical(raw)
    assert CycloNum(4, (1, 0), 2) != CycloNum(4, (1, 0), 3)
    with pytest.raises(ZeroDivisionError):
        CycloNum(1, (1,), 0)
    with pytest.raises(ValueError):
        CycloNum(4, (1,), 1)


@st.composite
def cyclo_values(draw, order):
    """Values with numerators up to about 10^30 over denominators up to
    10^30 + 1, built as given or times a common factor, negative ones too."""
    nums = tuple(draw(numerators) if draw(st.booleans()) else 0 for _ in range(euler_phi(order)))
    scale = draw(st.sampled_from((1, 1, -1, 6, -10 ** 30 - 1)))
    return CycloNum(order, tuple(x * scale for x in nums), draw(denominators) * scale)


@st.composite
def arithmetic_cases(draw):
    order = draw(st.sampled_from(KERNEL_ORDERS))
    x, y = draw(cyclo_values(order)), draw(cyclo_values(order))
    scalar = draw(numerators)
    ratio = Fraction(draw(numerators), draw(denominators))
    return x, y, scalar, ratio, draw(st.integers(0, 3)), order * draw(st.integers(1, 3))


@given(arithmetic_cases())
@settings(max_examples=200, deadline=None)
def test_integer_arithmetic_matches_fraction_reference(case):
    x, y, scalar, ratio, n, target = case
    ref_x, ref_y = FractionCyclo.of(x), FractionCyclo.of(y)
    results = [
        (x + y, ref_x + ref_y),
        (x - y, ref_x - ref_y),
        (-x, -ref_x),
        (x * y, ref_x * ref_y),
        (x * scalar, ref_x * scalar),
        (scalar * x, ref_x * scalar),
        (x * ratio, ref_x * ratio),
        (ratio * x, ref_x * ratio),
        (x ** n, ref_x ** n),
        (x.embed(target), ref_x.embed(target)),
        (x.conjugate(), ref_x.conjugate()),
    ]
    if x.order % 4 == 0:
        results += zip(constant_parts(x), ref_x.real_imag())
    for got, expected in results:
        assert FractionCyclo.of(got) == expected
        assert_canonical(got)


@given(st.sampled_from(KERNEL_ORDERS).flatmap(
    lambda order: st.tuples(cyclo_values(order), st.integers(-2 * order, 2 * order))))
@settings(max_examples=200, deadline=None)
def test_times_zeta_is_the_product_with_the_root(case):
    x, e = case
    got = x.times_zeta(e)
    assert got == x * zeta_power(x.order, e)
    assert_canonical(got)
