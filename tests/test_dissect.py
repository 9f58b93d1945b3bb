import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_series, plain_theta_args
from thetadissect.catalog import evaluate, transformation_identity
from thetadissect.dissect import closed_form_parts, dissect_closed, dissect_filter
from thetadissect.cyclotomic import CycloNum
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial
from thetadissect.theta import ThetaArgs, theta_expand


def test_modulus_must_be_positive():
    # k is free (the closed form holds for every integer k); only m < 1 is
    # rejected: m = 0 would divide by zero, and m < 0 would give an empty class
    with pytest.raises(ValueError, match="modulus"):
        closed_form_parts(0, 0)
    with pytest.raises(ValueError, match="modulus"):
        dissect_filter(0, 0, 5)
    with pytest.raises(ValueError, match="modulus"):
        dissect_filter(-2, 1, 5)


def test_filter_m2_through_9():
    even = dissect_filter(2, 0, 9)
    assert even.render() == "1 + a^3*b + a*b^3"
    odd = dissect_filter(2, 1, 9)
    assert odd.render() == "a + b + a^6*b^3 + a^3*b^6"


def test_filter_m1_is_the_full_series():
    assert dissect_filter(1, 0, 25) == theta_expand(plain_theta_args(), 25)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 12, 100])
def test_filter_keeps_the_indices_of_its_class_in_order(m):
    # the indices of the class are every n in [-isqrt(bound), isqrt(bound)]
    # with n % m == k, in ascending order; m = 100 leaves most classes empty
    for bound in range(-1, 50):
        top = math.isqrt(max(bound, 0))
        for k in range(m):
            expected = LaurentSeries.make(
                [(Monomial(n * (n + 1) // 2, n * (n - 1) // 2), CycloNum.one())
                 for n in range(-top, top + 1) if bound >= 0 and n % m == k], bound, 1)
            got = dissect_filter(m, k, bound)
            assert list(got.terms.items()) == list(expected.terms.items())
            assert got.validity == bound


def test_closed_form_parts_m2_k1():
    prefix, args = closed_form_parts(2, 1)
    assert prefix == Monomial(1, 0)
    assert args.first.mono == Monomial(5, 3)
    assert args.second.mono == Monomial(-1, 1)


def test_closed_form_parts_m4_k2():
    # second argument is B_4 (ab)^(-8) = a^-2 b^2
    prefix, args = closed_form_parts(4, 2)
    assert prefix == Monomial(3, 1)
    assert args.first.mono == Monomial(18, 14)
    assert args.second.mono == Monomial(-2, 2)


def test_closed_form_parts_k0_is_the_boundary_pair():
    # at k = 0 the arguments are A_m = a^T(m) b^T(-m) and its mirror B_m
    for m, a_m, b_m in [(2, Monomial(3, 1), Monomial(1, 3)),
                        (3, Monomial(6, 3), Monomial(3, 6)),
                        (4, Monomial(10, 6), Monomial(6, 10))]:
        prefix, args = closed_form_parts(m, 0)
        assert prefix == Monomial(0, 0)
        assert (args.first.mono, args.second.mono) == (a_m, b_m)


def test_closed_equals_filter_m2_k0_through_9():
    closed = dissect_closed(2, 0, 9)
    assert closed.render() == "1 + a^3*b + a*b^3"
    assert closed == dissect_filter(2, 0, 9)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_oracle_equivalence_small_grid(m):
    for k in range(m):
        assert dissect_filter(m, k, 30) == dissect_closed(m, k, 30)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_residue_classes_sum_to_f(m):
    total = dissect_filter(m, 0, 40)
    for k in range(1, m):
        total = total + dissect_filter(m, k, 40)
    assert total == theta_expand(plain_theta_args(), 40)


def test_low_bound_keeps_lifted_negative_degree_terms():
    # S_3 mod 4 at bound 2 is exactly the n = -1 term b: the inner theta
    # budget is negative but its negative-degree index must still be found
    expected = make_series({(0, 1): 1}, 2)
    assert dissect_filter(4, 3, 2) == expected
    assert dissect_closed(4, 3, 2) == expected


def transformation_sides(m, e, degree):
    """Both sides of f(zeta a, zeta b) = sum_k zeta^(k^2) S_k with zeta = zeta_m^e,
    evaluated in the identity's own field."""
    identity = transformation_identity(m, e)
    order = identity.required_root_order
    return evaluate(identity.lhs, degree, order), evaluate(identity.rhs, degree, order)


def test_transform_m1_is_f():
    lhs, rhs = transformation_sides(1, 1, 20)
    assert lhs == theta_expand(plain_theta_args(), 20)
    assert rhs == lhs


def test_transform_m2_matches_sign_flip():
    lhs, rhs = transformation_sides(2, 1, 9)
    assert rhs.render() == "1 - a - b + a^3*b + a*b^3 - a^6*b^3 - a^3*b^6"
    assert lhs == rhs


def test_transform_m3_matches_omega_expansion():
    lhs, rhs = transformation_sides(3, 1, 9)
    assert lhs.first_mismatch(rhs, 9) is None


def test_transform_m4_lhs_through_4():
    lhs, _ = transformation_sides(4, 1, 4)
    assert lhs.render() == "1 + zeta4*a + zeta4*b + a^3*b + a*b^3"


@pytest.mark.parametrize("m", range(1, 13))
def test_transform_all_exponents(m):
    # e = 0 (zeta = 1) and the non-primitive e included; both sides live in Q(zeta_m)
    for e in range(m):
        lhs, rhs = transformation_sides(m, e, 30)
        assert lhs.order == rhs.order == m, (m, e)
        assert lhs.first_mismatch(rhs, 30) is None, (m, e)


def test_scaling_the_inner_theta_reproduces_the_odd_part():
    # a * f(a^5*b^3, a^-1*b) is S_1 of the mod-2 split
    inner = theta_expand(
        ThetaArgs(ScaledMonomial.make(1, 5, 3), ScaledMonomial.make(1, -1, 1)), 8)
    lifted = inner.scale(ScaledMonomial.make(1, 1, 0))
    assert lifted == dissect_filter(2, 1, 9)


def test_specialize_of_m4_component_s0():
    s0 = dissect_filter(4, 0, 60).specialize_q()
    direct = theta_expand(
        ThetaArgs(ScaledMonomial.make(1, 16, 0), ScaledMonomial.make(1, 16, 0)), 60)
    assert s0 == direct


def test_exponent_integrality_across_grid():
    # k past [0, m) too: one inner argument has negative degree when 2|k| > m
    for m in range(1, 9):
        for k in range(-m, 2 * m):
            prefix, args = closed_form_parts(m, k)
            assert prefix.total_degree == k * k
            first, second = args.first.total_degree, args.second.total_degree
            assert first + second == 2 * m * m
            assert first - second == 4 * m * k


@given(st.integers(1, 12), st.integers(-40, 40), st.integers(-3, 150))
@settings(max_examples=200, deadline=None)
def test_closed_form_holds_for_every_integer_k(m, k, bound):
    # n = mj + k names the same class as n = mj + (k mod m), so the closed form
    # at any integer k is S_(k mod m)
    closed = dissect_closed(m, k, bound)
    filtered = dissect_filter(m, k, bound)
    assert closed == filtered == dissect_filter(m, k % m, bound)
    assert closed.validity == filtered.validity == bound
