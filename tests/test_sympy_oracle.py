"""Cross-checks of the cyclotomic layer against sympy, when it is installed.

The runtime never imports sympy; these tests skip without it.
"""
import random
from fractions import Fraction

import pytest

from conftest import cyclo_from_pairs, rand_cyclo
from thetadissect.cyclotomic import CycloNum, cyclotomic_polynomial, euler_phi, zeta_power
from thetadissect.laurent import Monomial, ScaledMonomial
from thetadissect.theta import ThetaArgs, theta_expand

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24, 30]


def _phi_poly(order):
    return sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")


def _as_poly(c: CycloNum):
    terms = [sympy.Rational(x, c.den) * X ** j for j, x in enumerate(c.nums)]
    return sympy.Poly(sum(terms), X, domain="QQ")


def _reduced(poly, order) -> CycloNum:
    """poly mod Phi_order as an element of Q(zeta_order)."""
    rem = poly.rem(_phi_poly(order)).all_coeffs()[::-1]
    rem += [0] * (euler_phi(order) - len(rem))
    return cyclo_from_pairs(order, [(int(c.p), int(c.q)) for c in map(sympy.Rational, rem)])


def test_cyclotomic_polynomials_match_sympy():
    for n in [*range(1, 61), 210, 1155, 2310, 4620]:
        expected = [int(c) for c in reversed(_phi_poly(n).all_coeffs())]
        assert list(cyclotomic_polynomial(n)) == expected, n


@pytest.mark.parametrize("order", ORDERS)
def test_zeta_power_rows_match_sympy(order):
    for j in range(-2, order + 3):
        x_power = sympy.Poly(X ** (j % order), X, domain="QQ")
        assert zeta_power(order, j) == _reduced(x_power, order), j


@pytest.mark.parametrize("order", ORDERS)
def test_products_embeddings_and_conjugates_match_sympy(order):
    rng = random.Random(5000 + order)
    target = 2 * order
    for _ in range(4):
        x, y = rand_cyclo(rng, order, span=5), rand_cyclo(rng, order, span=5)
        assert x * y == _reduced(_as_poly(x) * _as_poly(y), order)
        # zeta_L -> zeta_2L^2, and zeta -> zeta^(L-1) for the conjugate
        embedded = _as_poly(x).compose(sympy.Poly(X ** 2, X))
        assert x.embed(target) == _reduced(embedded, target)
        conj = _as_poly(x).compose(sympy.Poly(X ** (order - 1), X))
        assert x.conjugate() == _reduced(conj, order)


@pytest.mark.parametrize("order, r1, e1, r2, e2", [
    (3, Fraction(-2, 3), 1, Fraction(5, 2), 2),
    (5, Fraction(3), 2, Fraction(-1, 4), 4),
    (8, Fraction(-3, 2), 3, Fraction(2, 5), 6),
    (12, Fraction(7, 3), 5, Fraction(-1, 2), 1),
])
def test_theta_coefficients_match_sympy(order, r1, e1, r2, e2):
    # the index-n term of f(r1 zeta^e1 a, r2 zeta^e2 b) is
    # r1^t r2^u zeta^(e1 t + e2 u) a^t b^u, t = n(n+1)/2, u = n(n-1)/2
    args = ThetaArgs(ScaledMonomial(r1, e1, order, Monomial(1, 0)),
                     ScaledMonomial(r2, e2, order, Monomial(0, 1)))
    series = theta_expand(args, 30)
    expected = {}
    for n in range(-5, 6):
        t, u = n * (n + 1) // 2, n * (n - 1) // 2
        power = sympy.Rational(r1) ** t * sympy.Rational(r2) ** u * X ** (e1 * t + e2 * u)
        expected[Monomial(t, u)] = _reduced(sympy.Poly(power, X, domain="QQ"), order)
    assert series.validity == 30
    assert series.terms == expected
