"""Cross-checks of the cyclotomic layer against sympy, when it is installed.

The runtime never imports sympy; these tests skip without it.
"""
import random
from fractions import Fraction

import pytest

from conftest import rand_cyclo
from thetadissect.cyclotomic import CycloNum, cyclotomic_polynomial, euler_phi, zeta_power

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24, 30]


def _phi_poly(order):
    return sympy.Poly(sympy.cyclotomic_poly(order, X), X, domain="QQ")


def _as_poly(c: CycloNum):
    terms = [sympy.Rational(v.numerator, v.denominator) * X ** j for j, v in enumerate(c.coeffs)]
    return sympy.Poly(sum(terms), X, domain="QQ")


def _reduced(poly, order) -> tuple:
    """poly mod Phi_order as a power-basis vector of Fractions."""
    rem = poly.rem(_phi_poly(order)).all_coeffs()[::-1]
    rem += [0] * (euler_phi(order) - len(rem))
    return tuple(Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, rem))


def test_cyclotomic_polynomials_match_sympy():
    for n in range(1, 61):
        expected = [int(c) for c in reversed(_phi_poly(n).all_coeffs())]
        assert list(cyclotomic_polynomial(n).coeffs) == expected, n


@pytest.mark.parametrize("order", ORDERS)
def test_zeta_power_rows_match_sympy(order):
    for j in range(-2, order + 3):
        x_power = sympy.Poly(X ** (j % order), X, domain="QQ")
        assert zeta_power(order, j).coeffs == _reduced(x_power, order), j


@pytest.mark.parametrize("order", ORDERS)
def test_products_embeddings_and_conjugates_match_sympy(order):
    rng = random.Random(5000 + order)
    target = 2 * order
    for _ in range(4):
        x, y = rand_cyclo(rng, order, span=5), rand_cyclo(rng, order, span=5)
        assert (x * y).coeffs == _reduced(_as_poly(x) * _as_poly(y), order)
        # zeta_L -> zeta_2L^2, and zeta -> zeta^(L-1) for the conjugate
        embedded = _as_poly(x).compose(sympy.Poly(X ** 2, X))
        assert x.embed(target).coeffs == _reduced(embedded, target)
        conj = _as_poly(x).compose(sympy.Poly(X ** (order - 1), X))
        assert x.conjugate().coeffs == _reduced(conj, order)
