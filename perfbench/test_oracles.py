"""The oracles against values worked out by hand.

    python3 -m pytest perfbench/test_oracles.py
"""
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as orc  # noqa: E402

F = Fraction


def test_cyclotomic_polynomials():
    assert orc.cyclotomic(1) == (-1, 1)
    assert orc.cyclotomic(2) == (1, 1)
    assert orc.cyclotomic(4) == (1, 0, 1)
    assert orc.cyclotomic(6) == (1, -1, 1)
    assert orc.cyclotomic(12) == (1, 0, -1, 0, 1)
    assert orc.cyclotomic(5) == (1, 1, 1, 1, 1)


def test_roots_in_the_power_basis():
    assert orc.root(2, 1) == (F(-1),)
    assert orc.root(4, 2) == (F(-1), F(0))
    assert orc.root(4, 3) == (F(0), F(-1))
    assert orc.root(3, 2) == (F(-1), F(-1))  # omega^2 = -1 - omega
    assert orc.root(5, 4) == (F(-1),) * 4
    assert orc.root(6, 3) == (F(-1), F(0))
    assert orc.root(5, -1) == orc.root(5, 4)


def test_theta_direct_at_a_b():
    # f(a, b) = 1 + a + b + a^3 b + a b^3 + a^6 b^3 + a^3 b^6 + ... (n = 0, 1, -1, 2, -2, 3, -3)
    series = orc.theta_direct((1, 0, 1, 0), (1, 0, 0, 1), 9)
    assert set(series) == {(0, 0), (1, 0), (0, 1), (3, 1), (1, 3), (6, 3), (3, 6)}
    assert all(c == (F(1),) for c in series.values())


def test_theta_direct_scaled_arguments():
    # f(-a, 2b): the index-n term is (-1)^t 2^u a^t b^u, t = n(n+1)/2, u = n(n-1)/2
    series = orc.theta_direct((-1, 0, 1, 0), (2, 0, 0, 1), 4)
    assert series == {(0, 0): (F(1),), (1, 0): (F(-1),), (0, 1): (F(2),),
                      (3, 1): (F(-2),), (1, 3): (F(-8),)}


def test_theta_direct_with_a_root_of_unity():
    # f(i a, i b): coefficient i^(n^2), so 1, i, i, 1, 1, i, i through degree 9
    series = orc.theta_direct((1, 1, 1, 0), (1, 1, 0, 1), 9, L=4)
    assert series[(0, 0)] == (F(1), F(0))
    assert series[(1, 0)] == (F(0), F(1))
    assert series[(3, 1)] == (F(1), F(0))
    assert series[(6, 3)] == (F(0), F(1))


def test_theta_direct_residue_classes():
    # m = 3: k = 1 collects n = 1, -2, 4: a, a b^3, a^10 b^6
    series = orc.theta_direct((1, 0, 1, 0), (1, 0, 0, 1), 20, residue=(3, 1))
    assert set(series) == {(1, 0), (1, 3), (10, 6)}
    assert orc.render_series(series, 1) == "a + a*b^3 + a^10*b^6"
    assert orc.theta_direct((1, 0, 1, 0), (1, 0, 0, 1), 200, residue=(30, 15)) == {}


def test_theta_direct_negative_degree_argument():
    # f(a^5 b^3, a^-1 b): degrees 8 and 0, so the index-n term has degree
    # 4n(n+1): n = 0, -1 at degree 0 and n = 1, -2 at degree 8
    series = orc.theta_direct((1, 0, 5, 3), (1, 0, -1, 1), 8)
    assert set(series) == {(0, 0), (-1, 1), (5, 3), (2, 6)}


def test_catalog_left_sides():
    L, lhs = orc.catalog_lhs("entry30_iii", 12)
    assert orc.render_series(lhs, L) == "a + b + a^6*b^3 + a^3*b^6"
    L, lhs = orc.catalog_lhs("remark_q_im", 12)
    assert orc.render_series(lhs, L) == "2*a + 2*a^9"
    L, lhs = orc.catalog_lhs("thm_m6", 12)
    assert orc.render_series(lhs, L) == (
        "1 + zeta6*a + zeta6*b - zeta6*a^3*b - zeta6*a*b^3 - a^6*b^3 - a^3*b^6")
    L, lhs = orc.catalog_lhs("thm_m5", 2)
    assert orc.render_series(lhs, L) == "1 + zeta5*a + zeta5*b"
    _, lhs = orc.catalog_lhs("thm_m5", 4)
    assert orc.render_coeff(lhs[(3, 1)], 5) == (False, "(-1 - zeta5 - zeta5^2 - zeta5^3)")


def test_squares_reps_small_values():
    # r_2: 1, 4, 4, 0, 4, 8;  r_3(3) = 8 (all sign choices of 1+1+1)
    assert orc.squares_reps(2, 5) == (1, 4, 4, 0, 4, 8)
    assert orc.squares_reps(3, 3) == (1, 6, 12, 8)
    assert orc.squares_reps(1, 9) == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)


def test_squares_reps_match_jacobi():
    r2 = orc.squares_reps(2, 300)
    r4 = orc.squares_reps(4, 300)
    for n in range(1, 301):
        assert r2[n] == orc.jacobi_r2(n)
        assert r4[n] == orc.jacobi_r4(n)


def test_jacobi_formulas_by_hand():
    assert [orc.jacobi_r2(n) for n in (1, 2, 3, 5, 25)] == [4, 4, 0, 8, 12]
    assert [orc.jacobi_r4(n) for n in (1, 2, 3, 4)] == [8, 24, 32, 24]


def test_least_term():
    assert orc.least_term(5, 0) == (0, (0, 0))
    assert orc.least_term(5, 1) == (1, (1, 0))
    assert orc.least_term(5, 4) == (-1, (0, 1))
    # k = m/2: n = k and n = -k tie on degree; the larger a-exponent wins
    assert orc.least_term(6, 3) == (3, (6, 3))
    assert orc.least_term(30, 16) == (-14, (91, 105))


def test_render_and_parse_round_trip():
    text = "1 - a + 3/2*b + zeta4*a^3*b - 2*zeta4^3*a*b^3 + (1/2 + zeta8)*a^-2*b^5"
    terms = orc.parse_series(text)
    assert terms == {
        (0, 0): (False, "1"), (1, 0): (True, "1"), (0, 1): (False, "3/2"),
        (3, 1): (False, "zeta4"), (1, 3): (True, "2*zeta4^3"),
        (-2, 5): (False, "(1/2 + zeta8)"),
    }
    assert orc.parse_series("0") == {}
    assert orc.parse_series("-zeta3") == {(0, 0): (True, "zeta3")}
    assert orc.render_number((F(-1), F(0), F(1, 2)), 9) == "-1 + 1/2*zeta9^2"
