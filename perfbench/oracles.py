"""Independent oracles for the benchmark's output checks.

Nothing here imports thetadissect. Each oracle recomputes a fact from its
definition, by a different route from the program's:

* `theta_direct` sums f(x, y) = sum over n of x^(n(n+1)/2) y^(n(n-1)/2)
  term by term at scaled-monomial arguments r * zeta_L^j * a^p * b^q, with
  an optional residue filter n = k (mod m) for the dissection classes;
* `squares_reps` counts the representations of n as a sum of k squares by
  dynamic programming over the squares, the coefficient of q^n in f(q,q)^k;
* `least_term` gives the least term of the class S_k in the program's term
  order, where a transformation identity with one zeta^(k^2) exponent off by
  one first fails.

Numbers of Q(zeta_L) are tuples of Fractions in the power basis 1, zeta, ...,
zeta^(phi(L)-1), reduced modulo the cyclotomic polynomial, which is built
here from the Moebius product formula. `render_*` write the program's text
format from those tuples.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

# -- Q(zeta_L) in the power basis ----------------------------------------------


def _moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _poly_div(f: list[int], g: list[int]) -> list[int]:
    """Exact quotient of integer polynomials, lowest degree first; g monic."""
    rem = list(f)
    quot = [0] * (len(f) - len(g) + 1)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(g) - 1]
        quot[i] = c
        for j, b in enumerate(g):
            rem[i + j] -= c * b
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic(L: int) -> tuple[int, ...]:
    """Phi_L = prod over d | L of (x^d - 1)^mu(L/d), lowest degree first."""
    num, den = [1], [1]
    for d in range(1, L + 1):
        if L % d == 0:
            mu = _moebius(L // d)
            factor = [-1] + [0] * (d - 1) + [1]
            if mu == 1:
                num = _poly_mul(num, factor)
            elif mu == -1:
                den = _poly_mul(den, factor)
    return tuple(_poly_div(num, den))


def phi(L: int) -> int:
    return len(cyclotomic(L)) - 1


@lru_cache(maxsize=None)
def root(L: int, j: int) -> tuple[Fraction, ...]:
    """zeta_L^j in the power basis: x^(j mod L) reduced modulo Phi_L."""
    modulus = cyclotomic(L)
    n = phi(L)
    vec = [0] * max(L, n)
    vec[j % L] = 1
    for top in range(len(vec) - 1, n - 1, -1):
        c = vec[top]
        if c:
            for i, b in enumerate(modulus):
                vec[top - n + i] -= c * b
    return tuple(Fraction(v) for v in vec[:n])


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(u, r: Fraction):
    return tuple(a * r for a in u)


def is_zero(u) -> bool:
    return not any(u)


# -- the theta kernel by direct summation ----------------------------------------


def theta_direct(x, y, bound: int, L: int = 1, residue=None) -> dict:
    """f(x, y) through total degree `bound` as {(p, q): power-basis tuple}.

    x and y are (r, j, p, q), meaning r * zeta_L^j * a^p * b^q, with
    d1 + d2 > 0 for their total degrees. residue=(m, k) keeps only the
    indices n = k (mod m).
    """
    r1, j1, p1, q1 = x
    r2, j2, p2, q2 = y
    d1, d2 = p1 + q1, p2 + q2
    if d1 + d2 <= 0:
        raise ValueError("f(x, y) needs d1 + d2 > 0")
    # for |n| >= reach the degree is >= |n|(|n| - |d1-d2|)/2 > |bound|
    reach = math.isqrt(2 * abs(bound)) + abs(d1 - d2) + 2
    out: dict = {}
    for n in range(-reach, reach + 1):
        if residue is not None and n % residue[0] != residue[1]:
            continue
        t, u = n * (n + 1) // 2, n * (n - 1) // 2
        if d1 * t + d2 * u > bound:
            continue
        mono = (p1 * t + p2 * u, q1 * t + q2 * u)
        coeff = vec_scale(root(L, j1 * t + j2 * u), Fraction(r1) ** t * Fraction(r2) ** u)
        out[mono] = vec_add(out[mono], coeff) if mono in out else coeff
    return {m: c for m, c in out.items() if not is_zero(c)}


def shift(series: dict, p: int, q: int) -> dict:
    return {(a + p, b + q): c for (a, b), c in series.items()}


def real_imag_part(series: dict, part: str) -> dict:
    """Re or Im of a series over Q(i) = Q(zeta_4), basis (1, i)."""
    out = {}
    for mono, (re_, im_) in series.items():
        value = re_ if part == "re" else im_
        if value:
            out[mono] = (value, Fraction(0))
    return out


def specialize_q(series: dict) -> dict:
    """a^p b^q -> q^(p+q), written in the a-slot as the program does."""
    out: dict = {}
    for (p, q), c in series.items():
        mono = (p + q, 0)
        out[mono] = vec_add(out[mono], c) if mono in out else c
    return {m: c for m, c in out.items() if not is_zero(c)}


def upto(series: dict, bound: int) -> dict:
    return {m: c for m, c in series.items() if m[0] + m[1] <= bound}


# -- the left sides of the built-in catalog --------------------------------------

# name -> (L, x, y, prefix, part, specq) with x, y = (r, j, p, q)
_IA, _IB = (1, 1, 1, 0), (1, 1, 0, 1)  # zeta_L * a, zeta_L * b
CATALOG_LHS = {
    "entry30_ii": (1, (1, 0, 3, 1), (1, 0, 1, 3), (0, 0), None, False),
    "entry30_iii": (1, (1, 0, 5, 3), (1, 0, -1, 1), (1, 0), None, False),
    "entry25_i": (1, (1, 0, 3, 1), (1, 0, 1, 3), (0, 0), None, True),
    "entry25_ii": (1, (1, 0, 5, 3), (1, 0, -1, 1), (1, 0), None, True),
    "entry7": (3, _IA, _IB, (0, 0), None, False),
    "entry9a": (4, _IA, _IB, (0, 0), None, False),
    "entry9b": (4, _IA, _IB, (0, 0), None, False),
    "remark_re": (4, _IA, _IB, (0, 0), "re", False),
    "remark_re_parts": (4, _IA, _IB, (0, 0), "re", False),
    "remark_im": (4, _IA, _IB, (0, 0), "im", False),
    "remark_im_parts": (4, _IA, _IB, (0, 0), "im", False),
    "remark_q_re": (4, _IA, _IB, (0, 0), "re", True),
    "remark_q_im": (4, _IA, _IB, (0, 0), "im", True),
}
CATALOG_LHS.update({"thm_m%d" % m: (m, _IA, _IB, (0, 0), None, False) for m in range(2, 9)})


def catalog_lhs(name: str, bound: int) -> tuple[int, dict]:
    """(L, left side of the named entry through total degree `bound`)."""
    L, x, y, prefix, part, specq = CATALOG_LHS[name]
    series = shift(theta_direct(x, y, bound, L), *prefix)
    if part is not None:
        series = real_imag_part(series, part)
    if specq:
        series = specialize_q(series)
    return L, upto(series, bound)


# -- sums of squares ----------------------------------------------------------------


@lru_cache(maxsize=None)
def squares_reps(k: int, top: int) -> tuple[int, ...]:
    """r_k(n) for n = 0..top: ordered representations n = x_1^2 + ... + x_k^2
    over the integers, signs and order counted."""
    reps = [1] + [0] * top
    squares = [(s * s, 1 if s == 0 else 2) for s in range(math.isqrt(top) + 1)]
    for _ in range(k):
        nxt = [0] * (top + 1)
        for n in range(top + 1):
            total = 0
            for sq, mult in squares:
                if sq > n:
                    break
                total += mult * reps[n - sq]
            nxt[n] = total
        reps = nxt
    return tuple(reps)


def jacobi_r2(n: int) -> int:
    """r_2(n) = 4 (d_1(n) - d_3(n)) for n >= 1."""
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return 4 * (sum(1 for d in divs if d % 4 == 1) - sum(1 for d in divs if d % 4 == 3))


def jacobi_r4(n: int) -> int:
    """r_4(n) = 8 * (sum of the divisors of n not divisible by 4) for n >= 1."""
    return 8 * sum(d for d in range(1, n + 1) if n % d == 0 and d % 4 != 0)


# -- the first failure of a perturbed transformation --------------------------------


def least_term(m: int, k: int) -> tuple[int, tuple[int, int]]:
    """(n, monomial) of the least term of S_k in term order. The index-n term
    is a^(n(n+1)/2) b^(n(n-1)/2), of total degree n^2, so only n = k and
    n = k - m can be least."""
    return min(((n, (n * (n + 1) // 2, n * (n - 1) // 2)) for n in (k, k - m)),
               key=lambda item: term_key(item[1]))


# -- the program's text format --------------------------------------------------


def render_monomial(mono) -> str:
    parts = []
    for sym, e in zip("ab", mono):
        if e:
            parts.append(sym if e == 1 else "%s^%d" % (sym, e))
    return "*".join(parts) if parts else "1"


def _zeta(L: int, j: int) -> str:
    return "zeta%d" % L if j == 1 else "zeta%d^%d" % (L, j)


def render_number(vec, L: int) -> str:
    """A number of Q(zeta_L) as the program prints it on its own."""
    parts = []
    for j, c in enumerate(vec):
        if not c:
            continue
        body = str(abs(c)) if j == 0 else (_zeta(L, j) if abs(c) == 1 else "%s*%s" % (abs(c), _zeta(L, j)))
        if parts:
            parts.append((" - " if c < 0 else " + ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts) or "0"


def render_coeff(vec, L: int) -> tuple[bool, str]:
    """(negative, coefficient text) of one series term; text "1" means no
    coefficient is written."""
    nonzero = [(j, c) for j, c in enumerate(vec) if c]
    if len(nonzero) == 1:
        j, c = nonzero[0]
        text = str(abs(c)) if j == 0 else (_zeta(L, j) if abs(c) == 1 else "%s*%s" % (abs(c), _zeta(L, j)))
        return c < 0, text
    return False, "(%s)" % render_number(vec, L)


def term_key(mono) -> tuple[int, int]:
    """The program's term order: total degree ascending, then a-exponent
    descending."""
    return (mono[0] + mono[1], -mono[0])


def render_series(series: dict, L: int) -> str:
    """A series in the program's term order and text format."""
    if not series:
        return "0"
    out = []
    for mono in sorted(series, key=term_key):
        negative, coeff = render_coeff(series[mono], L)
        mono_txt = render_monomial(mono)
        if coeff == "1":
            body = mono_txt
        elif mono_txt == "1":
            body = coeff
        else:
            body = "%s*%s" % (coeff, mono_txt)
        if out:
            out.append((" - " if negative else " + ") + body)
        else:
            out.append(("-" if negative else "") + body)
    return "".join(out)


_MONO_FACTOR = re.compile(r"^([ab])(?:\^(-?\d+))?$")


def parse_series(text: str) -> dict:
    """Program text of a series -> {(p, q): (negative, coefficient text)}."""
    if text == "0":
        return {}
    terms, depth, start, negative = {}, 0, 0, text.startswith("-")
    if negative:
        start = 1
    pieces = []
    i = start
    while i < len(text):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and text.startswith((" + ", " - "), i):
            pieces.append((negative, text[start:i]))
            negative, start = text[i + 1] == "-", i + 3
            i += 3
            continue
        i += 1
    pieces.append((negative, text[start:]))
    for negative, body in pieces:
        factors, depth, cut = [], 0, 0
        for i, ch in enumerate(body):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "*" and depth == 0:
                factors.append(body[cut:i])
                cut = i + 1
        factors.append(body[cut:])
        mono = [0, 0]
        while factors and _MONO_FACTOR.match(factors[-1]):
            sym, exp = _MONO_FACTOR.match(factors.pop()).groups()
            mono["ab".index(sym)] += int(exp) if exp else 1
        coeff = "*".join(factors) or "1"
        terms[tuple(mono)] = (negative, coeff)
    return terms


def expected_terms(series: dict, L: int) -> dict:
    """The oracle's series in the form `parse_series` returns."""
    return {mono: render_coeff(c, L) for mono, c in series.items()}
