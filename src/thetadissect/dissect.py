"""Residue-class dissection of f(a, b) modulo m.

With T(n) = n(n+1)/2, f(a, b) is the sum over n of a^T(n) b^T(-n). S_k collects
the indices n = mj + k, and substituting n = mj + k gives its closed form

  S_k = a^T(k) b^T(-k) * f(a^(T(m)+mk) b^(T(-m)+mk), a^(T(-m)-mk) b^(T(m)-mk)),

which holds for every integer k, not only for 0 <= k < m. Two independent code
paths produce S_k:

  * dissect_filter, the oracle: sums a^T(n) b^T(-n) directly over the indices
    of the class, never touching the theta kernel;
  * dissect_closed, the closed form above, through theta_expand.

Their agreement for every (m, k) is the computational content of the
root-of-unity transformation

  f(zeta a, zeta b) = sum over k of zeta^(k^2) * S_k(a, b),

which catalog.transformation_identity builds as an identity-language AST for
any m-th root of unity zeta = zeta_m^e, not only a primitive one.

Each class window, and a run over every class, is handed to
theta.check_index_cap as a range; theta.py alone reads the index cap.
"""
from __future__ import annotations

import math

from .cyclotomic import CycloNum
from .laurent import LaurentSeries, Monomial, ScaledMonomial
from .theta import ThetaArgs, check_index_cap, theta_expand


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def closed_form_parts(m: int, k: int) -> tuple[Monomial, ThetaArgs]:
    """Prefix monomial and theta arguments of the closed form of S_k."""
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    first = Monomial(_tri(m) + m * k, _tri(-m) + m * k)
    second = Monomial(_tri(-m) - m * k, _tri(m) - m * k)
    args = ThetaArgs(ScaledMonomial(1, 0, 1, first), ScaledMonomial(1, 0, 1, second))
    return Monomial(_tri(k), _tri(-k)), args


def _class_indices(m: int, k: int, bound: int) -> range:
    """The indices n = k (mod m) with n^2 <= bound, ascending.

    The index-n term of f(a, b) has total degree T(n) + T(-n) = n^2, so the
    cutoff is |n| <= isqrt(bound): the class's least n >= -isqrt(bound), then
    every m-th index, about 2*isqrt(bound)/m of them.
    """
    if bound < 0:
        return range(0)
    top = math.isqrt(bound)
    return range(-top + (k + top) % m, top + 1, m)


def check_run_size(bound: int) -> None:
    """Refuse a dissection over every class whose indices, every n with
    n^2 <= bound, pass the index cap: each class is capped on its own, so
    this bounds the loop over classes."""
    check_index_cap("dissection run", _class_indices(1, 0, bound))


def dissect_filter(m: int, k: int, bound: int) -> LaurentSeries:
    """Oracle path: direct sum over n = k (mod m) with n^2 <= bound.

    The walk visits the class's indices alone, and more than the index cap
    of them raise RequestTooLarge before the walk. Shares nothing with the
    theta kernel.
    """
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    indices = _class_indices(m, k, bound)
    check_index_cap("dissection filter", indices)
    one = CycloNum.one()
    entries = [(Monomial(_tri(n), _tri(-n)), one) for n in indices]
    return LaurentSeries.make(entries, bound, 1)


def dissect_closed(m: int, k: int, bound: int) -> LaurentSeries:
    """Closed-form path. The theta call runs with budget bound - k^2 and
    multiplies its prefix a^T(k) b^T(-k) into each term as it expands; the
    prefix raises every degree and the validity by exactly k^2, so the
    result is exact through the requested bound and stores nothing above it."""
    prefix, args = closed_form_parts(m, k)
    return theta_expand(args, bound - prefix.total_degree, ScaledMonomial(1, 0, 1, prefix))
