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

which catalog.transformation_identity states in the identity language for
any m-th root of unity zeta = zeta_m^e, not only a primitive one.
"""
from __future__ import annotations

import math

from .cyclotomic import CycloNum
from .laurent import LaurentSeries, Monomial, ScaledMonomial
from .theta import ThetaArgs, theta_expand


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


def dissect_filter(m: int, k: int, bound: int) -> LaurentSeries:
    """Oracle path: direct sum over n = k (mod m) with n^2 <= bound.

    The index-n term has total degree T(n) + T(-n) = n^2, so the cutoff is
    |n| <= isqrt(bound); the walk visits the class's indices alone, about
    2*isqrt(bound)/m of them. Shares nothing with the theta kernel.
    """
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    entries = []
    if bound >= 0:
        top = math.isqrt(bound)
        # the class's least n >= -top, then every m-th index
        for n in range(-top + (k + top) % m, top + 1, m):
            entries.append((Monomial(_tri(n), _tri(-n)), CycloNum.one()))
    return LaurentSeries.make(entries, bound, 1)


def dissect_closed(m: int, k: int, bound: int) -> LaurentSeries:
    """Closed-form path. The theta call runs with budget bound - k^2, and the
    prefix raises every degree and the validity by exactly k^2, so the scaled
    result is exact through the requested bound and stores nothing above it."""
    prefix, args = closed_form_parts(m, k)
    inner = theta_expand(args, bound - prefix.total_degree)
    return inner.scale(ScaledMonomial(1, 0, 1, prefix))
