"""Residue-class dissection of f(a, b) modulo m.

S_k collects the indices n congruent to k mod m. Two independent code paths
produce it:

  * dissect_filter, the oracle: sums a^(n(n+1)/2) b^(n(n-1)/2) directly over
    the filtered indices, never touching the theta kernel;
  * dissect_closed, the closed form: the monomial prefix
    a^(k(k+1)/2) b^(k(k-1)/2) times f(A_m (ab)^(mk), B_m (ab)^(-mk)) with
    A_m = a^(m(m+1)/2) b^(m(m-1)/2) and B_m its mirror.

Their agreement for every (m, k) is the computational content of the
root-of-unity transformation

  f(zeta a, zeta b) = sum over k of zeta^(k^2) * S_k(a, b),

whose two sides transform_lhs / transform_rhs expose. zeta may be any m-th
root of unity zeta_m^e, not only a primitive one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import CycloNum, zeta_power
from .laurent import LaurentSeries, Monomial, ScaledMonomial
from .theta import ThetaArgs, theta_expand


def _half(x: int) -> int:
    # the proof divides by 2; the division must be exact
    q, r = divmod(x, 2)
    assert r == 0, "odd value where an even one was promised: %d" % x
    return q


@dataclass(frozen=True)
class DissectionSpec:
    m: int
    k: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("modulus m must be >= 1")
        if not 0 <= self.k < self.m:
            raise ValueError("residue k=%d out of range [0, %d)" % (self.k, self.m))


def boundary_monomials(m: int) -> tuple[Monomial, Monomial]:
    """(A_m, B_m) = (a^(m(m+1)/2) b^(m(m-1)/2), a^(m(m-1)/2) b^(m(m+1)/2))."""
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    up = _half(m * (m + 1))
    down = _half(m * (m - 1))
    return Monomial(up, down), Monomial(down, up)


def closed_form_parts(spec: DissectionSpec) -> tuple[Monomial, ThetaArgs]:
    """Prefix monomial and theta arguments of the closed form of S_k."""
    m, k = spec.m, spec.k
    prefix = Monomial(_half(k * (k + 1)), _half(k * (k - 1)))
    a_m, b_m = boundary_monomials(m)
    shift = Monomial(m * k, m * k)
    args = ThetaArgs(
        ScaledMonomial(CycloNum.one(), a_m * shift),
        ScaledMonomial(CycloNum.one(), b_m * shift ** -1),
    )
    return prefix, args


def dissect_filter(spec: DissectionSpec, bound: int) -> LaurentSeries:
    """Oracle path: direct sum over n = k (mod m) with n^2 <= bound.

    The index-n term has total degree n(n+1)/2 + n(n-1)/2 = n^2, so the cutoff
    is |n| <= isqrt(bound). Shares nothing with the theta kernel.
    """
    entries = []
    if bound >= 0:
        top = math.isqrt(bound)
        for n in range(-top, top + 1):
            if n % spec.m == spec.k:
                mono = Monomial(n * (n + 1) // 2, n * (n - 1) // 2)
                entries.append((mono, CycloNum.one()))
    return LaurentSeries.make(entries, bound, 1)


def dissect_closed(spec: DissectionSpec, bound: int) -> LaurentSeries:
    """Closed-form path. The theta call runs with budget bound - k^2 (the
    prefix raises every degree by exactly k^2), so the scaled result is exact
    through the requested bound, which the final truncate restores."""
    prefix, args = closed_form_parts(spec)
    inner = theta_expand(args, bound - prefix.total_degree)
    return inner.scale(ScaledMonomial(CycloNum.one(), prefix)).truncate(bound)


def transform_lhs(m: int, zeta_exponent: int, bound: int) -> LaurentSeries:
    """f(zeta a, zeta b) with zeta = zeta_m^e, expanded directly; the index-n
    coefficient is zeta^(n^2)."""
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    zeta = zeta_power(m, zeta_exponent)
    args = ThetaArgs(
        ScaledMonomial(zeta, Monomial(1, 0)),
        ScaledMonomial(zeta, Monomial(0, 1)),
    )
    return theta_expand(args, bound)


def transform_rhs(m: int, zeta_exponent: int, bound: int) -> LaurentSeries:
    """Sum over k of zeta^(k^2) times the closed form of S_k, in Q(zeta_m)."""
    if m < 1:
        raise ValueError("modulus m must be >= 1")
    total = LaurentSeries.zero(bound, m)
    for k in range(m):
        piece = dissect_closed(DissectionSpec(m, k), bound).embed(m)
        total = total + piece.scale_coeff(zeta_power(m, zeta_exponent * k * k))
    return total
