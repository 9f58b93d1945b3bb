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

which catalog.transformation_identity states in the identity language for
any m-th root of unity zeta = zeta_m^e, not only a primitive one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclotomic import CycloNum
from .laurent import LaurentSeries, Monomial, ScaledMonomial
from .theta import ThetaArgs, theta_expand


def _half(x: int) -> int:
    # the proof divides by 2; the division must be exact
    q, r = divmod(x, 2)
    if r:
        raise ValueError("odd value where an even one was promised: %d" % x)
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
        ScaledMonomial(1, 0, 1, a_m * shift),
        ScaledMonomial(1, 0, 1, b_m * shift ** -1),
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
    """Closed-form path. The theta call runs with budget bound - k^2, and the
    prefix raises every degree and the validity by exactly k^2, so the scaled
    result is exact through the requested bound and stores nothing above it."""
    prefix, args = closed_form_parts(spec)
    inner = theta_expand(args, bound - prefix.total_degree)
    return inner.scale(ScaledMonomial(1, 0, 1, prefix))

