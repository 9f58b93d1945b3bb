"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(L)-1) modulo the
L-th cyclotomic polynomial, as integer numerators over one denominator in
lowest terms, so equality is plain comparison and no normalization pass is
ever needed. Floating point is deliberately absent from this module.

Phi_L itself is a plain tuple of integer coefficients, lowest degree first,
built by the Moebius product over the squarefree divisors of L.

Only ring operations plus scaling by rationals are provided, and the text
form of an element, which every report prints: `CycloNum.signed_parts` spells
each basis term from the stored integers, and `join_signed` joins signed parts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompatibleOrders, OrderMismatch


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient: n times (1 - 1/p) over the primes p dividing n."""
    if n < 1:
        raise ValueError("totient needs a positive integer")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial Phi_n, as integer coefficients lowest degree first.

    Built by the Moebius product Phi_n = prod over d | n of (x^(n/d) - 1)^mu(d)
    (Arnold and Monagan, "Calculating cyclotomic polynomials", Math. Comp. 80,
    2011). Only the 2^omega(n) squarefree divisors d count, and each is one
    sparse multiplication or exact division by the binomial x^(n/d) - 1, so
    the cost is O(n) integer operations per divisor. The multiplications go
    first, so every division must leave a zero remainder, and it is checked.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    divisors = [(1, 1)]  # (d, mu(d))
    for p in _prime_factors(n):
        divisors += [(d * p, -mu) for d, mu in divisors]
    poly = [1]
    for d, mu in sorted(divisors, key=lambda entry: -entry[1]):
        k = n // d
        if mu == 1:
            poly = [0] * k + poly
            for i in range(len(poly) - k):
                poly[i] -= poly[i + k]
        else:
            # long division from the top: poly[k:] becomes the quotient and
            # poly[:k] the remainder
            for i in range(len(poly) - 1, k - 1, -1):
                poly[i - k] += poly[i]
            if any(poly[:k]):
                raise ValueError("division by x^%d - 1 left a remainder" % k)
            poly = poly[k:]
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Row j is the power-basis expansion of zeta^j, for 0 <= j < order."""
    phi = euler_phi(order)
    modulus = cyclotomic_polynomial(order)  # monic, degree phi
    rows: list[tuple[int, ...]] = []
    for j in range(order):
        if j < phi:
            row = tuple(1 if i == j else 0 for i in range(phi))
        else:
            prev = rows[j - 1]
            shifted = [0] + list(prev[: phi - 1])
            lead = prev[phi - 1]
            if lead:
                # x^phi = -(modulus minus leading term)
                for i in range(phi):
                    shifted[i] -= lead * modulus[i]
            row = tuple(shifted)
        rows.append(row)
    return tuple(rows)


def reduce_powers(order: int, values, step: int = 1, shift: int = 0) -> list[int]:
    """Power-basis coefficients of the sum of values[j] * zeta_order^(j*step + shift).

    The values are integers. Row (j*step + shift) mod order of the reduction
    table expands that power; a row below phi(order) is a unit vector, so its
    value is added straight in. Zero values cost nothing.
    """
    rows = _reduction_rows(order)
    phi = len(rows[0])
    out = [0] * phi
    for j, c in enumerate(values):
        if c:
            idx = (j * step + shift) % order
            if idx < phi:
                out[idx] += c
            else:
                for i, v in enumerate(rows[idx]):
                    if v:
                        out[i] += c * v
    return out


def _combine(order: int, values, den: int, step: int = 1, shift: int = 0) -> "CycloNum":
    """The sum of values[j] * zeta_order^(j*step + shift) / den, in Q(zeta_order)."""
    return CycloNum(order, tuple(reduce_powers(order, values, step, shift)), den)


@dataclass(frozen=True)
class CycloNum:
    """An element of Q(zeta_order) in the power basis: integer numerators
    nums, of length phi(order), over one denominator den.

    Construction puts every value in lowest terms with den > 0 (zero is all
    zeros over 1), so dataclass equality and hashing are exact in the field.
    """

    order: int
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if len(self.nums) != euler_phi(self.order):
            raise ValueError("numerator vector length must equal phi(order)")
        den = self.den
        if den == 0:
            raise ZeroDivisionError("CycloNum denominator is zero")
        g = math.gcd(den, *self.nums) if den > 0 else -math.gcd(den, *self.nums)
        if g != 1:
            object.__setattr__(self, "nums", tuple([x // g for x in self.nums]))
            object.__setattr__(self, "den", den // g)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(value, order: int = 1) -> "CycloNum":
        value = Fraction(value)
        phi = euler_phi(order)
        return CycloNum(order, (value.numerator,) + (0,) * (phi - 1), value.denominator)

    @staticmethod
    def zero(order: int = 1) -> "CycloNum":
        return CycloNum.from_rational(0, order)

    @staticmethod
    def one(order: int = 1) -> "CycloNum":
        return CycloNum.from_rational(1, order)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("%s is not rational" % self)
        return Fraction(self.nums[0], self.den)

    # -- ring operations -----------------------------------------------------

    def _check_order(self, other: "CycloNum"):
        if self.order != other.order:
            raise OrderMismatch(
                "orders differ: %d vs %d (embed first)" % (self.order, other.order)
            )

    def __add__(self, other: "CycloNum") -> "CycloNum":
        self._check_order(other)
        d, e = self.den, other.den
        return CycloNum(self.order, tuple([a * e + b * d for a, b in zip(self.nums, other.nums)]), d * e)

    def __sub__(self, other: "CycloNum") -> "CycloNum":
        self._check_order(other)
        d, e = self.den, other.den
        return CycloNum(self.order, tuple([a * e - b * d for a, b in zip(self.nums, other.nums)]), d * e)

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, tuple([-a for a in self.nums]), self.den)

    def __mul__(self, other) -> "CycloNum":
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return CycloNum(self.order, tuple([a * s.numerator for a in self.nums]),
                            self.den * s.denominator)
        self._check_order(other)
        conv = [0] * (2 * len(self.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    if b:
                        conv[i + j] += a * b
        return _combine(self.order, conv, self.den * other.den)
    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycloNum":
        if n < 0:
            raise ValueError("CycloNum powers need n >= 0, got %d" % n)
        result = CycloNum.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def times_zeta(self, exponent: int) -> "CycloNum":
        """self * zeta_order^exponent: each nonzero entry moves up `exponent`
        powers, then one reduction, costing the nonzero entries times phi
        where a product costs phi^2."""
        return _combine(self.order, self.nums, self.den, 1, exponent)

    # -- automorphisms and embeddings ----------------------------------------

    def embed(self, target_order: int) -> "CycloNum":
        """Ring embedding into Q(zeta_target) sending zeta_m to zeta_target^(target/m)."""
        m = self.order
        if target_order % m != 0:
            raise IncompatibleOrders("order %d does not divide %d" % (m, target_order))
        if target_order == m:
            return self
        return _combine(target_order, self.nums, self.den, target_order // m)

    def conjugate(self) -> "CycloNum":
        """The automorphism zeta -> zeta^(-1): complex conjugation, an involution."""
        return _combine(self.order, self.nums, self.den, self.order - 1)

    # -- rendering -----------------------------------------------------------

    def signed_parts(self) -> list[tuple[bool, str]]:
        """(negative, text) for each nonzero basis term, power ascending.

        The text is |n|/den in lowest terms, times zeta_order^j for j > 0,
        where a magnitude of 1 is left out; it is read off the integers, so no
        Fraction is built."""
        parts = []
        for j, x in enumerate(self.nums):
            if x:
                g = math.gcd(x, self.den)
                num, den = abs(x) // g, self.den // g
                mag = str(num) if den == 1 else "%d/%d" % (num, den)
                if j == 0:
                    text = mag
                else:
                    z = "zeta%d" % self.order if j == 1 else "zeta%d^%d" % (self.order, j)
                    text = z if mag == "1" else "%s*%s" % (mag, z)
                parts.append((x < 0, text))
        return parts

    def __str__(self) -> str:
        return join_signed(self.signed_parts())


def join_signed(parts: list[tuple[bool, str]]) -> str:
    """The text "x - y + z" of (negative, text) parts, or "0" when there are none."""
    if not parts:
        return "0"
    (negative, text), *rest = parts
    return ("-" if negative else "") + text + "".join(
        (" - " if negative else " + ") + text for negative, text in rest)


@functools.lru_cache(maxsize=None)
def _zeta_powers(order: int) -> tuple[CycloNum, ...]:
    """zeta_order^j for 0 <= j < order, shared: CycloNum is immutable."""
    return tuple(CycloNum(order, row) for row in _reduction_rows(order))


def zeta_power(order: int, exponent: int) -> CycloNum:
    """zeta_order^(exponent mod order), reduced to the power basis."""
    if order < 1:
        raise ValueError("root order must be >= 1")
    return _zeta_powers(order)[exponent % order]
