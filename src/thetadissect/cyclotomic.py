"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(L)-1) modulo the
L-th cyclotomic polynomial, as integer numerators over one denominator in
lowest terms, so equality is plain comparison and no normalization pass is
ever needed. Floating point is deliberately absent from this module.

Only ring operations plus scaling by rationals are provided.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompatibleOrders, OrderMismatch, OrderNotDivisibleBy4


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient, by trial-division factorization (n stays small here)."""
    if n < 1:
        raise ValueError("totient needs a positive integer")
    result = n
    remaining = n
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            while remaining % p == 0:
                remaining //= p
            result -= result // p
        p += 1
    if remaining > 1:
        result -= result // remaining
    return result


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, lowest degree first, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    @staticmethod
    def make(coeffs) -> "IntPolynomial":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return IntPolynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPolynomial.make(out)

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Quotient self / divisor, requiring a zero remainder and exact steps."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        quot = [0] * max(len(rem) - len(dc) + 1, 0)
        for i in range(len(rem) - len(dc), -1, -1):
            lead = rem[i + len(dc) - 1]
            q, r = divmod(lead, dc[-1])
            if r != 0:
                raise ValueError("polynomial division is not exact")
            quot[i] = q
            if q:
                for j, d in enumerate(dc):
                    rem[i + j] -= q * d
        if any(rem):
            raise ValueError("polynomial division left a remainder")
        return IntPolynomial.make(quot)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("x" if i == 1 else "x^%d" % i)
            mag = abs(c)
            body = mono if (mag == 1 and i > 0) else (str(mag) if i == 0 else "%d*%s" % (mag, mono))
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)


def _x_power_minus_one(m: int) -> IntPolynomial:
    return IntPolynomial.make([-1] + [0] * (m - 1) + [1])


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial Phi_m.

    Computed by exact division of x^m - 1 by the product of Phi_d over the
    proper divisors d of m; arbitrary-precision integers make this safe for
    any m this engine meets.
    """
    if m < 1:
        raise ValueError("cyclotomic polynomial needs m >= 1")
    poly = _x_power_minus_one(m)
    for d in range(1, m):
        if m % d == 0:
            poly = poly.exact_div(cyclotomic_polynomial(d))
    return poly


@functools.lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Row j is the power-basis expansion of zeta^j, for 0 <= j < order."""
    phi = euler_phi(order)
    modulus = cyclotomic_polynomial(order).coeffs  # monic, degree phi
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


def reduce_powers(order: int, values, step: int = 1) -> list[int]:
    """Power-basis coefficients of the sum of values[j] * zeta_order^(j*step).

    The values are integers. Row j*step mod order of the reduction table
    expands that power; a row below phi(order) is a unit vector, so its value
    is added straight in.
    """
    rows = _reduction_rows(order)
    phi = len(rows[0])
    out = [0] * phi
    for j, c in enumerate(values):
        if c:
            idx = j * step % order
            if idx < phi:
                out[idx] += c
            else:
                for i, v in enumerate(rows[idx]):
                    if v:
                        out[i] += c * v
    return out


def _combine(order: int, values, den: int, step: int = 1) -> "CycloNum":
    """The sum of values[j] * zeta_order^(j*step) / den, in Q(zeta_order)."""
    return CycloNum(order, tuple(reduce_powers(order, values, step)), den)


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

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

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

    def real_imag(self) -> tuple["CycloNum", "CycloNum"]:
        """Split x = re + i*im with re, im fixed by conjugation; needs 4 | order."""
        if self.order % 4 != 0:
            raise OrderNotDivisibleBy4("order %d is not divisible by 4" % self.order)
        i_unit = zeta_power(self.order, self.order // 4)
        conj = self.conjugate()
        re = (self + conj) * Fraction(1, 2)
        # 1/(2i) = -i/2
        im = (self - conj) * (-i_unit) * Fraction(1, 2)
        return re, im

    # -- rendering -----------------------------------------------------------

    def basis_terms(self) -> list[tuple[int, Fraction]]:
        """Nonzero (power, coefficient) pairs, power ascending."""
        return [(j, Fraction(x, self.den)) for j, x in enumerate(self.nums) if x]

    def __str__(self) -> str:
        terms = self.basis_terms()
        if not terms:
            return "0"
        parts = []
        for j, c in terms:
            if j == 0:
                body = str(abs(c))
            else:
                z = "zeta%d" % self.order if j == 1 else "zeta%d^%d" % (self.order, j)
                body = z if abs(c) == 1 else "%s*%s" % (abs(c), z)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)


@functools.lru_cache(maxsize=None)
def _zeta_powers(order: int) -> tuple[CycloNum, ...]:
    """zeta_order^j for 0 <= j < order, shared: CycloNum is immutable."""
    return tuple(CycloNum(order, row) for row in _reduction_rows(order))


def zeta_power(order: int, exponent: int) -> CycloNum:
    """zeta_order^(exponent mod order), reduced to the power basis."""
    if order < 1:
        raise ValueError("root order must be >= 1")
    return _zeta_powers(order)[exponent % order]
