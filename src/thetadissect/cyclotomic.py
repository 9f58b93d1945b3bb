"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(L)-1) modulo the
L-th cyclotomic polynomial, as integer numerators over one denominator in
lowest terms, so equality is plain comparison and no normalization pass is
ever needed. Floating point is deliberately absent from this module.

Phi_L itself is a plain tuple of integer coefficients, lowest degree first,
built by the Moebius product over the squarefree divisors of L.

Ring operations build every element from integers, and so does the text form
every report prints: `CycloNum.signed_parts` spells each basis term from the
stored integers, `join_signed` joins signed parts. Only `as_rational`
leaves the integers. Only `perfbench/` calls it, where a workload checks
rational coefficients; ROADMAP's Benchmark v2 deletes it.
"""
from __future__ import annotations

import decimal
import functools
import math
from fractions import Fraction

from .errors import RequestTooLarge, check_divides, check_orders
from .record import Record, set_field


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


def reduce_powers(order: int, values, step: int = 1, shift: int = 0) -> list[int]:
    """Power-basis coefficients of the sum of values[j] * zeta_order^(j*step + shift).

    The values are integers. The numerators of zeta_order^((j*step + shift)
    mod order) expand that power; a power below phi(order) is a unit vector,
    so its value is added straight in. Zero values cost nothing.
    """
    powers = _zeta_powers(order)
    phi = len(powers[0].nums)
    out = [0] * phi
    for j, c in enumerate(values):
        if c:
            idx = (j * step + shift) % order
            if idx < phi:
                out[idx] += c
            else:
                for i, v in enumerate(powers[idx].nums):
                    if v:
                        out[i] += c * v
    return out


class CycloNum(Record):
    """An element of Q(zeta_order) in the power basis: integer numerators
    nums, of length phi(order), over one denominator den.

    Construction puts every value in lowest terms with den > 0 (zero is all
    zeros over 1), so record equality and hashing (order, nums, den) are
    exact in the field.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int = 1):
        if len(nums) != euler_phi(order):
            raise ValueError("numerator vector length must equal phi(order)")
        if den == 0:
            raise ZeroDivisionError("CycloNum denominator is zero")
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if g != 1:
            nums = tuple([x // g for x in nums])
            den //= g
        set_field(self, "order", order)
        set_field(self, "nums", nums)
        set_field(self, "den", den)

    def __eq__(self, other):
        # the record rule, spelled out for speed: comparing series compares
        # every stored coefficient
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den and self.order == other.order

    __hash__ = Record.__hash__

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "CycloNum":
        return CycloNum(order, (0,) * euler_phi(order))

    @staticmethod
    def one(order: int = 1) -> "CycloNum":
        return CycloNum(order, (1,) + (0,) * (euler_phi(order) - 1))

    # -- predicates ----------------------------------------------------------

    def as_rational(self) -> Fraction:
        if any(self.nums[1:]):
            raise ValueError("%s is not rational" % self)
        return Fraction(self.nums[0], self.den)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "CycloNum") -> "CycloNum":
        check_orders("coefficient", self.order, other.order)
        d, e = self.den, other.den
        return CycloNum(self.order, tuple([a * e + b * d for a, b in zip(self.nums, other.nums)]), d * e)

    def __neg__(self) -> "CycloNum":
        return CycloNum(self.order, tuple([-a for a in self.nums]), self.den)

    def __mul__(self, other) -> "CycloNum":
        if not isinstance(other, CycloNum):
            return NotImplemented
        check_orders("coefficient", self.order, other.order)
        conv = [0] * (2 * len(self.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    if b:
                        conv[i + j] += a * b
        return CycloNum(self.order, tuple(reduce_powers(self.order, conv)), self.den * other.den)
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

    def scaled(self, num: int, den: int = 1, shift: int = 0) -> "CycloNum":
        """self * (num/den) * zeta^shift, built once on integers: the
        numerators shifted up `shift` powers of zeta and reduced, times num,
        over den times the denominator; self itself for the factor 1."""
        shift %= self.order
        if not shift and num == 1 and den == 1:
            return self
        nums = reduce_powers(self.order, self.nums, 1, shift) if shift else self.nums
        if num != 1:
            nums = [v * num for v in nums]
        return CycloNum(self.order, tuple(nums), self.den * den)

    # -- automorphisms and embeddings ----------------------------------------

    def embed(self, target_order: int) -> "CycloNum":
        """Ring embedding into Q(zeta_target) sending zeta_m to zeta_target^(target/m)."""
        m = self.order
        check_divides(m, target_order)
        if target_order == m:
            return self
        nums = reduce_powers(target_order, self.nums, target_order // m)
        return CycloNum(target_order, tuple(nums), self.den)

    def conjugate(self) -> "CycloNum":
        """The automorphism zeta -> zeta^(-1): complex conjugation, an involution."""
        nums = reduce_powers(self.order, self.nums, self.order - 1)
        return CycloNum(self.order, tuple(nums), self.den)

    # -- rendering -----------------------------------------------------------

    def signed_parts(self) -> list[tuple[bool, str]]:
        """(negative, text) for each nonzero basis term, power ascending.

        The text is |n|/den in lowest terms, times zeta_order^j for j > 0,
        where a magnitude of 1 is left out; it is read off the integers."""
        parts = []
        for j, x in enumerate(self.nums):
            if x:
                g = math.gcd(x, self.den)
                num, den = abs(x) // g, self.den // g
                mag = _digits(num) if den == 1 else "%s/%s" % (_digits(num), _digits(den))
                if j == 0:
                    text = mag
                else:
                    z = "zeta%d" % self.order if j == 1 else "zeta%d^%d" % (self.order, j)
                    text = z if mag == "1" else "%s*%s" % (mag, z)
                parts.append((x < 0, text))
        return parts

    def __str__(self) -> str:
        return join_signed(self.signed_parts())


def _digits(n: int) -> str:
    """The decimal digits of n. Past CPython's int-to-str digit limit `str`
    refuses, and Decimal, exact for every int and unlimited, spells them."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def join_signed(parts: list[tuple[bool, str]]) -> str:
    """The text "x - y + z" of (negative, text) parts, or "0" when there are none."""
    if not parts:
        return "0"
    (negative, text), *rest = parts
    return ("-" if negative else "") + text + "".join(
        (" - " if negative else " + ") + text for negative, text in rest)


# an order L builds an L x phi(L) table of root powers: 17.7 M integers at L =
# 9240 (1.1 s of CPU, 138 MB on CPython 3.11.7, 2-core Xeon), 173 M at 30030
MAX_ROOT_TABLE = 1 << 25


def check_root_table(order: int) -> None:
    """Raise RequestTooLarge if the L x phi(L) table of root powers passes
    MAX_ROOT_TABLE; L first, so phi is never factored for an astronomic lcm."""
    if order > MAX_ROOT_TABLE or order * euler_phi(order) > MAX_ROOT_TABLE:
        raise RequestTooLarge("working order %s needs a table of L x phi(L) root powers"
                              " past the %d-entry cap" % (_digits(order), MAX_ROOT_TABLE))


@functools.lru_cache(maxsize=None)
def _zeta_powers(order: int) -> tuple[CycloNum, ...]:
    """zeta_order^j for 0 <= j < order, shared: CycloNum is immutable.

    Below phi(order) a power is a unit vector; each one above is the one
    before times zeta, its x^phi replaced by Phi_order minus x^phi, negated."""
    check_root_table(order)
    phi = euler_phi(order)
    modulus = cyclotomic_polynomial(order)  # monic, degree phi
    rows = [tuple(1 if i == j else 0 for i in range(phi)) for j in range(phi)]
    for _ in range(phi, order):
        prev = rows[-1]
        row = [0] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            for i in range(phi):
                row[i] -= lead * modulus[i]
        rows.append(tuple(row))
    return tuple(CycloNum(order, row) for row in rows)


def zeta_power(order: int, exponent: int) -> CycloNum:
    """zeta_order^(exponent mod order), reduced to the power basis."""
    if order < 1:
        raise ValueError("root order must be >= 1")
    return _zeta_powers(order)[exponent % order]
