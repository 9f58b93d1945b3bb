"""Sparse bivariate Laurent series in a and b, truncated by total degree.

Every series carries a validity bound V: it is exact for every total degree
p+q <= V, and stores nothing above V. The bound is data, not convention;
arithmetic computes the bound of its result, and comparisons refuse to look
past it. This is what keeps products involving negative-degree monomials
(a^-1*b and friends) honest.

Term order everywhere (rendering, mismatch reports) is total degree ascending,
then a-exponent descending, matching the usual way theta expansions are
written: 1 + a + b + a^3*b + a*b^3 + ...

Rendering adds only the monomials: the text of each coefficient and the
joining of signed parts come from `cyclotomic.py`. A coefficient of one basis
term carries the term's sign, one of several is parenthesized.

Products run on integers. Each operand becomes integer power-basis vectors
over one positive common denominator, keeping only the terms that can reach
the product's validity bound. Dense operands are multiplied by Kronecker
substitution: every entry of a^p*b^q*zeta^j becomes one fixed-width digit of
a Python int, and one big-int multiply forms all the convolutions at once.
Sparse operands are convolved pair by pair in a dict. The choice compares the
bytes of the packed product with the pairs of terms the sparse path would
visit (`_PACKED_BYTES_PER_PAIR`). Each convolution is then reduced modulo
Phi_L on the rows `CycloNum` uses. Coefficients are stored the same way,
integer numerators over one denominator, so an operand whose denominator is
the common one enters as it is. A chain of products
(`LaurentSeries.product`: Pochhammer ladders, powers, products) keeps the
running product in integer rows between steps, cut to each step's bound and
over its least denominator, so each operand is converted once and
coefficients are built once, at the end.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .cyclotomic import CycloNum, join_signed, reduce_powers, zeta_power
from .errors import OrderMismatch, ValidityExceeded


class Monomial(NamedTuple):
    p: int  # exponent of a
    q: int  # exponent of b

    @property
    def total_degree(self) -> int:
        return self.p + self.q

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.p + other.p, self.q + other.q)

    def __pow__(self, n: int) -> "Monomial":
        return Monomial(self.p * n, self.q * n)

    def render(self) -> str:
        parts = []
        for sym, e in (("a", self.p), ("b", self.q)):
            if e == 0:
                continue
            parts.append(sym if e == 1 else "%s^%d" % (sym, e))
        return "*".join(parts) if parts else "1"


def _term_key(mono: Monomial) -> tuple[int, int]:
    return (mono.total_degree, -mono.p)


@dataclass(frozen=True)
class ScaledMonomial:
    """r * zeta_order^e * a^p * b^q with r a nonzero rational: the only legal
    theta argument. Products, powers and negation are rational and exponent
    arithmetic. The form is canonical (0 <= e < order, and r > 0 when order is
    even, since -1 = zeta^(order/2)), so equal values compare equal."""

    ratio: Fraction
    exponent: int
    order: int
    mono: Monomial

    def __post_init__(self):
        if self.ratio == 0:
            raise ValueError("scaled monomial coefficient must be nonzero")
        half = self.order // 2 if self.ratio < 0 and self.order % 2 == 0 else 0
        object.__setattr__(self, "ratio", Fraction(-self.ratio if half else self.ratio))
        object.__setattr__(self, "exponent", (self.exponent + half) % self.order)

    @staticmethod
    def make(coeff, p: int, q: int, order: int = 1) -> "ScaledMonomial":
        """coeff is an int, a Fraction (taken in Q(zeta_order)), or a CycloNum
        that is a rational multiple of a root of unity (in its own order)."""
        if not isinstance(coeff, CycloNum):
            return ScaledMonomial(coeff, 0, order, Monomial(p, q))
        for e in range(coeff.order):
            rotated = coeff * zeta_power(coeff.order, -e)
            if rotated.is_rational() and not rotated.is_zero():
                return ScaledMonomial(rotated.as_rational(), e, coeff.order, Monomial(p, q))
        raise ValueError("%s is not a nonzero rational multiple of a root of unity" % coeff)

    @property
    def coeff(self) -> CycloNum:
        """r * zeta_order^e as an element of Q(zeta_order)."""
        root = zeta_power(self.order, self.exponent)
        return root if self.ratio == 1 else root * self.ratio

    @property
    def total_degree(self) -> int:
        return self.mono.total_degree

    def __mul__(self, other: "ScaledMonomial") -> "ScaledMonomial":
        if self.order != other.order:
            raise OrderMismatch("orders differ: %d vs %d" % (self.order, other.order))
        return ScaledMonomial(self.ratio * other.ratio, self.exponent + other.exponent,
                              self.order, self.mono * other.mono)

    def __pow__(self, n: int) -> "ScaledMonomial":
        return ScaledMonomial(self.ratio ** n, self.exponent * n, self.order, self.mono ** n)

    def __neg__(self) -> "ScaledMonomial":
        return ScaledMonomial(-self.ratio, self.exponent, self.order, self.mono)


class Mismatch(NamedTuple):
    monomial: Monomial
    left: CycloNum
    right: CycloNum


@dataclass(frozen=True)
class LaurentSeries:
    """Finite map Monomial -> CycloNum, exact through total degree `validity`.

    Construct via the classmethods or module operations; the raw constructor
    trusts its input. Instances are treated as immutable.
    """

    terms: dict
    validity: int
    order: int

    @staticmethod
    def make(entries: Iterable[tuple[Monomial, CycloNum]], validity: int, order: int) -> "LaurentSeries":
        """Normalize: sum duplicate monomials, drop zeros and terms above validity."""
        acc: dict[Monomial, CycloNum] = {}
        for mono, coeff in entries:
            if coeff.order != order:
                raise OrderMismatch("coefficient order %d != series order %d" % (coeff.order, order))
            if mono.total_degree > validity:
                continue
            if mono in acc:
                acc[mono] = acc[mono] + coeff
            else:
                acc[mono] = coeff
        pruned = {m: c for m, c in acc.items() if not c.is_zero()}
        return LaurentSeries(pruned, validity, order)

    @staticmethod
    def zero(validity: int, order: int = 1) -> "LaurentSeries":
        return LaurentSeries({}, validity, order)

    @staticmethod
    def one(validity: int, order: int = 1) -> "LaurentSeries":
        return LaurentSeries.make([(Monomial(0, 0), CycloNum.one(order))], validity, order)

    @staticmethod
    def from_scaled_monomial(s: ScaledMonomial, validity: int) -> "LaurentSeries":
        return LaurentSeries.make([(s.mono, s.coeff)], validity, s.order)

    # -- basic queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def coefficient(self, mono: Monomial) -> CycloNum:
        return self.terms.get(mono, CycloNum.zero(self.order))

    def min_total_degree(self) -> int:
        """The least stored total degree; validity + 1 when nothing is stored,
        since an empty series may still hide terms from there up."""
        return min((m.total_degree for m in self.terms), default=self.validity + 1)

    def sorted_terms(self) -> list[tuple[Monomial, CycloNum]]:
        return sorted(self.terms.items(), key=lambda item: _term_key(item[0]))

    def _check_order(self, other: "LaurentSeries"):
        if self.order != other.order:
            raise OrderMismatch("series orders differ: %d vs %d" % (self.order, other.order))

    # -- ring operations -------------------------------------------------------

    @staticmethod
    def sum(items: Sequence["LaurentSeries"]) -> "LaurentSeries":
        """The sum of one or more series, normalized once; its validity is the
        least of theirs."""
        first = items[0]
        for other in items[1:]:
            first._check_order(other)
        entries = [term for s in items for term in s.terms.items()]
        return LaurentSeries.make(entries, min(s.validity for s in items), first.order)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries.sum((self, other))

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({m: -c for m, c in self.terms.items()}, self.validity, self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    @staticmethod
    def product(items: Iterable["LaurentSeries"]) -> "LaurentSeries":
        """The product of one or more series, multiplied left to right.

        Each step applies the binary validity rule: the running product
        (validity V, least degree m) times a series (V', m') is exact through
        min(V + m', V' + m), each least degree as `min_total_degree` reads it.
        Between steps the running product stays as integer rows over one
        denominator, so each operand is converted once and coefficients are
        built once, at the end. Items are read one at a time, so a power may
        pass `itertools.repeat`.
        """
        items = iter(items)
        first = next(items)
        second = next(items, None)
        if second is None:
            return first
        order = first.order
        validity = first.validity
        rows, den = _integer_rows(first.terms, validity)
        for other in itertools.chain((second,), items):
            first._check_order(other)
            low = min((p + q for p, q, _ in rows), default=validity + 1)
            other_low = other.min_total_degree()
            validity = min(validity + other_low, other.validity + low)
            if not rows or not other.terms:
                rows, den = [], 1
                continue
            xs, x_den = _truncated_rows(rows, den, validity - other_low)
            ys, y_den = _integer_rows(other.terms, validity - low)
            packing = _packing(xs, ys)
            if _is_dense(xs, ys, packing):
                conv = _kronecker_convolution(xs, ys, validity, packing)
            else:
                conv = _sparse_convolution(xs, ys, validity)
            rows, den = _reduced_rows(conv, order), x_den * y_den
        return LaurentSeries(_series_terms(rows, den, order), validity, order)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries.product((self, other))

    def scale(self, s: ScaledMonomial) -> "LaurentSeries":
        """Multiply by a single scaled monomial; validity rises with its degree."""
        if s.order != self.order:
            raise OrderMismatch("scalar order %d != series order %d" % (s.order, self.order))
        validity = self.validity + s.total_degree
        exponent, ratio = s.exponent, s.ratio
        # a nonzero factor keeps every (nonzero) term nonzero
        entries = {}
        for m, c in self.terms.items():
            if exponent:
                c = c.times_zeta(exponent)
            entries[m * s.mono] = c if ratio == 1 else c * ratio
        return LaurentSeries(entries, validity, self.order)

    def map_coeffs(self, fn: Callable[[CycloNum], CycloNum]) -> "LaurentSeries":
        """Coefficientwise map by a field automorphism, such as conjugation: it
        keeps the order, and every stored term stays nonzero, so none is pruned."""
        return LaurentSeries({m: fn(c) for m, c in self.terms.items()}, self.validity, self.order)

    def truncate(self, validity: int) -> "LaurentSeries":
        """Lower the validity bound (never raises it)."""
        if validity >= self.validity:
            return self
        kept = {m: c for m, c in self.terms.items() if m.total_degree <= validity}
        return LaurentSeries(kept, validity, self.order)

    # -- comparison and specialization ------------------------------------------

    def first_mismatch(self, other: "LaurentSeries", through: int) -> Optional[Mismatch]:
        """Least differing monomial (term order) of total degree <= through, or None."""
        self._check_order(other)
        if through > min(self.validity, other.validity):
            raise ValidityExceeded(
                "comparison through %d exceeds validity min(%d, %d)"
                % (through, self.validity, other.validity)
            )
        # stored terms are nonzero, so a monomial missing on one side is a zero there
        differing = [m for m in self.terms.keys() | other.terms.keys()
                     if m.total_degree <= through and self.terms.get(m) != other.terms.get(m)]
        if not differing:
            return None
        worst = min(differing, key=_term_key)
        return Mismatch(worst, self.coefficient(worst), other.coefficient(worst))

    def specialize_q(self) -> "LaurentSeries":
        """Collapse a^p*b^q to a^(p+q): the a-slot holds the univariate q-series.

        Total degree is preserved termwise, so validity is unchanged.
        """
        entries = [(Monomial(m.total_degree, 0), c) for m, c in self.terms.items()]
        return LaurentSeries.make(entries, self.validity, self.order)

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        return join_signed([_render_term(mono, coeff) for mono, coeff in self.sorted_terms()])

    def __str__(self) -> str:
        return self.render()


# -- the product kernel ---------------------------------------------------------
#
# A row is (p, q, numerators): the term a^p*b^q with its power-basis vector
# scaled by the common denominator of its operand. A convolution maps (p, q)
# to the unreduced vector of length 2*phi - 1 whose entry j multiplies zeta^j.

# Kronecker substitution is taken when the packed product holds at most this
# many bytes per pair of terms and basis element. Its cost is one CPython
# big-int multiply, which grows faster than the bytes (Karatsuba), plus a
# decode; a pair on the sparse path costs a dict update and up to phi^2
# integer products. Timed on CPython 3.11, the packed path won on every
# product of f(q,q)^k and specq(f(a,b)^k) at or below 0.57 bytes per pair,
# by up to 3x, and lost on the triple product's bivariate factors from 0.61
# up, by 2x on the 817,216-pair product at degree 200. The bound also caps
# the packed buffer at a fixed multiple of the work the sparse path would do.
_PACKED_BYTES_PER_PAIR = 0.5


def _integer_rows(terms: dict, through: int) -> tuple[list, int]:
    """The terms of total degree <= through as rows over one positive common
    denominator, and that denominator."""
    kept = [(m, c) for m, c in terms.items() if m.p + m.q <= through]
    den = math.lcm(*{c.den for _, c in kept})
    rows = [(m.p, m.q, c.nums if c.den == den else tuple([x * (den // c.den) for x in c.nums]))
            for m, c in kept]
    return rows, den


def _truncated_rows(rows: list, den: int, through: int) -> tuple[list, int]:
    """The rows of total degree <= through over the least denominator: what
    `_integer_rows` builds from the same values as canonical CycloNums,
    since the least common denominator of the fractions x/den is
    den / gcd(den, x, ...)."""
    kept = [row for row in rows if row[0] + row[1] <= through]
    g = math.gcd(den, *(x for _, _, v in kept for x in v))
    if g == 1:
        return kept, den
    return [(p, q, tuple(x // g for x in v)) for p, q, v in kept], den // g


def _spans(rows: list) -> tuple[int, int, int, int]:
    """Least and greatest total degree, least and greatest b-exponent."""
    degrees = [p + q for p, q, _ in rows]
    qs = [q for _, q, _ in rows]
    return min(degrees), max(degrees), min(qs), max(qs)


def _packing(xs: list, ys: list) -> tuple[int, int, int, int, int, int, int]:
    """The layout of the packed product of two nonempty row lists: the least
    total degree and b-exponent of xs and of ys, the b-exponent span, the
    bytes per slot and the slot count."""
    phi = len(xs[0][2])
    dx0, dx1, qx0, qx1 = _spans(xs)
    dy0, dy1, qy0, qy1 = _spans(ys)
    q_span = qx1 + qy1 - qx0 - qy0 + 1
    # a slot of the product sums at most min(n1, n2) * phi products of
    # entries; 8*size - 1 bits hold that bound and one more bit the sign
    largest = (max(abs(c) for _, _, v in xs for c in v)
               * max(abs(c) for _, _, v in ys for c in v))
    size = (min(len(xs), len(ys)) * phi * largest).bit_length() // 8 + 1
    slots = (dx1 + dy1 - dx0 - dy0 + 1) * q_span * (2 * phi - 1)
    return dx0, qx0, dy0, qy0, q_span, size, slots


def _is_dense(xs: list, ys: list, packing: tuple) -> bool:
    *_, size, slots = packing
    return slots * size <= _PACKED_BYTES_PER_PAIR * len(xs) * len(ys) * len(xs[0][2])


def _sparse_convolution(xs: list, ys: list, validity: int) -> dict:
    """The convolution by pairwise products of the nonzero entries."""
    if not xs or not ys:
        return {}
    width = 2 * len(xs[0][2]) - 1
    right = [(p, q, p + q, [(j, c) for j, c in enumerate(v) if c]) for p, q, v in ys]
    acc: dict[tuple[int, int], list[int]] = {}
    for p1, q1, v1 in xs:
        left = [(i, c) for i, c in enumerate(v1) if c]
        room = validity - p1 - q1
        for p2, q2, d2, nonzero in right:
            if d2 > room:
                continue
            key = (p1 + p2, q1 + q2)
            conv = acc.get(key)
            if conv is None:
                conv = acc[key] = [0] * width
            for i, a in left:
                for j, b in nonzero:
                    conv[i + j] += a * b
    return acc


def _pack(rows: list, d0: int, q0: int, q_span: int, width: int, size: int) -> int:
    """sum of c * 2^(8*size*slot) over the entries c of rows, where the entry j
    of a^p*b^q sits in slot ((p + q - d0) * q_span + q - q0) * width + j."""
    cells = max((p + q - d0) * q_span + q - q0 for p, q, _ in rows) + 1
    positive = bytearray(cells * width * size)
    negative = bytearray(cells * width * size)
    for p, q, v in rows:
        at = ((p + q - d0) * q_span + q - q0) * width * size
        for c in v:
            if c > 0:
                positive[at:at + size] = c.to_bytes(size, "little")
            elif c < 0:
                negative[at:at + size] = (-c).to_bytes(size, "little")
            at += size
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _kronecker_convolution(xs: list, ys: list, validity: int, packing: tuple) -> dict:
    """The convolution from one big-int product (Kronecker substitution).

    Each operand is packed in slots of `size` bytes, indexed by total degree,
    then b-exponent, then power of zeta, so that exponents add when the two
    integers multiply. Adding 2^(8*size - 1) to every slot of the product
    makes each digit nonnegative and below 2^(8*size), so no slot borrows
    from the next, and each signed digit is read back exactly by subtracting
    it again.
    """
    width = 2 * len(xs[0][2]) - 1
    dx0, qx0, dy0, qy0, q_span, size, _ = packing
    product = (_pack(xs, dx0, qx0, q_span, width, size)
               * _pack(ys, dy0, qy0, q_span, width, size))
    # only cells of total degree <= validity are read
    cells = max(validity - dx0 - dy0 + 1, 0) * q_span
    half = 1 << (8 * size - 1)
    zero_slot = half.to_bytes(size, "little")
    length = cells * width * size
    bias = int.from_bytes(zero_slot * (cells * width), "little")
    digits = ((product + bias) & ((1 << (8 * length)) - 1)).to_bytes(length, "little")
    stride = width * size
    empty_cell = zero_slot * width
    acc = {}
    for cell in range(cells):
        at = cell * stride
        if digits[at:at + stride] == empty_cell:
            continue
        d, q = divmod(cell, q_span)
        q += qx0 + qy0
        acc[(d + dx0 + dy0 - q, q)] = [int.from_bytes(digits[i:i + size], "little") - half
                                       for i in range(at, at + stride, size)]
    return acc


def _reduced_rows(conv: dict, order: int) -> list:
    """Reduce each convolution modulo Phi_order, dropping zeros."""
    rows = []
    for (p, q), values in conv.items():
        # at phi = 1 a convolution has one entry and nothing to reduce
        vec = values if len(values) == 1 else reduce_powers(order, values)
        if any(vec):
            rows.append((p, q, tuple(vec)))
    return rows


def _series_terms(rows: list, den: int, order: int) -> dict:
    """The series terms of nonzero rows over den."""
    return {Monomial(p, q): CycloNum(order, v, den) for p, q, v in rows}


def _render_term(mono: Monomial, coeff: CycloNum) -> tuple[bool, str]:
    """(negative, text) for one term: a coefficient of one basis term carries
    the sign and drops a body of 1; one of several is parenthesized."""
    parts = coeff.signed_parts()
    if len(parts) == 1:
        negative, body = parts[0]
    else:
        negative, body = False, "(%s)" % join_signed(parts)
    if mono == (0, 0):
        return negative, body
    return negative, mono.render() if body == "1" else "%s*%s" % (body, mono.render())
