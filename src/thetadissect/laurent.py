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
the common one enters as it is. One binary step (`_times`) multiplies two
operands held as integer rows, each with its validity and least degree.
`LaurentSeries.product` folds it as a balanced tree over its items (a
Pochhammer ladder, the triple product, a product node), and
`LaurentSeries.power` squares with it. Between steps the rows stay integer
rows, cut to each step's bound and over their least denominator, so each
item is converted once and coefficients are built once, at the root.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from .cyclotomic import CycloNum, _digits, join_signed, reduce_powers, zeta_power
from .errors import RequestTooLarge, ValidityExceeded, check_orders
from .record import Record, set_field

# r^n for a ratio r other than +-1 has about |n| times the bits of r; a constant
# power, or the estimated power of a series' least-degree part, past this many bits is refused
MAX_POWER_BITS = 1 << 20


class Monomial(namedtuple("Monomial", "p q")):
    """a^p * b^q, a tuple: as a series dict key it hashes and compares in C."""
    __slots__ = ()

    @property
    def total_degree(self) -> int:
        return self.p + self.q

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.p + other.p, self.q + other.q)

    def render(self) -> str:
        parts = []
        for sym, e in (("a", self.p), ("b", self.q)):
            if e == 0:
                continue
            parts.append(sym if e == 1 else "%s^%s" % (sym, _digits(e)))
        return "*".join(parts) if parts else "1"


def ratio_bits(ratio: int | Fraction) -> int:
    """The bits of a ratio's numerator and denominator, about the bits that
    each power of it adds; 0 for +-1, the only ratios of 2 bits, whose powers
    add none."""
    bits = ratio.numerator.bit_length() + ratio.denominator.bit_length()
    return bits if bits > 2 else 0


def ratio_power(ratio: int | Fraction, n: int) -> int | Fraction:
    """ratio^n, an int for an int ratio and n >= 0, else a Fraction (never a
    float); +-1 is taken by the parity of n, and any other ratio whose power
    would pass MAX_POWER_BITS raises RequestTooLarge before it is taken."""
    bits = ratio_bits(ratio)
    if not bits:
        return ratio if n % 2 else 1
    if abs(n) * bits > MAX_POWER_BITS:
        raise RequestTooLarge(
            "power %s of a ratio with %d numerator and denominator bits exceeds"
            " the %d-bit cap" % (_digits(n), bits, MAX_POWER_BITS))
    return Fraction(ratio) ** n if n < 0 else ratio ** n


def _term_key(mono: Monomial) -> tuple[int, int]:
    return (mono.total_degree, -mono.p)


class ScaledMonomial(Record):
    """r * zeta_order^e * a^p * b^q with r a nonzero rational: the only legal
    theta argument. r is kept as given: an int unless rational input or a
    negative power makes it a Fraction, which compares and hashes as the int
    of its value does. Products and negation are rational and exponent
    arithmetic; the fold of a power node takes its ratio by `ratio_power`,
    which raises RequestTooLarge past MAX_POWER_BITS. The form is canonical
    (0 <= e < order, and r > 0 when order is even, since -1 =
    zeta^(order/2)), so equal values compare equal."""

    __slots__ = ("ratio", "exponent", "order", "mono")

    def __init__(self, ratio: int | Fraction, exponent: int, order: int, mono: Monomial):
        if ratio == 0:
            raise ValueError("scaled monomial coefficient must be nonzero")
        half = order // 2 if ratio < 0 and order % 2 == 0 else 0
        if half:
            ratio = -ratio
        set_field(self, "ratio", ratio)
        set_field(self, "exponent", (exponent + half) % order)
        set_field(self, "order", order)
        set_field(self, "mono", mono)

    @staticmethod
    def make(ratio, p: int, q: int, order: int = 1) -> "ScaledMonomial":
        """ratio * a^p * b^q, for a nonzero int or Fraction ratio, in Q(zeta_order)."""
        return ScaledMonomial(ratio, 0, order, Monomial(p, q))

    @property
    def coeff(self) -> CycloNum:
        """r * zeta_order^e as an element of Q(zeta_order): the root's row of
        the shared table scaled by r."""
        return zeta_power(self.order, self.exponent).scaled(self.ratio.numerator,
                                                            self.ratio.denominator)

    @property
    def total_degree(self) -> int:
        return self.mono.total_degree

    def __mul__(self, other: "ScaledMonomial") -> "ScaledMonomial":
        check_orders("scaled monomial", self.order, other.order)
        return ScaledMonomial(self.ratio * other.ratio, self.exponent + other.exponent,
                              self.order, self.mono * other.mono)

    def __neg__(self) -> "ScaledMonomial":
        return ScaledMonomial(-self.ratio, self.exponent, self.order, self.mono)


class Mismatch(namedtuple("Mismatch", "monomial left right")):
    __slots__ = ()

    def to_dict(self, left: str, right: str) -> dict:
        """{"monomial": ..., left: ..., right: ...}, the sides named by the
        caller: the one spelling of a mismatch, which text lines format."""
        return {"monomial": self.monomial.render(), left: str(self.left), right: str(self.right)}


class LaurentSeries(Record):
    """Finite map Monomial -> CycloNum, exact through total degree `validity`.

    Construct via the classmethods or module operations; the raw constructor
    trusts its input. The fields are read-only, and the terms dict is treated
    as immutable.
    """

    __slots__ = ("terms", "validity", "order")

    def __init__(self, terms: dict, validity: int, order: int):
        set_field(self, "terms", terms)
        set_field(self, "validity", validity)
        set_field(self, "order", order)

    @staticmethod
    def make(entries: Iterable[tuple[Monomial, CycloNum]], validity: int, order: int) -> "LaurentSeries":
        """Normalize in one pass: sum duplicate monomials, drop zeros (a sum
        of 0 drops its monomial) and terms above validity."""
        acc: dict[Monomial, CycloNum] = {}
        for mono, coeff in entries:
            if coeff.order != order:
                check_orders("coefficient and series", coeff.order, order)
            if mono.p + mono.q > validity:
                continue
            if mono in acc:
                coeff = acc.pop(mono) + coeff
            if any(coeff.nums):
                acc[mono] = coeff
        return LaurentSeries(acc, validity, order)

    @staticmethod
    def zero(validity: int, order: int = 1) -> "LaurentSeries":
        return LaurentSeries({}, validity, order)

    @staticmethod
    def one(validity: int, order: int = 1) -> "LaurentSeries":
        return LaurentSeries.make([(Monomial(0, 0), CycloNum.one(order))], validity, order)

    # -- basic queries --------------------------------------------------------

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

    # -- ring operations -------------------------------------------------------

    @staticmethod
    def sum(items: Sequence["LaurentSeries"]) -> "LaurentSeries":
        """The sum of one or more series, normalized once; its validity is the
        least of theirs."""
        first = items[0]
        for other in items[1:]:
            check_orders("series", first.order, other.order)
        entries = [term for s in items for term in s.terms.items()]
        return LaurentSeries.make(entries, min(s.validity for s in items), first.order)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries.sum((self, other))

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({m: -c for m, c in self.terms.items()}, self.validity, self.order)

    @staticmethod
    def product(items: Sequence["LaurentSeries"]) -> "LaurentSeries":
        """The product of one or more series, multiplied as a balanced tree.

        The items are split in halves, each half's product is taken the same
        way, and the two are multiplied under the binary validity rule: a
        product of validity V and least degree m times one of (V', m') is
        exact through min(V + m', V' + m), least degrees as
        `min_total_degree` reads them. Any grouping gives the same terms and
        the validity min over i of V_i + the sum of the other m_j, so the tree
        gives what the left fold gives. Each item is converted to integer rows
        once, and coefficients are built once, at the root.
        """
        first = items[0]
        for other in items[1:]:
            check_orders("series", first.order, other.order)
        if len(items) == 1:
            return first
        return _from_operand(_tree([_operand(s) for s in items], first.order), first.order)

    def power(self, n: int) -> "LaurentSeries":
        """self^n for n >= 1, by squaring: about log2(n) products, each under
        the binary validity rule, so the result is what the product of n
        copies gives. P^n is kept whole, P the least-degree part, so one
        estimated past MAX_POWER_BITS (n*s + 1 terms, s the a-exponent span of
        P, of n * `_factor_bits` bits) raises RequestTooLarge at once."""
        if n < 1:
            raise ValueError("power needs n >= 1, got %d" % n)
        if n == 1:
            return self
        base = _operand(self)
        rows, den, _, least = base
        part, den = _truncated_rows(rows, den, least)
        bits = _factor_bits(part, den, self.order) if part else 0
        span = max(p for p, _, _ in part) - min(p for p, _, _ in part) if part else 0
        if (n * span + 1) * n * bits > MAX_POWER_BITS:
            raise RequestTooLarge(
                "power %s of a %d-term least-degree part of a-exponent span %d and"
                " %d bits per factor exceeds the %d-bit cap"
                % (_digits(n), len(part), span, bits, MAX_POWER_BITS))
        result = None
        while n:
            if n & 1:
                result = base if result is None else _times(result, base, self.order)
            n >>= 1
            if n:
                base = _times(base, base, self.order)
        return _from_operand(result, self.order)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return LaurentSeries.product((self, other))

    def scale(self, s: ScaledMonomial) -> "LaurentSeries":
        """Multiply by a single scaled monomial r * zeta^e * a^p * b^q;
        validity rises with its degree. Each coefficient is built once by
        CycloNum.scaled. A nonzero factor keeps every (nonzero) term nonzero."""
        check_orders("scalar and series", s.order, self.order)
        exponent, mono = s.exponent, s.mono
        num, den = s.ratio.numerator, s.ratio.denominator
        entries = {m * mono: c.scaled(num, den, exponent) for m, c in self.terms.items()}
        return LaurentSeries(entries, self.validity + s.total_degree, self.order)

    def map_coeffs(self, fn: Callable[[CycloNum], CycloNum]) -> "LaurentSeries":
        """Coefficientwise map by a field automorphism, such as conjugation: it
        keeps the order, and every stored term stays nonzero, so none is pruned."""
        return LaurentSeries({m: fn(c) for m, c in self.terms.items()}, self.validity, self.order)

    # -- comparison and specialization ------------------------------------------

    def first_mismatch(self, other: "LaurentSeries", through: int) -> Mismatch | None:
        """Least differing monomial (term order) of total degree <= through, or None."""
        check_orders("series", self.order, other.order)
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
        `specq` does not come here (it evaluates its argument at b = q); the
        tests check `specq` against the collapse in `perfbench/oracles.py`.
        Apart from its own tests, only `perfbench/` reaches this method,
        through its `laurent.specialize` span; ROADMAP's Benchmark v2 deletes
        both.
        """
        entries = [(Monomial(m.total_degree, 0), c) for m, c in self.terms.items()]
        return LaurentSeries.make(entries, self.validity, self.order)

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        return join_signed([_render_term(mono, coeff) for mono, coeff in self.sorted_terms()])

    def __str__(self) -> str:
        return self.render()


def _factor_bits(rows: list, den: int, order: int) -> int:
    """About the bits each factor of P, the operand rows over den, adds to
    P^n: one coefficient r times a +-root of unity costs what r does;
    otherwise ceil(log2) of M and of den, the bits M^n and den^n grow by per
    factor, M the numerators' magnitudes summed, times phi(order) unless all
    are rational. An integer u with u * conj(u) = 1 has every conjugate on
    the unit circle, so it is a root of unity (Kronecker); the test is one
    coefficient product, the work of P's first squaring."""
    nums = [x for _, _, v in rows for x in v]
    g = math.gcd(*nums)
    if len(rows) == 1:
        unit = CycloNum(order, tuple(x // g for x in nums))
        if unit * unit.conjugate() == CycloNum.one(order):
            return ratio_bits(Fraction(g, den))
    entries = 1 if all(not any(v[1:]) for _, _, v in rows) else len(rows[0][2])
    return entries * ((sum(map(abs, nums)) - 1).bit_length() + (den - 1).bit_length())


# -- the product kernel ---------------------------------------------------------
#
# A row is (p, q, numerators): the term a^p*b^q with its power-basis vector
# scaled by the common denominator of its operand. A convolution maps (p, q)
# to the unreduced vector of length 2*phi - 1 whose entry j multiplies zeta^j.

# Kronecker substitution is taken when the packed product holds at most this
# many bytes per pair of terms and basis element. Its cost is one CPython
# big-int multiply, which grows faster than the bytes (Karatsuba), plus a
# decode; a pair on the sparse path costs a dict update and up to phi^2
# integer products. Timed on CPython 3.11 over the steps of the product tree,
# the packed path won on every step of f(q,q)^k and specq(f(a,b)^k) at or
# below 0.57 bytes per pair, by up to 18x on squarings of 76,000 pairs, and
# lost on every step from 0.61 up, by 1.9x on the 673,480-pair root of the
# triple product at degree 200. No bound from 0.25 to 4 ran the whole
# f(q,q)^k, specq and triple-product mix clearly faster. The bound also caps
# the packed buffer at a fixed multiple of the work the sparse path would do.
_PACKED_BYTES_PER_PAIR = 0.5


def _operand(s: LaurentSeries) -> tuple[list, int, int, int]:
    """A series as a product operand: (rows, den, validity, least degree),
    every term a row over the least common denominator; `_times` cuts it."""
    den = math.lcm(*{c.den for c in s.terms.values()})
    rows = [(m.p, m.q, c.nums if c.den == den else tuple([x * (den // c.den) for x in c.nums]))
            for m, c in s.terms.items()]
    return rows, den, s.validity, s.min_total_degree()


def _from_operand(operand: tuple, order: int) -> LaurentSeries:
    rows, den, validity, _ = operand
    terms = {Monomial(p, q): CycloNum(order, v, den) for p, q, v in rows}
    return LaurentSeries(terms, validity, order)


def _tree(operands: list, order: int) -> tuple[list, int, int, int]:
    """The product of one or more operands: the product of the first half
    times the product of the rest."""
    if len(operands) == 1:
        return operands[0]
    mid = len(operands) // 2
    return _times(_tree(operands[:mid], order), _tree(operands[mid:], order), order)


def _times(x: tuple, y: tuple, order: int) -> tuple[list, int, int, int]:
    """One product of two operands under the binary validity rule, each cut
    to the terms that can reach its bound, over its least denominator."""
    xs, x_den, x_validity, x_low = x
    ys, y_den, y_validity, y_low = y
    validity = min(x_validity + y_low, y_validity + x_low)
    if not xs or not ys:
        return [], 1, validity, validity + 1
    xs, x_den = _truncated_rows(xs, x_den, validity - y_low)
    ys, y_den = _truncated_rows(ys, y_den, validity - x_low)
    packing = _packing(xs, ys)
    if _is_dense(xs, ys, packing):
        conv = _kronecker_convolution(xs, ys, validity, packing)
    else:
        conv = _sparse_convolution(xs, ys, validity)
    rows = _reduced_rows(conv, order)
    return rows, x_den * y_den, validity, min((p + q for p, q, _ in rows), default=validity + 1)


def _truncated_rows(rows: list, den: int, through: int) -> tuple[list, int]:
    """The rows of total degree <= through over the least denominator of
    what they keep, since the least common denominator of the fractions
    x/den is den / gcd(den, x, ...). The only cut of an operand."""
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
