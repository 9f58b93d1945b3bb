"""Sparse bivariate Laurent series in a and b, truncated by total degree.

Every series carries a validity bound V: it is exact for every total degree
p+q <= V, and stores nothing above V. The bound is data, not convention;
arithmetic computes the bound of its result, and comparisons refuse to look
past it. This is what keeps products involving negative-degree monomials
(a^-1*b and friends) honest.

Term order everywhere (rendering, mismatch reports) is total degree ascending,
then a-exponent descending, matching the usual way theta expansions are
written: 1 + a + b + a^3*b + a*b^3 + ...
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional

from .cyclotomic import CycloNum, zeta_power
from .errors import EmptySeries, OrderMismatch, ValidityExceeded


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
            ratio = (coeff * zeta_power(coeff.order, -e)).coeffs[0]
            if ratio and zeta_power(coeff.order, e) * ratio == coeff:
                return ScaledMonomial(ratio, e, coeff.order, Monomial(p, q))
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
        if not self.terms:
            raise EmptySeries("the zero series has no minimum degree")
        return min(m.total_degree for m in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, CycloNum]]:
        return sorted(self.terms.items(), key=lambda item: _term_key(item[0]))

    def _check_order(self, other: "LaurentSeries"):
        if self.order != other.order:
            raise OrderMismatch("series orders differ: %d vs %d" % (self.order, other.order))

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_order(other)
        validity = min(self.validity, other.validity)
        entries = list(self.terms.items()) + list(other.terms.items())
        return LaurentSeries.make(entries, validity, self.order)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({m: -c for m, c in self.terms.items()}, self.validity, self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def _known_min_degree(self) -> int:
        # an empty series may still hide terms of degree validity + 1 and up
        return self.min_total_degree() if self.terms else self.validity + 1

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_order(other)
        validity = min(
            self.validity + other._known_min_degree(),
            other.validity + self._known_min_degree(),
        )
        acc: dict[Monomial, CycloNum] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                if mono.total_degree > validity:
                    continue
                prod = c1 * c2
                if mono in acc:
                    acc[mono] = acc[mono] + prod
                else:
                    acc[mono] = prod
        pruned = {m: c for m, c in acc.items() if not c.is_zero()}
        return LaurentSeries(pruned, validity, self.order)

    def scale(self, s: ScaledMonomial) -> "LaurentSeries":
        """Multiply by a single scaled monomial; validity rises with its degree."""
        if s.order != self.order:
            raise OrderMismatch("scalar order %d != series order %d" % (s.order, self.order))
        validity = self.validity + s.total_degree
        factor = s.coeff if s.exponent else s.ratio
        unit = factor == 1
        # a nonzero factor keeps every (nonzero) term nonzero
        entries = {m * s.mono: c if unit else c * factor for m, c in self.terms.items()}
        return LaurentSeries(entries, validity, self.order)

    def map_coeffs(self, fn: Callable[[CycloNum], CycloNum]) -> "LaurentSeries":
        """Coefficientwise map (order-preserving); zeros produced are pruned."""
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[m] = v
        return LaurentSeries(out, self.validity, self.order)

    def truncate(self, validity: int) -> "LaurentSeries":
        """Lower the validity bound (never raises it)."""
        if validity >= self.validity:
            return self
        kept = {m: c for m, c in self.terms.items() if m.total_degree <= validity}
        return LaurentSeries(kept, validity, self.order)

    def embed(self, target_order: int) -> "LaurentSeries":
        if target_order == self.order:
            return self
        out = {m: c.embed(target_order) for m, c in self.terms.items()}
        return LaurentSeries(out, self.validity, target_order)

    # -- comparison and specialization ------------------------------------------

    def first_mismatch(self, other: "LaurentSeries", through: int) -> Optional[Mismatch]:
        """Least differing monomial (term order) of total degree <= through, or None."""
        self._check_order(other)
        if through > min(self.validity, other.validity):
            raise ValidityExceeded(
                "comparison through %d exceeds validity min(%d, %d)"
                % (through, self.validity, other.validity)
            )
        monos = set(self.terms) | set(other.terms)
        worst: Optional[Monomial] = None
        for m in monos:
            if m.total_degree > through:
                continue
            if self.coefficient(m) != other.coefficient(m):
                if worst is None or _term_key(m) < _term_key(worst):
                    worst = m
        if worst is None:
            return None
        return Mismatch(worst, self.coefficient(worst), other.coefficient(worst))

    def equal_through(self, other: "LaurentSeries", through: int) -> bool:
        return self.first_mismatch(other, through) is None

    def specialize_q(self) -> "LaurentSeries":
        """Collapse a^p*b^q to a^(p+q): the a-slot holds the univariate q-series.

        Total degree is preserved termwise, so validity is unchanged.
        """
        entries = [(Monomial(m.total_degree, 0), c) for m, c in self.terms.items()]
        return LaurentSeries.make(entries, self.validity, self.order)

    # -- rendering ----------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            sign, body = _render_term(mono, coeff)
            if not parts:
                parts.append(("-" if sign else "") + body)
            else:
                parts.append((" - " if sign else " + ") + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()


def _render_term(mono: Monomial, coeff: CycloNum) -> tuple[bool, str]:
    """(negative-sign, body) for one term, body without leading sign."""
    mono_txt = mono.render()
    basis = coeff.basis_terms()
    if coeff.is_rational():
        r = coeff.as_rational()
        sign = r < 0
        mag = abs(r)
        if mono_txt == "1":
            return sign, str(mag)
        return sign, mono_txt if mag == 1 else "%s*%s" % (mag, mono_txt)
    if len(basis) == 1:
        j, r = basis[0]
        sign = r < 0
        z = "zeta%d" % coeff.order if j == 1 else "zeta%d^%d" % (coeff.order, j)
        head = z if abs(r) == 1 else "%s*%s" % (abs(r), z)
        return sign, head if mono_txt == "1" else "%s*%s" % (head, mono_txt)
    wrapped = "(%s)" % coeff
    return False, wrapped if mono_txt == "1" else "%s*%s" % (wrapped, mono_txt)
