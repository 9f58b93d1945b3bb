import os
import sys
from fractions import Fraction

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from thetadissect.cyclotomic import CycloNum, euler_phi  # noqa: E402
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial  # noqa: E402
from thetadissect.theta import ThetaArgs  # noqa: E402


def make_series(entries, validity, order=1):
    """entries: {(p, q): rational or CycloNum}."""
    pairs = []
    for (p, q), c in entries.items():
        if not isinstance(c, CycloNum):
            c = CycloNum.from_rational(Fraction(c), order)
        pairs.append((Monomial(p, q), c))
    return LaurentSeries.make(pairs, validity, order)


def plain_theta_args(order=1):
    """Arguments (a, b) of the plain kernel f(a, b)."""
    return ThetaArgs(
        ScaledMonomial.make(1, 1, 0, order),
        ScaledMonomial.make(1, 0, 1, order),
    )


def rand_cyclo(rng, order, span=9):
    phi = euler_phi(order)
    return CycloNum(
        order,
        tuple(Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(phi)),
    )


def schoolbook_terms(x, y, validity):
    """The Fraction double loop the integer kernel replaced, kept as the reference."""
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            mono = m1 * m2
            if mono.total_degree > validity:
                continue
            prod = c1 * c2
            acc[mono] = acc[mono] + prod if mono in acc else prod
    return {m: c for m, c in acc.items() if not c.is_zero()}


def known_min_degree(s):
    """The least degree s can hold: an empty series may hide validity + 1."""
    return min(m.total_degree for m in s.terms) if s.terms else s.validity + 1


def schoolbook_fold(items):
    """Every partial product of a left fold of `schoolbook_terms`, each step
    exact through min(V1 + m2, V2 + m1) for validities V and least degrees m."""
    partials = [items[0]]
    for other in items[1:]:
        acc = partials[-1]
        validity = min(acc.validity + known_min_degree(other),
                       other.validity + known_min_degree(acc))
        partials.append(LaurentSeries(schoolbook_terms(acc, other, validity), validity, acc.order))
    return partials
