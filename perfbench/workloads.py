"""The three workloads: one round of operations each, made from a seed.

An operation is a call into a public entry point of thetadissect, either
`thetadissect.cli.main(argv)` with stdout and stderr captured, or
`theta.triple_product_rhs` where the CLI has no command for it, and a check of
its output against the oracles in `oracles.py`. A round is the same list of
operations every time it runs; the seed chooses the inputs of that list
(zeta exponents, perturbations, argument signs, degree offsets and order),
never the number of operations or their weight.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from thetadissect import cli, theta
from thetadissect.laurent import ScaledMonomial

import oracles as orc


class WrongOutput(Exception):
    """The program answered, and the answer is wrong."""


@dataclass
class Op:
    """One operation: `call` is timed, `check(op, result)` is not.

    `check` raises WrongOutput for a wrong answer and returns False for an
    operation that failed in the way a known fault makes it fail. `cache`
    keeps the oracle's answer between rounds.
    """

    label: str
    call: Callable[[], object]
    check: Callable[["Op", object], bool]
    cache: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_op(label: str, argv: list[str], check: Callable[..., bool]) -> Op:
    return Op(label, lambda: run_cli(argv), lambda op, result: check(op, *result))


def expect(condition: bool, op_label: str, what: str) -> None:
    if not condition:
        raise WrongOutput("%s: %s" % (op_label, what))


# -- catalog-named ------------------------------------------------------------------

_VERDICT = re.compile(r"(\S+): verified \(degree (\d+), lhs (\d+) terms, rhs (\d+) terms\)")


def _check_catalog(name: str, degree: int):
    def check(op: Op, code: int, out: str, err: str) -> bool:
        lines = out.splitlines()
        expect(code == 0 and len(lines) == 4, op.label, "exit %s, %d lines" % (code, len(lines)))
        verdict = _VERDICT.fullmatch(lines[0])
        expect(verdict is not None and verdict.group(1) == name
               and int(verdict.group(2)) == degree, op.label, "verdict %r" % lines[0])
        expect(lines[1].startswith("  lhs: ") and lines[2].startswith("  rhs: "), op.label, "series lines")
        expect(lines[3] == "summary: total=1 verified=1 failed=0 error=0", op.label, lines[3])
        if "lhs" not in op.cache:
            L, lhs = orc.catalog_lhs(name, degree)
            op.cache["lhs"] = orc.expected_terms(lhs, L)
        for side, text, count in (("lhs", lines[1][7:], verdict.group(3)),
                                  ("rhs", lines[2][7:], verdict.group(4))):
            terms = orc.parse_series(text)
            expect(len(terms) == int(count), op.label, "%s term count" % side)
            expect(list(terms) == sorted(terms, key=orc.term_key), op.label, "%s term order" % side)
            low = {m: c for m, c in terms.items() if m[0] + m[1] <= degree}
            expect(low == op.cache["lhs"], op.label, "%s differs from the direct sum" % side)
        return True
    return check


# Every entry runs at degree 2000 but the four that would cost well over
# the rest there; these run where they cost about what thm_m3 and thm_m7 do
# at 2000, so that the six dearest operations (30% of a round) form one
# cluster and p90 falls inside it rather than in a gap between two entries.
CATALOG_DEGREES = {"thm_m5": 1000, "entry9b": 1400, "entry7": 1800, "thm_m6": 1950}


def catalog_named(seed: int) -> list[Op]:
    """Every built-in entry as `catalog NAME` in text, so the series are
    rendered, at its degree less a seeded offset below 10."""
    rng = random.Random(seed)
    ops = []
    for name in sorted(orc.CATALOG_LHS):
        degree = CATALOG_DEGREES.get(name, 2000) - rng.randrange(10)
        ops.append(cli_op("catalog %s" % name, ["catalog", name, "--degree", str(degree)],
                          _check_catalog(name, degree)))
    rng.shuffle(ops)
    return ops


# -- transform-grid -------------------------------------------------------------------

GRID_DEGREE = 200
# Exponent pools: units e mod m for which checking the modulus-m identity at
# zeta_m^e costs the same within a few percent. Other units make the engine
# meet zeta^(m-1), the one dense power-basis element, early in its
# exponentiation ladder and cost up to 1.6x more, which would let the seed
# change the weight of a round.
GRID_POOLS = {
    5: (1, 2), 7: (1, 2, 4), 11: (3, 7, 9), 13: (5, 7, 9, 10, 11),
    17: (3, 5, 6, 7, 10, 11, 12, 14, 15), 19: (1, 2, 3, 4, 5, 6, 10, 11, 12, 15, 17),
    23: (1, 2, 3, 4, 6, 7, 8, 9, 12, 13, 15, 16, 18, 19, 21),
    29: (1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 13, 15, 16, 17, 20, 21, 22, 23, 25, 26, 27),
    6: (1, 5), 10: (1, 7), 12: (1, 7), 15: (1, 2), 20: (1, 3, 11, 13),
    24: (1, 5, 7, 13, 17, 19), 25: (1, 2, 4, 7, 8, 9, 11, 13, 16, 17, 18, 19, 22),
    26: (5, 7, 9, 11, 23),
    27: (1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20, 22, 23, 25, 26),
    28: (1, 9, 11, 15, 23, 25), 30: (1, 17),
}
P0_REPRO = ["verify", "(a^-3+1)*(f(a,b)-1) = 0", "--degree", "0"]


def transformation_text(m: int, e: int, bump_k=None) -> str:
    """f(zeta a, zeta b) = sum_k zeta^(k^2) a^(k(k+1)/2) b^(k(k-1)/2)
    f(A_m (ab)^(mk), B_m (ab)^(-mk)) with zeta = zeta_m^e, written from the
    formula. bump_k raises that one root exponent by one."""
    up, down = m * (m + 1) // 2, m * (m - 1) // 2
    pieces = []
    for k in range(m):
        exponent = e * k * k + (1 if k == bump_k else 0)
        factors = ["zeta(%d,%d)" % (m, exponent % m)]
        prefix = (k * (k + 1) // 2, k * (k - 1) // 2)
        if prefix != (0, 0):
            factors.append(orc.render_monomial(prefix))
        factors.append("f(%s, %s)" % (orc.render_monomial((up + m * k, down + m * k)),
                                      orc.render_monomial((down - m * k, up - m * k))))
        pieces.append("*".join(factors))
    zeta = "zeta(%d,%d)" % (m, e)
    return "f(%s*a, %s*b) = %s" % (zeta, zeta, " + ".join(pieces))


def _check_transform(m: int, e: int, bump_k):
    def check(op: Op, code: int, out: str, err: str) -> bool:
        doc = json.loads(out)
        expect(doc["degree"] == GRID_DEGREE, op.label, "degree")
        if bump_k is None:
            terms = 2 * math.isqrt(GRID_DEGREE) + 1  # one per n with n^2 <= degree
            expect(code == 0 and doc["status"] == "verified", op.label, "status %s" % doc["status"])
            expect(doc["lhs_terms"] == terms == doc["rhs_terms"], op.label, "term counts")
            return True
        n, mono = orc.least_term(m, bump_k)
        expect(code == 1 and doc["status"] == "failed", op.label, "status %s" % doc["status"])
        first = doc["first_mismatch"]
        expect(first["monomial"] == orc.render_monomial(mono), op.label,
               "first mismatch at %s, predicted %s" % (first["monomial"], orc.render_monomial(mono)))
        expect(first["lhs"] == orc.render_number(orc.root(m, e * n * n), m), op.label, "lhs coefficient")
        expect(first["rhs"] == orc.render_number(orc.root(m, e * bump_k * bump_k + 1), m),
               op.label, "rhs coefficient")
        return True
    return check


def _check_dissect(m: int):
    def check(op: Op, code: int, out: str, err: str) -> bool:
        doc = json.loads(out)
        expect(code == 0 and doc["all_agree"] is True and doc["m"] == m, op.label, "verdict")
        if "classes" not in op.cache:
            op.cache["classes"] = [
                orc.render_series(orc.theta_direct((1, 0, 1, 0), (1, 0, 0, 1), GRID_DEGREE,
                                                   residue=(m, k)), 1)
                for k in range(m)
            ]
        expect([entry["k"] for entry in doc["entries"]] == list(range(m)), op.label, "classes")
        for entry, expected in zip(doc["entries"], op.cache["classes"]):
            expect(entry["filter"] == expected == entry["closed"], op.label,
                   "class k=%d differs from the filtered direct sum" % entry["k"])
        return True
    return check


def _check_p0(op: Op, code: int, out: str, err: str) -> bool:
    """Passes once the program stops claiming "verified": exit 1, or exit 3
    naming the validity bound."""
    return code == 1 or (code == 3 and "Validity" in err)


def transform_grid(seed: int) -> list[Op]:
    """Per modulus: the transformation at two seeded exponents, a copy of one
    with a seeded zeta^(k^2) exponent bumped by one, and `dissect --mode both`;
    plus the validity repro that the program gets wrong today."""
    rng = random.Random(seed)
    ops = []
    for m, pool in GRID_POOLS.items():
        exponents = rng.sample(pool, 2)
        for e in exponents:
            ops.append(cli_op("verify m=%d e=%d" % (m, e),
                              ["verify", transformation_text(m, e), "--format", "json",
                               "--degree", str(GRID_DEGREE)], _check_transform(m, e, None)))
        e = rng.choice(exponents)
        # the least term of S_k has degree min(k, m-k)^2, inside the window
        k = rng.choice([k for k in range(m) if min(k, m - k) ** 2 <= GRID_DEGREE])
        ops.append(cli_op("verify m=%d e=%d bumped k=%d" % (m, e, k),
                          ["verify", transformation_text(m, e, k), "--format", "json",
                           "--degree", str(GRID_DEGREE)], _check_transform(m, e, k)))
        ops.append(cli_op("dissect m=%d" % m,
                          ["dissect", "--m", str(m), "--mode", "both", "--format", "json",
                           "--degree", str(GRID_DEGREE)], _check_dissect(m)))
    ops.append(cli_op("p0 repro", P0_REPRO, _check_p0))
    rng.shuffle(ops)
    return ops


# -- dense-products -------------------------------------------------------------------

# (k, degree): k = 4..8 cost about what the triple product at (a, b) costs, so
# the six dearest operations (40% of a round) form one cluster that holds p90;
# k = 2, 3 reach degree ~1000
POWER_DEGREES = ((2, 1000), (3, 800), (4, 690), (5, 480), (6, 390), (7, 300), (8, 275))
SPECQ_DEGREES = ((2, 60), (3, 60), (4, 50), (5, 45), (6, 40))
# (x, y, degree) with x, y = (p, q): positive degrees, as the triple product needs
TRIPLE_ARGS = (((1, 0), (0, 1), 60), ((1, 1), (1, 0), 70), ((2, 1), (0, 1), 80))


def _check_power(k: int, degree: int):
    def check(op: Op, code: int, out: str, err: str) -> bool:
        expect(code == 0, op.label, "exit %s" % code)
        doc = json.loads(out)
        expect(doc["validity"] == degree == doc["degree"], op.label, "validity %s" % doc["validity"])
        if "terms" not in op.cache:
            reps = orc.squares_reps(k, degree)
            op.cache["terms"] = [{"monomial": orc.render_monomial((n, 0)), "coeff": str(r)}
                                 for n, r in enumerate(reps) if r]
        expect(doc["terms"] == op.cache["terms"], op.label, "coefficients differ from r_%d(n)" % k)
        return True
    return check


def _triple_call(args, degree: int):
    product = theta.triple_product_rhs(args, degree)
    direct = theta.theta_expand(args, degree)
    return product, direct, product.first_mismatch(direct, degree)


def _check_triple(x, y, degree: int):
    def check(op: Op, result) -> bool:
        product, direct, mismatch = result
        expect(mismatch is None, op.label, "triple product and theta sum disagree")
        if "terms" not in op.cache:
            op.cache["terms"] = {m: c[0] for m, c in orc.theta_direct(x, y, degree).items()}
        for name, series in (("product", product), ("sum", direct)):
            expect(series.validity >= degree, op.label, "%s validity" % name)
            got = {(m.p, m.q): c.as_rational() for m, c in series.terms.items()
                   if m.p + m.q <= degree}
            expect(got == op.cache["terms"], op.label, "%s differs from the direct sum" % name)
        return True
    return check


def dense_products(seed: int) -> list[Op]:
    """f(q,q)^k and specq(f(a,b)^k) through `expand`, checked against r_k(n),
    and the triple product against the theta sum at seeded argument signs."""
    rng = random.Random(seed)
    ops = []
    for k, degree in POWER_DEGREES:
        ops.append(cli_op("expand f(q,q)^%d" % k,
                          ["expand", "f(q,q)^%d" % k, "--format", "json", "--degree", str(degree)],
                          _check_power(k, degree)))
    for k, degree in SPECQ_DEGREES:
        ops.append(cli_op("expand specq(f(a,b)^%d)" % k,
                          ["expand", "specq(f(a,b)^%d)" % k, "--format", "json",
                           "--degree", str(degree)], _check_power(k, degree)))
    for (p1, q1), (p2, q2), degree in TRIPLE_ARGS:
        s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
        args = theta.ThetaArgs(ScaledMonomial.make(s1, p1, q1), ScaledMonomial.make(s2, p2, q2))
        x, y = (Fraction(s1), 0, p1, q1), (Fraction(s2), 0, p2, q2)
        ops.append(Op("triple (%d*a^%d*b^%d, %d*a^%d*b^%d)" % (s1, p1, q1, s2, p2, q2),
                      lambda args=args, degree=degree: _triple_call(args, degree),
                      _check_triple(x, y, degree)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "catalog-named": catalog_named,
    "transform-grid": transform_grid,
    "dense-products": dense_products,
}
