"""Acceptance suite: every criterion is exact-equality or property-based.

Each test prints one PASS/FAIL line (visible with pytest -s or -rA) and
enforces its stated time budget.
"""
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import collapse_q, constant_parts, plain_theta_args, rand_cyclo, rational_coeff
from thetadissect.catalog import (
    Identity, builtin_catalog, evaluate, get_identity, transformation_identity,
    verify_identity,
)
from thetadissect.cyclotomic import CycloNum, cyclotomic_polynomial, zeta_power
from thetadissect.dissect import dissect_closed, dissect_filter
from thetadissect.expr import (
    ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity,
    SpecializeQ, Sum, ThetaCall, Var, product_of, sum_of,
)
from thetadissect.exprlang import parse_expr, parse_identity, print_expr, print_identity
from thetadissect.theta import theta_expand, triple_product_rhs

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)
CYCLO_ORDERS = [1, 2, 3, 4, 6, 8, 12]
SAMPLES = 110


def _criterion(num, ok, detail):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_criterion_1_jacobi_triple_product():
    start = time.perf_counter()
    args = plain_theta_args()
    series = theta_expand(args, 50)
    product = triple_product_rhs(args, 50)
    elapsed = time.perf_counter() - start
    ok = series == product and elapsed < 2.0
    _criterion(1, ok, "sum and triple-product forms agree exactly through N=50 "
                      "(%.2fs < 2s)" % elapsed)


def test_criterion_2_transformation_grid():
    start = time.perf_counter()
    ok = True
    for m in range(1, 13):
        for e in range(m):
            identity = transformation_identity(m, e)
            order = identity.required_root_order
            lhs = evaluate(identity.lhs, 60, order)
            rhs = evaluate(identity.rhs, 60, order)
            ok = ok and order == m and lhs.first_mismatch(rhs, 60) is None
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _criterion(2, ok, "f(zeta a, zeta b) transformation exact through N=60 for "
                      "all m<=12 and every exponent e (%.2fs < 30s)" % elapsed)


def test_criterion_3_dissection_oracle_and_completeness():
    ok = True
    full = theta_expand(plain_theta_args(), 60)
    for m in range(1, 9):
        total = None
        for k in range(m):
            filtered = dissect_filter(m, k, 60)
            closed = dissect_closed(m, k, 60)
            ok = ok and filtered == closed
            total = filtered if total is None else total + filtered
        ok = ok and total == full
    _criterion(3, ok, "filter and closed-form S_k agree and residue classes "
                      "sum to f(a,b), N=60, m<=8")


def test_criterion_4_catalog_at_four_degrees():
    start = time.perf_counter()
    failures = []
    entries = builtin_catalog()
    for degree in (10, 25, 40, 60):
        for identity in entries:
            report = verify_identity(identity, degree)
            if report.status != "verified":
                failures.append((identity.name, degree, report.status))
    elapsed = time.perf_counter() - start
    ok = len(entries) >= 17 and not failures and elapsed < 20.0
    _criterion(4, ok, "%d catalog identities verified at N in {10,25,40,60} "
                      "(%.2fs < 20s)%s"
               % (len(entries), elapsed, "" if not failures else "; failures: %s" % failures))


def test_criterion_5_quartic_forms_render_identically():
    a9 = get_identity("entry9a")
    b9 = get_identity("entry9b")
    ra = evaluate(a9.rhs, 60, a9.required_root_order).render()
    rb = evaluate(b9.rhs, 60, b9.required_root_order).render()
    ok = ra == rb
    _criterion(5, ok, "entry9a and entry9b right-hand series render "
                      "byte-identically through N=60")


def test_criterion_6_q_specialization_of_quartic_components():
    even = dissect_filter(4, 0, 60) + dissect_filter(4, 2, 60)
    odd = dissect_filter(4, 1, 60) + dissect_filter(4, 3, 60)
    even_closed = dissect_closed(4, 0, 60) + dissect_closed(4, 2, 60)
    odd_closed = dissect_closed(4, 1, 60) + dissect_closed(4, 3, 60)
    even_direct = evaluate(parse_expr("f(q^16, q^16) + q^4*f(q^32, 1)")[0], 60, 1)
    odd_direct = evaluate(parse_expr("q*f(q^24, q^8) + q^9*f(q^40, q^-8)")[0], 60, 1)
    ok = (
        collapse_q(even).first_mismatch(even_direct, 60) is None
        and collapse_q(odd).first_mismatch(odd_direct, 60) is None
        and collapse_q(even_closed).first_mismatch(even_direct, 60) is None
        and collapse_q(odd_closed).first_mismatch(odd_direct, 60) is None
    )
    _criterion(6, ok, "a=b=q collapse of the m=4 components equals the "
                      "directly-built univariate theta sums through N=60")


def test_criterion_7_cyclotomic_property_suites():
    ok = True
    for order in CYCLO_ORDERS:
        rng = random.Random(7000 + order)
        value = CycloNum.zero(order)
        for j, c in enumerate(cyclotomic_polynomial(order)):
            value = value + zeta_power(order, j) * rational_coeff(c, order)
        ok = ok and not any(value.nums)
        for _ in range(SAMPLES):
            x = rand_cyclo(rng, order, span=5)
            y = rand_cyclo(rng, order, span=5)
            z = rand_cyclo(rng, order, span=5)
            ok = ok and (x + y) + z == x + (y + z)
            ok = ok and x * y == y * x
            ok = ok and x * (y + z) == x * y + x * z
            ok = ok and (x * y).embed(24) == x.embed(24) * y.embed(24)
            ok = ok and (x != y) <= (x.embed(24) != y.embed(24))
            ok = ok and (x * y).conjugate() == x.conjugate() * y.conjugate()
            ok = ok and x.conjugate().conjugate() == x
            if order % 4 == 0:
                re, im = constant_parts(x)
                ok = ok and re + zeta_power(order, order // 4) * im == x
    _criterion(7, ok, "field axioms, Phi_L(zeta_L)=0, embedding and conjugation "
                      "homomorphism suites, %d+ samples per order" % SAMPLES)


def _random_ast(rng, depth):
    if depth <= 0 or rng.random() < 0.35:
        pick = rng.randrange(6)
        if pick == 0:
            return Var(rng.choice("abq"))
        if pick == 1:
            return RationalConst(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if pick == 2:
            return RootOfUnity(4, 1)
        if pick == 3:
            return RootOfUnity(3, 1)
        if pick == 4:
            return RootOfUnity(rng.randint(1, 12), rng.randint(0, 12))
        return RationalConst(Fraction(rng.randint(0, 9)))
    pick = rng.randrange(8)
    if pick == 0:
        return ThetaCall(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if pick == 1:
        return Sum(tuple(_random_ast(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if pick == 2:
        return Product(tuple(_random_ast(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if pick == 3:
        return Power(_random_ast(rng, depth - 1), rng.randint(-3, 3))
    if pick == 4:
        child = _random_ast(rng, depth - 1)
        if isinstance(child, RationalConst):
            return RationalConst(-child.value)
        return Negate(child)
    if pick == 5:
        return RealPart(_random_ast(rng, depth - 1))
    if pick == 6:
        return ImagPart(_random_ast(rng, depth - 1))
    return SpecializeQ(_random_ast(rng, depth - 1))


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "thetadissect", *args],
                          capture_output=True, text=True, env=env)


def test_criterion_8_parser_round_trip_and_cli_exit_codes():
    ok = True
    for identity in builtin_catalog():
        text = print_identity(identity.lhs, identity.rhs)
        lhs, rhs, _ = parse_identity(text)
        ok = ok and lhs == identity.lhs and rhs == identity.rhs
    rng = random.Random(20260808)
    count = 0
    while count < 220:
        ast = _random_ast(rng, 4)
        ok = ok and parse_expr(print_expr(ast))[0] == ast
        count += 1
    verified = _run_cli(
        "verify",
        "f(omega*a, omega*b) = omega*f(a,b) + (1-omega)*f(a^6*b^3, a^3*b^6)",
        "--degree", "40",
    )
    failed = _run_cli("verify", "f(a,b) = f(a,b) + a", "--degree", "20")
    broken = _run_cli("verify", "f(a,b = ")
    ok = ok and verified.returncode == 0
    ok = ok and failed.returncode == 1 and "failed at a" in failed.stdout
    ok = ok and broken.returncode == 2
    _criterion(8, ok, "round-trip on catalog renderings plus %d random ASTs; "
                      "CLI verify exit codes 0/1/2 as specified" % count)


def test_criterion_9_negative_control_corrupted_cubic():
    corrupted = Identity(
        "entry7_corrupted",
        ThetaCall(product_of([RootOfUnity(3, 1), Var("a")]),
                  product_of([RootOfUnity(3, 1), Var("b")])),
        sum_of([
            product_of([RootOfUnity(3, 1), ThetaCall(Var("a"), Var("b"))]),
            product_of([
                sum_of([RationalConst(Fraction(1)), RootOfUnity(3, 1)]),  # (1 + omega), corrupted
                ThetaCall(parse_expr("a^6*b^3")[0], parse_expr("a^3*b^6")[0]),
            ]),
        ]),
        3,
        "negative control",
    )
    report = verify_identity(corrupted, 40)
    ok = (report.status == "failed"
          and report.first_mismatch is not None
          and report.first_mismatch.monomial.render() == "1"
          and str(report.first_mismatch.right) == "1 + 2*zeta3")
    _criterion(9, ok, "corrupted cubic identity fails with a concrete first "
                      "mismatch at the constant term")
