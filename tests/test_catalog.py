import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FractionCyclo, cyclo_from_pairs, denominators, evaluated_parts, make_series, numerators,
    reference_fold, series_expr,
)
from thetadissect.catalog import (
    _NOTEBOOK_ENTRIES, Identity, builtin_catalog, catalog_by_name, evaluate,
    fold_scaled_monomial, get_identity, make_identity, summarize, transformation_identity,
    verify_identity,
)
from thetadissect.cli import DEFAULT_DEGREE
from thetadissect.cyclotomic import CycloNum, euler_phi, zeta_power
from thetadissect.errors import (
    EngineError, IncompatibleOrders, NonConvergent, NonInvertible, NonMonomialArgument,
    OrderNotDivisibleBy4, UnknownIdentityName,
)
from thetadissect.expr import (
    ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity, SpecializeQ, Sum,
    ThetaCall, Var, product_of, rational, sum_of,
)
from thetadissect.exprlang import parse_expr, parse_identity, print_identity
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial

A, B, Q = Var("a"), Var("b"), Var("q")
OMEGA = RootOfUnity(3, 1)
F_AB = ThetaCall(A, B)


def test_evaluate_f_ab():
    s = evaluate(F_AB, 9, 1)
    assert s.term_count == 7
    assert s.render() == "1 + a + b + a^3*b + a*b^3 + a^6*b^3 + a^3*b^6"


def test_evaluate_cubic_combination_matches_omega_expansion():
    rhs = parse_expr("omega*f(a,b) + (1-omega)*f(a^6*b^3, a^3*b^6)")
    lhs = parse_expr("f(omega*a, omega*b)")
    assert evaluate(rhs, 9, 3) == evaluate(lhs, 9, 3)


def test_evaluate_rejects_non_monomial_theta_argument():
    with pytest.raises(NonMonomialArgument):
        evaluate(parse_expr("f(a+b, b)"), 9, 1)
    with pytest.raises(NonMonomialArgument):
        fold_scaled_monomial(parse_expr("Re(a)"), 4)


def test_evaluate_propagates_nonconvergence():
    with pytest.raises(NonConvergent):
        evaluate(parse_expr("f(a, a^-1)"), 9, 1)


def test_evaluate_negative_power_needs_monomial_base():
    with pytest.raises(NonInvertible):
        evaluate(parse_expr("f(a,b)^-1"), 9, 1)
    # but a monomial base with a root-of-unity coefficient is fine
    s = evaluate(parse_expr("(omega*a)^-2"), 9, 3)
    assert s.term_count == 1
    assert s.coefficient(Monomial(-2, 0)) == zeta_power(3, 1)


def test_evaluate_real_part_needs_order_divisible_by_4():
    with pytest.raises(OrderNotDivisibleBy4):
        evaluate(RealPart(F_AB), 9, 1)
    # the order is checked before the operand is read, so a zero one fails too
    for part in (RealPart, ImagPart):
        with pytest.raises(OrderNotDivisibleBy4):
            evaluate(part(RationalConst(Fraction(0))), 9, 6)


@st.composite
def re_im_operands(draw):
    """Series of up to six terms at orders 4, 8, 12 and 24, each coefficient
    arbitrary, purely real (y + conj y) or purely imaginary (y - conj y)."""
    order = draw(st.sampled_from((4, 8, 12, 24)))
    exponents = st.integers(-3, 5)
    entries = {}
    for mono in draw(st.lists(st.tuples(exponents, exponents), max_size=6, unique=True)):
        y = cyclo_from_pairs(order, [(draw(numerators), draw(denominators))
                                     if draw(st.booleans()) else (0, 1)
                                     for _ in range(euler_phi(order))])
        kind = draw(st.sampled_from(("any", "real", "imaginary")))
        if kind == "real":
            y = y + y.conjugate()
        elif kind == "imaginary":
            y = y - y.conjugate()
        entries[mono] = y
    return make_series(entries, 10, order)


@given(re_im_operands())
@settings(max_examples=150, deadline=None)
def test_re_im_of_series_match_the_fraction_reference(series):
    order = series.order
    assert evaluate(series_expr(series), series.validity, order) == series
    re, im = evaluated_parts(series)
    assert re.validity == im.validity == series.validity
    for part in (re, im):
        assert part.terms.keys() <= series.terms.keys()
        assert not any(c.is_zero() for c in part.terms.values())
        assert part.map_coeffs(CycloNum.conjugate) == part
    for mono, x in series.terms.items():
        got = (FractionCyclo.of(re.coefficient(mono)), FractionCyclo.of(im.coefficient(mono)))
        assert got == FractionCyclo.of(x).real_imag()
    i_unit = ScaledMonomial(1, order // 4, order, Monomial(0, 0))
    assert LaurentSeries.sum((re, im.scale(i_unit))) == series


def test_evaluate_zero_constant():
    assert evaluate(RationalConst(Fraction(0)), 5, 1).is_zero()


def test_evaluate_scaled_product_keeps_requested_validity():
    # q^9 * f(q^40, q^-8): the theta factor alone dips to degree -8, but the
    # monomial prefix is applied by scaling, so exactness through 9 survives
    s = evaluate(parse_expr("q^9*f(q^40, q^-8)"), 9, 1)
    assert s.validity >= 9
    assert s.render() == "a + a^9"


# --- folding monomials ----------------------------------------------------------


def test_foreign_root_raises_incompatible_orders_on_either_side_of_a_product():
    # every item of a product is folded before any is evaluated, so the root
    # of order 3 is met at order 4 wherever it stands
    for text in ("zeta(3,1)*f(a,b)", "f(a,b)*zeta(3,1)"):
        with pytest.raises(IncompatibleOrders, match="^order 3 does not divide 4$"):
            evaluate(parse_expr(text), 3, 4)
    # the fold itself stops at the first item that does not fold
    with pytest.raises(IncompatibleOrders):
        fold_scaled_monomial(parse_expr("zeta(3,1)*f(a,b)"), 4)
    with pytest.raises(NonMonomialArgument,
                       match="^ThetaCall does not fold to a scaled monomial$"):
        fold_scaled_monomial(parse_expr("f(a,b)*zeta(3,1)"), 4)


# Orders 1..12 against L in {1, 2, 3, 4, 6, 12}: some divide L, some do not.
_FOLD_LEAVES = st.one_of(
    st.sampled_from([Var("a"), Var("b"), Var("q")]),
    st.builds(lambda n, d: RationalConst(Fraction(n, d)), st.integers(-4, 4), st.integers(1, 4)),
    st.builds(RootOfUnity, st.integers(1, 12), st.integers(-12, 12)),
    st.sampled_from([F_AB, Sum((A, B)), RealPart(A)]),
)
_MONOMIAL_TREES = st.recursive(_FOLD_LEAVES, lambda children: st.one_of(
    children.map(Negate),
    st.lists(children, min_size=2, max_size=4).map(lambda xs: Product(tuple(xs))),
    st.tuples(children, st.integers(-3, 3)).map(lambda t: Power(*t)),
), max_leaves=8)


def _outcome(fold, node, order):
    try:
        return fold(node, order)
    except EngineError as exc:
        return type(exc), str(exc)


@given(_MONOMIAL_TREES, st.sampled_from([1, 2, 3, 4, 6, 12]))
@settings(max_examples=400, deadline=None)
def test_fold_matches_the_raising_reference_fold(node, order):
    assert _outcome(fold_scaled_monomial, node, order) == _outcome(reference_fold, node, order)



def test_catalog_size_and_unique_names():
    entries = builtin_catalog()
    assert len(entries) >= 17
    names = [e.name for e in entries]
    assert len(set(names)) == len(names)
    required = {
        "entry30_ii", "entry30_iii", "entry25_i", "entry25_ii", "entry7",
        "entry9a", "entry9b", "remark_re", "remark_im", "remark_q_re",
        "remark_q_im",
    } | {"thm_m%d" % m for m in range(2, 9)}
    assert required <= set(names)


def test_catalog_orders_are_lcms_of_root_orders():
    table = catalog_by_name()
    assert table["entry30_ii"].required_root_order == 1
    assert table["entry7"].required_root_order == 3
    assert table["entry9b"].required_root_order == 4
    assert table["thm_m6"].required_root_order == 6


def test_every_entry_verifies_at_its_default_degree():
    for identity in builtin_catalog():
        report = verify_identity(identity, DEFAULT_DEGREE)
        assert report.status == "verified", (identity.name, report)


@pytest.mark.parametrize("degree", [10, 25, 40])
def test_degree_monotonicity_sample(degree):
    for name in ("entry7", "entry9a", "remark_q_im", "thm_m5", "thm_m8"):
        report = verify_identity(get_identity(name), degree)
        assert report.status == "verified", (name, degree)


def test_verify_entry7_at_40():
    report = verify_identity(get_identity("entry7"), 40)
    assert report.status == "verified"
    assert report.first_mismatch is None
    assert report.lhs_terms == report.rhs_terms > 0


def test_corrupted_entry7_fails_with_concrete_mismatch():
    corrupted = make_identity(
        "entry7_corrupted",
        ThetaCall(product_of([OMEGA, A]), product_of([OMEGA, B])),
        sum_of([
            product_of([OMEGA, F_AB]),
            # (1 + omega) in place of (1 - omega)
            product_of([sum_of([rational(1), OMEGA]),
                        ThetaCall(parse_expr("a^6*b^3"), parse_expr("a^3*b^6"))]),
        ]),
        "negative control",
    )
    report = verify_identity(corrupted, 40)
    assert report.status == "failed"
    assert report.first_mismatch is not None
    assert report.first_mismatch.monomial == Monomial(0, 0)
    assert str(report.first_mismatch.left) == "1"
    assert str(report.first_mismatch.right) == "1 + 2*zeta3"


def test_verify_entry9b_at_40():
    assert verify_identity(get_identity("entry9b"), 40).status == "verified"


def test_entry9a_and_entry9b_rhs_series_are_identical():
    a9 = get_identity("entry9a")
    b9 = get_identity("entry9b")
    ra = evaluate(a9.rhs, 60, a9.required_root_order)
    rb = evaluate(b9.rhs, 60, b9.required_root_order)
    assert ra == rb
    assert ra.render() == rb.render()


def test_verify_captures_evaluation_errors_as_status():
    lhs, rhs = parse_identity("f(a, a^-1) = f(a,b)")
    report = verify_identity(Identity("bad", lhs, rhs, 1, "negative control"), 20)
    assert report.status == "error"
    assert "NonConvergent" in report.error
    # order too small for a real/imaginary split
    report = verify_identity(
        Identity("bad_order", RealPart(F_AB), F_AB, 1, "negative control"), 10)
    assert report.status == "error"
    assert "OrderNotDivisibleBy4" in report.error


def test_report_is_deterministic_apart_from_elapsed_time():
    identity = get_identity("entry9a")
    r1 = dataclasses.replace(verify_identity(identity, 25), millis=0.0)
    r2 = dataclasses.replace(verify_identity(identity, 25), millis=0.0)
    assert r1 == r2


def test_report_serialization_schema():
    verified = verify_identity(get_identity("entry7"), 25).to_dict()
    assert set(verified) == {
        "name", "paper_ref", "degree", "status", "lhs_terms", "rhs_terms", "millis",
    }
    lhs, rhs = parse_identity("f(a,b) = f(a,b) + a")
    failed = verify_identity(Identity("user", lhs, rhs, 1, "negative control"), 10).to_dict()
    assert failed["status"] == "failed"
    assert set(failed["first_mismatch"]) == {"monomial", "lhs", "rhs"}
    assert failed["first_mismatch"]["monomial"] == "a"
    reports = [verify_identity(e, 10) for e in builtin_catalog()]
    summary = summarize(reports)
    assert set(summary) == {"total", "verified", "failed", "error"}
    assert summary["total"] == len(reports)
    assert summary["verified"] == len(reports)


def test_unknown_identity_name_raises():
    with pytest.raises(UnknownIdentityName):
        get_identity("no_such_entry")


def test_q_specialization_two_routes_agree():
    # Entry 25(i): specialize the bivariate statement, and compare against a
    # directly-constructed univariate expansion
    via_specialize = evaluate(SpecializeQ(parse_expr("f(a^3*b, a*b^3)")), 40, 1)
    direct = evaluate(parse_expr("f(q^4, q^4)"), 40, 1)
    assert via_specialize == direct


def test_notebook_statements_are_in_canonical_printed_form():
    for name, statement, _ in _NOTEBOOK_ENTRIES:
        assert print_identity(*parse_identity(statement)) == statement, name


def test_transformation_identity_at_a_non_primitive_root():
    # zeta = zeta_4^2 = -1: zeta^(k^2) is zeta^2 for odd k and 1 for even k
    identity = transformation_identity(4, 6)
    assert identity.name == "thm_m4_e2"
    assert identity.required_root_order == 4
    assert print_identity(identity.lhs, identity.rhs) == (
        "f(zeta(4,2)*a, zeta(4,2)*b) = f(a^10*b^6, a^6*b^10) + zeta(4,2)*a*f(a^14*b^10, a^2*b^6)"
        " + a^3*b*f(a^18*b^14, a^-2*b^2) + zeta(4,2)*a^6*b^3*f(a^22*b^18, a^-6*b^-2)"
    )
    with pytest.raises(ValueError):
        transformation_identity(0)


def test_transformation_at_a_large_modulus():
    # 2310 = 2*3*5*7*11, so Q(zeta_2310) has degree phi = 480
    identity = transformation_identity(2310)
    assert verify_identity(identity, 60).status == "verified"
    statement = print_identity(identity.lhs, identity.rhs)
    bumped = statement.replace(" + zeta(2310,1)*a*f(", " + zeta(2310,2)*a*f(")
    assert bumped != statement
    report = verify_identity(make_identity("bumped", *parse_identity(bumped), "negative control"), 60)
    assert report.status == "failed"
    assert report.first_mismatch.monomial == Monomial(1, 0)
    assert report.first_mismatch.right == zeta_power(2310, 2)


def test_generated_transform_identity_renders_as_expected():
    thm2 = get_identity("thm_m2")
    assert print_identity(thm2.lhs, thm2.rhs) == (
        "f(zeta(2,1)*a, zeta(2,1)*b) = "
        "f(a^3*b, a*b^3) + zeta(2,1)*a*f(a^5*b^3, a^-1*b)"
    )
