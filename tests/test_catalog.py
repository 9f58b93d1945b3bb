import dataclasses
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FractionCyclo, collapse_q, cyclo_from_pairs, denominators, evaluated_parts, make_series,
    numerators, rational_coeff, reference_fold, reference_transformation_text, series_expr,
)
from thetadissect import catalog, exprlang
from thetadissect.catalog import (
    _NOTEBOOK_ENTRIES, Identity, builtin_catalog, catalog_by_name, evaluate,
    fold_scaled_monomial, get_identity, summarize, transformation_identity,
    verify_identity,
)
from thetadissect.cli import DEFAULT_DEGREE
from thetadissect.cyclotomic import CycloNum, euler_phi, zeta_power
from thetadissect.errors import (
    EngineError, IncompatibleOrders, NonConvergent, NonInvertible, NonMonomialArgument, UsageError,
    describe,
)
from thetadissect.expr import (
    ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity, SpecializeQ, Sum,
    ThetaCall, Var, product_of, sum_of,
)
from thetadissect.exprlang import parse_expr, parse_identity, print_identity
from thetadissect.laurent import LaurentSeries, Monomial, ScaledMonomial
from thetadissect.theta import theta_expand

A, B, Q = Var("a"), Var("b"), Var("q")
OMEGA = RootOfUnity(3, 1)
F_AB = ThetaCall(A, B)


def test_evaluate_f_ab():
    s = evaluate(F_AB, 9, 1)
    assert s.term_count == 7
    assert s.render() == "1 + a + b + a^3*b + a*b^3 + a^6*b^3 + a^3*b^6"


def test_evaluate_cubic_combination_matches_omega_expansion():
    rhs = parse_expr("omega*f(a,b) + (1-omega)*f(a^6*b^3, a^3*b^6)")[0]
    lhs = parse_expr("f(omega*a, omega*b)")[0]
    assert evaluate(rhs, 9, 3) == evaluate(lhs, 9, 3)


def test_evaluate_rejects_non_monomial_theta_argument():
    with pytest.raises(NonMonomialArgument):
        evaluate(parse_expr("f(a+b, b)")[0], 9, 1)
    with pytest.raises(NonMonomialArgument):
        fold_scaled_monomial(parse_expr("Re(a)")[0], 4)


def test_evaluate_propagates_nonconvergence():
    with pytest.raises(NonConvergent):
        evaluate(parse_expr("f(a, a^-1)")[0], 9, 1)


def test_evaluate_negative_power_needs_monomial_base():
    with pytest.raises(NonInvertible):
        evaluate(parse_expr("f(a,b)^-1")[0], 9, 1)
    # but a monomial base with a root-of-unity coefficient is fine
    s = evaluate(parse_expr("(omega*a)^-2")[0], 9, 3)
    assert s.term_count == 1
    assert s.coefficient(Monomial(-2, 0)) == zeta_power(3, 1)


def test_evaluate_real_part_needs_order_divisible_by_4():
    with pytest.raises(IncompatibleOrders, match="^order 4 does not divide 1$"):
        evaluate(RealPart(F_AB), 9, 1)
    # the order is checked before the operand is read, so a zero one fails too
    for part in (RealPart, ImagPart):
        with pytest.raises(IncompatibleOrders, match="^order 4 does not divide 6$"):
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
            y = y + -y.conjugate()
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
    assert not evaluate(RationalConst(Fraction(0)), 5, 1).terms


def test_evaluate_empty_product_and_non_node():
    assert product_of([]) == RationalConst(Fraction(1))
    assert evaluate(product_of([]), 5, 1) == LaurentSeries.one(5)
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate("f(a,b)", 5, 1)


def test_evaluate_scaled_product_keeps_requested_validity():
    # q^9 * f(q^40, q^-8): the theta factor alone dips to degree -8, but the
    # monomial prefix is applied by scaling, so exactness through 9 survives
    s = evaluate(parse_expr("q^9*f(q^40, q^-8)")[0], 9, 1)
    assert s.validity >= 9
    assert s.render() == "a + a^9"


# --- folding monomials ----------------------------------------------------------


def test_foreign_root_raises_incompatible_orders_on_either_side_of_a_product():
    # every item of a product is folded before any is evaluated, so the root
    # of order 3 is met at order 4 wherever it stands
    for text in ("zeta(3,1)*f(a,b)", "f(a,b)*zeta(3,1)"):
        with pytest.raises(IncompatibleOrders, match="^order 3 does not divide 4$"):
            evaluate(parse_expr(text)[0], 3, 4)
    # the fold itself stops at the first item that does not fold
    with pytest.raises(IncompatibleOrders):
        fold_scaled_monomial(parse_expr("zeta(3,1)*f(a,b)")[0], 4)
    with pytest.raises(NonMonomialArgument,
                       match="^ThetaCall does not fold to a scaled monomial$"):
        fold_scaled_monomial(parse_expr("f(a,b)*zeta(3,1)")[0], 4)


def test_the_fold_splits_a_node_into_a_prefix_and_the_series_it_cannot_fold():
    # the negation and the monomial factors form the prefix -2*a; the theta
    # call and the power of a sum are collected, the power whole
    series = []
    assert catalog._fold(parse_expr("-2*a*f(a,b)*(a+b)^2")[0], 1, series) == (-2, 0, 1, 0)
    assert series == [F_AB, Power(Sum((A, B)), 2)]
    # a node that does not fold and has no factor that does is its own series
    for node in (F_AB, RationalConst(Fraction(0))):
        series = []
        assert catalog._fold(node, 1, series) == (1, 0, 0, 0)
        assert len(series) == 1 and series[0] is node


@pytest.mark.parametrize("call, m, order", [
    (lambda: catalog._fold(OMEGA, 4), 3, 4),
    (lambda: zeta_power(3, 1).embed(4), 3, 4),
    (lambda: evaluate(RealPart(F_AB), 9, 6), 4, 6),
    (lambda: evaluate(ImagPart(F_AB), 9, 6), 4, 6),
], ids=["fold", "embed", "Re", "Im"])
def test_every_order_that_does_not_divide_raises_one_error(call, m, order):
    with pytest.raises(IncompatibleOrders, match="^order %d does not divide %d$" % (m, order)):
        call()


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
    folded = _outcome(fold_scaled_monomial, node, order)
    assert folded == _outcome(reference_fold, node, order)
    if isinstance(folded, ScaledMonomial):
        assert type(folded.ratio) in (int, Fraction)


def test_the_fold_keeps_an_int_ratio_until_a_fraction_is_needed():
    # an integer-only subtree keeps an int ratio
    s = fold_scaled_monomial(parse_expr("zeta(5,4)*a^3*b^-2*(-1)^3")[0], 10)
    assert s == ScaledMonomial(1, 3, 10, Monomial(3, -2)) and type(s.ratio) is int
    assert type(fold_scaled_monomial(parse_expr("-3*a*2")[0], 4).ratio) is int
    # a negative power makes a Fraction, never a float; equality alone cannot
    # tell, since 0.125 == Fraction(1, 8) and the two hash equal
    s = fold_scaled_monomial(parse_expr("(2*a)^-3")[0], 1)
    assert s.ratio == Fraction(1, 8) and type(s.ratio) is Fraction
    # so does rational input, even when it reduces to an integer
    assert type(fold_scaled_monomial(parse_expr("2*1/2*a")[0], 1).ratio) is Fraction



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
    corrupted = Identity(
        "entry7_corrupted",
        ThetaCall(product_of([OMEGA, A]), product_of([OMEGA, B])),
        sum_of([
            product_of([OMEGA, F_AB]),
            # (1 + omega) in place of (1 - omega)
            product_of([sum_of([RationalConst(Fraction(1)), OMEGA]),
                        ThetaCall(parse_expr("a^6*b^3")[0], parse_expr("a^3*b^6")[0])]),
        ]),
        3,
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
    lhs, rhs, _ = parse_identity("f(a, a^-1) = f(a,b)")
    report = verify_identity(Identity("bad", lhs, rhs, 1, "negative control"), 20)
    assert report.status == "error"
    assert "NonConvergent" in report.error
    # order too small for a real/imaginary split
    report = verify_identity(
        Identity("bad_order", RealPart(F_AB), F_AB, 1, "negative control"), 10)
    assert report.status == "error"
    assert report.error == "IncompatibleOrders: order 4 does not divide 1"
    assert report.to_line() == "bad_order: error (IncompatibleOrders: order 4 does not divide 1)"


def test_an_error_report_keeps_its_exception_out_of_comparison_and_repr():
    identity = Identity("bad_order", RealPart(F_AB), F_AB, 1, "negative control")
    report = verify_identity(identity, 10)
    assert isinstance(report.exception, IncompatibleOrders)
    assert report.exception.__traceback__ is None  # no frames or series kept alive
    assert describe(report.exception) == report.error
    assert "exception" not in repr(report)
    other = dataclasses.replace(report, exception=IncompatibleOrders("another"))
    assert other == report
    assert verify_identity(get_identity("entry7"), 10).exception is None


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
    lhs, rhs, _ = parse_identity("f(a,b) = f(a,b) + a")
    report = verify_identity(Identity("user", lhs, rhs, 1, "negative control"), 10)
    failed = report.to_dict()
    assert failed["status"] == "failed"
    assert failed["first_mismatch"] == {"monomial": "a", "lhs": "1", "rhs": "2"}
    assert failed["first_mismatch"] == report.first_mismatch.to_dict("lhs", "rhs")
    assert report.to_line() == "user: failed at a (lhs 1, rhs 2; degree 10)"
    reports = [verify_identity(e, 10) for e in builtin_catalog()]
    summary = summarize(reports)
    assert set(summary) == {"total", "verified", "failed", "error"}
    assert summary["total"] == len(reports)
    assert summary["verified"] == len(reports)


def test_unknown_identity_name_raises():
    with pytest.raises(UsageError, match="^no catalog entry named 'no_such_entry' "):
        get_identity("no_such_entry")


def test_q_specialization_two_routes_agree():
    # Entry 25(i): specialize the bivariate statement, and compare against a
    # directly-constructed univariate expansion
    via_specialize = evaluate(SpecializeQ(parse_expr("f(a^3*b, a*b^3)")[0]), 40, 1)
    direct = evaluate(parse_expr("f(q^4, q^4)")[0], 40, 1)
    assert via_specialize == direct
    # specq evaluates its argument univariate, so the collapse of the
    # bivariate series keeps a second route in this test
    assert collapse_q(evaluate(parse_expr("f(a^3*b, a*b^3)")[0], 40, 1)) == direct


# --- specq(E) as E at b = q ---------------------------------------------------------

_CANCELLING = [parse_expr(text)[0] for text in (
    "a - b", "a^-1 - b^-1", "a^2 - a*b", "q - b", "a*b^-1 - 1", "i*a - i*b")]


@st.composite
def _scaled_monomial_exprs(draw, order):
    """r * root * a^p * b^s * q^t as a product of leaves, exponents -2..3."""
    items = [RationalConst(draw(st.sampled_from(
        (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-3, 2)))))]
    if draw(st.booleans()):
        root_order = draw(st.sampled_from([d for d in (1, 2, 3, 4, 6, 12) if order % d == 0]))
        items.append(RootOfUnity(root_order, draw(st.integers(0, root_order - 1))))
    for name in ("a", "b", "q"):
        exponent = draw(st.integers(-2, 3))
        if exponent:
            items.append(Power(Var(name), exponent))
    return product_of(items)


def _degree(node):
    return fold_scaled_monomial(node, 12).total_degree


@st.composite
def _specq_exprs(draw, order):
    """Theta calls of scaled monomials, scaled monomials and operands that
    vanish at a = b, combined by sums, products, powers 0..4, negation, Re
    and Im."""
    theta = st.tuples(_scaled_monomial_exprs(order), _scaled_monomial_exprs(order)).filter(
        lambda xy: _degree(xy[0]) + _degree(xy[1]) > 0).map(lambda xy: ThetaCall(*xy))
    leaves = st.one_of(theta, _scaled_monomial_exprs(order), st.sampled_from(_CANCELLING))
    return draw(st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda xs: Sum(tuple(xs))),
        st.lists(children, min_size=2, max_size=3).map(lambda xs: Product(tuple(xs))),
        st.tuples(children, st.integers(0, 4)).map(lambda t: Power(*t)),
        children.map(Negate), children.map(RealPart), children.map(ImagPart),
    ), max_leaves=6))


def _evaluated(node, degree, order):
    try:
        return evaluate(node, degree, order)
    except EngineError as exc:
        return type(exc)


@given(st.data(), st.sampled_from((4, 12)), st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_specq_matches_the_collapse_of_the_bivariate_series(data, order, degree):
    node = data.draw(_specq_exprs(order))
    univariate = _evaluated(SpecializeQ(node), degree, order)
    bivariate = _evaluated(node, degree, order)
    if not isinstance(bivariate, LaurentSeries):
        assert univariate is bivariate
        return
    bivariate = collapse_q(bivariate)
    # exact through the bivariate validity, and never less exact
    assert univariate.validity >= bivariate.validity
    assert LaurentSeries.make(univariate.terms.items(), bivariate.validity, order) == bivariate
    assert all(mono.q == 0 for mono in univariate.terms)
    # what the univariate route claims past that is what more degree confirms
    deeper = collapse_q(evaluate(node, degree + 8, order))
    through = min(univariate.validity, deeper.validity)
    assert univariate.first_mismatch(deeper, through) is None


@pytest.mark.parametrize("text, degree, terms, validity", [
    # at a = b the least term of a - b + a^3 cancels, so its product with
    # a^2 + b^2 starts at degree 5 and is exact through 5
    ("specq((a-b+a^3)*(a^2+b^2))", 3, {Monomial(5, 0): 2}, 5),
    ("specq((a^-1 - b^-1)*f(a,b))", 5, {}, 5),
])
def test_specq_validity_rises_where_a_equals_b_cancels(text, degree, terms, validity):
    node = parse_expr(text)[0]
    series = evaluate(node, degree, 1)
    assert series.validity == validity
    assert series.terms == {mono: rational_coeff(c) for mono, c in terms.items()}
    # the collapse of the bivariate series is exact through less
    assert collapse_q(evaluate(node.item, degree, 1)).validity < validity


def test_no_theta_call_under_specq_sees_b(monkeypatch):
    seen = []

    def recording(args, bound):
        seen.append(args)
        return theta_expand(args, bound)

    monkeypatch.setattr(catalog, "theta_expand", recording)
    sides = [(side, identity.required_root_order)
             for identity in builtin_catalog() for side in (identity.lhs, identity.rhs)]
    for side, order in sides:
        evaluate(SpecializeQ(side), 20, order)
    assert seen and all(x.mono.q == 0 for args in seen for x in (args.first, args.second))
    # the bivariate sides do reach theta calls with b in their arguments
    seen.clear()
    for side, order in sides:
        evaluate(side, 20, order)
    assert any(x.mono.q != 0 for args in seen for x in (args.first, args.second))


def test_notebook_statements_are_in_canonical_printed_form():
    for name, statement, _ in _NOTEBOOK_ENTRIES:
        assert print_identity(*parse_identity(statement)[:2]) == statement, name


def test_the_readme_catalog_table_matches_the_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Catalog entries\n\n", 1)[1].split("\n\n", 1)[0]
    # below the header and its rule, each row is | name | `statement` |
    rows = dict(re.fullmatch(r"\| (.+?) \| (.+) \|", line).groups()
                for line in table.splitlines()[2:])
    # one row stands for the six generated entries thm_m3 .. thm_m8
    assert "transformation_identity(m)" in rows.pop("thm_m3 .. thm_m8")
    entries = catalog_by_name()
    assert list(rows) + ["thm_m%d" % m for m in range(3, 9)] == list(entries)
    for name, statement in rows.items():
        identity = entries[name]
        assert statement == "`%s`" % print_identity(identity.lhs, identity.rhs), name


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


_TRANSFORMATION_CASES = [(m, e) for m in range(1, 41) for e in range(-1, m + 1)] + [(2310, 1)]


def test_transformation_identity_is_the_parsed_statement():
    # the AST is built from the closed form; the text the catalog once wrote
    # and parsed back reads as the same tree
    for m, e in _TRANSFORMATION_CASES:
        identity = transformation_identity(m, e)
        parsed = parse_identity(reference_transformation_text(m, e))
        assert parsed == (identity.lhs, identity.rhs, m)
        assert identity.required_root_order == m


def test_transformation_identity_round_trips_through_its_printed_text():
    for m, e in _TRANSFORMATION_CASES:
        identity = transformation_identity(m, e)
        statement = print_identity(identity.lhs, identity.rhs)
        assert parse_identity(statement) == (identity.lhs, identity.rhs, m), (m, e)


def test_transformation_identity_does_not_tokenize(monkeypatch):
    parsed = [parse_identity(reference_transformation_text(m)) for m in range(1, 13)]

    def refuse(text):
        raise AssertionError("tokenize called on %r" % text[:40])
    monkeypatch.setattr(exprlang, "tokenize", refuse)
    for m in range(1, 13):
        identity = transformation_identity(m)
        assert (identity.lhs, identity.rhs, m) == parsed[m - 1]


def test_transformation_at_a_large_modulus():
    # 2310 = 2*3*5*7*11, so Q(zeta_2310) has degree phi = 480
    identity = transformation_identity(2310)
    assert verify_identity(identity, 60).status == "verified"
    statement = print_identity(identity.lhs, identity.rhs)
    bumped = statement.replace(" + zeta(2310,1)*a*f(", " + zeta(2310,2)*a*f(")
    assert bumped != statement
    report = verify_identity(Identity("bumped", *parse_identity(bumped), "negative control"), 60)
    assert report.status == "failed"
    assert report.first_mismatch.monomial == Monomial(1, 0)
    assert report.first_mismatch.right == zeta_power(2310, 2)


def test_generated_transform_identity_renders_as_expected():
    thm2 = get_identity("thm_m2")
    assert print_identity(thm2.lhs, thm2.rhs) == (
        "f(zeta(2,1)*a, zeta(2,1)*b) = "
        "f(a^3*b, a*b^3) + zeta(2,1)*a*f(a^5*b^3, a^-1*b)"
    )
