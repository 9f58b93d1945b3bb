import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    decimal_rule_tokens, isdigit_rule_tokens, reference_parse_expr, reference_parse_identity,
    reference_spans,
)
from thetadissect.catalog import builtin_catalog
from thetadissect.errors import ParseError
from thetadissect.expr import (
    ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity,
    SpecializeQ, Sum, ThetaCall, Var,
)
from thetadissect.exprlang import (
    _TOKEN, MAX_NESTING, _kind, _scan, parse_expr, parse_identity, print_expr, print_identity,
)

A, B, Q = Var("a"), Var("b"), Var("q")
I = RootOfUnity(4, 1)
OMEGA = RootOfUnity(3, 1)


def test_tokenizer_offsets_strictly_increase():
    text = "f(omega*a, 1/2) = b^-3"
    spans = [(match.start(), match.group()) for match in _TOKEN.finditer(text)]
    offsets = [offset for offset, _ in spans]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == len(offsets)
    assert all(text[offset:].startswith(tok) for offset, tok in spans)


def test_parse_theta_with_i():
    ast = parse_expr("f(i*a, i*b)")[0]
    assert ast == ThetaCall(Product((I, A)), Product((I, B)))


def test_parse_compact_quartic_rhs():
    ast = parse_expr("1/2*(1+i)*f(a,b) + 1/2*(1-i)*f(-a,-b)")[0]
    half = RationalConst(Fraction(1, 2))
    expected = Sum((
        Product((half, Sum((RationalConst(Fraction(1)), I)), ThetaCall(A, B))),
        Product((
            half,
            Sum((RationalConst(Fraction(1)), Negate(I))),
            ThetaCall(Negate(A), Negate(B)),
        )),
    ))
    assert ast == expected


def test_parse_negative_exponent():
    assert parse_expr("a^-1")[0] == Power(A, -1)
    assert parse_expr("a^-1*b")[0] == Product((Power(A, -1), B))


def test_parse_unary_minus_binds_below_power():
    assert parse_expr("-a^2")[0] == Negate(Power(A, 2))


def test_parse_calls():
    assert parse_expr("Re(f(a,b))")[0] == RealPart(ThetaCall(A, B))
    assert parse_expr("Im(i)")[0] == ImagPart(I)
    assert parse_expr("specq(a*b)")[0] == SpecializeQ(Product((A, B)))
    assert parse_expr("zeta(12,7)")[0] == RootOfUnity(12, 7)
    assert parse_expr("zeta(4,5)")[0] == I  # exponent normalized mod order
    assert parse_expr("omega")[0] == OMEGA


def test_power_is_non_associative():
    with pytest.raises(ParseError) as err:
        parse_expr("a^2^3")[0]
    assert err.value.offset == 3


def test_juxtaposition_is_not_multiplication():
    with pytest.raises(ParseError) as err:
        parse_expr("a b")[0]
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_expr("2a")[0]
    assert err.value.offset == 1


def test_exponent_must_be_integer_literal():
    with pytest.raises(ParseError, match="^exponent must be a literal integer, got ") as err:
        parse_expr("a^(2)")[0]
    assert err.value.offset == 2


def test_parse_identity_examples():
    assert parse_identity("f(a,b) = f(b,a)") == (ThetaCall(A, B), ThetaCall(B, A), 1)
    for text, message in [
        ("f(a,b)", "unexpected end of input after expression (expected: equals) at offset 6"),
        ("a = b = c", "unexpected equals '=' after expression (expected: end) at offset 6"),
        ("x = y = z", "unknown name 'x' (expected: Im, Re, a, b, f, i, omega, q, specq, zeta)"
                      " at offset 0"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_identity(text)
        assert str(err.value) == message


def test_parse_error_offsets_point_into_the_input():
    bad = ["f(a,b", "a b", "a^2^3", "2a", "zeta(0,1)", "1/0", "a^(2)", "",
           "f(a,b = ", "a + ", "a * * b", "what(a)"]
    for text in bad:
        with pytest.raises(ParseError) as err:
            if "=" in text:
                parse_identity(text)
            else:
                parse_expr(text)[0]
        assert 0 <= err.value.offset <= len(text), text


@pytest.mark.parametrize("text", ["f(a = b)", "(a = b)", "a + = b", "= b", "f(a, = b)"])
def test_an_error_in_the_left_side_points_at_the_equals_sign(text):
    # both sides are read by one parser, so the left side ends at the '='
    # and not at the end of the whole text
    with pytest.raises(ParseError, match="^unexpected equals '='") as err:
        parse_identity(text)
    assert err.value.offset == text.index("=")


@pytest.mark.parametrize("text, order", [
    ("a", 1),
    ("Re(omega*a)", 12),
    ("zeta(4,5)*i", 4),
    ("zeta(6,3)", 6),  # a root keeps its written order though e/m reduces
    ("specq(a) = zeta(10,3)*b", 10),  # a root on the right side only
])
def test_the_parser_reports_the_working_order(text, order):
    parse = parse_identity if "=" in text else parse_expr
    assert parse(text)[-1] == order


def test_print_examples():
    assert print_expr(parse_expr("f(a,b)")[0]) == "f(a, b)"
    assert print_expr(RationalConst(Fraction(1, 2))) == "1/2"
    assert print_expr(parse_expr("omega*f(a,b) + (1-omega)*f(a^6*b^3, a^3*b^6)")[0]) == \
        "omega*f(a, b) + (1 - omega)*f(a^6*b^3, a^3*b^6)"
    assert print_identity(ThetaCall(A, B), ThetaCall(B, A)) == "f(a, b) = f(b, a)"


def test_roundtrip_catalog_renderings():
    for identity in builtin_catalog():
        text = print_identity(identity.lhs, identity.rhs)
        parsed = parse_identity(text)
        assert parsed == (identity.lhs, identity.rhs, identity.required_root_order), identity.name


# --- random ASTs --------------------------------------------------------------

def _smart_negate(node):
    if isinstance(node, RationalConst):
        return RationalConst(-node.value)
    return Negate(node)


_atoms = st.one_of(
    st.sampled_from([
        A, B, Q, I, OMEGA,
        RootOfUnity(5, 2), RootOfUnity(8, 3), RootOfUnity(1, 0), RootOfUnity(6, 0),
    ]),
    st.builds(lambda n, d: RationalConst(Fraction(n, d)),
              st.integers(-9, 9), st.integers(1, 9)),
)


def _compound(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: ThetaCall(*t)),
        st.lists(children, min_size=2, max_size=3).map(lambda xs: Sum(tuple(xs))),
        st.lists(children, min_size=2, max_size=3).map(lambda xs: Product(tuple(xs))),
        st.tuples(children, st.integers(-3, 3)).map(lambda t: Power(*t)),
        children.map(_smart_negate),
        children.map(RealPart),
        children.map(ImagPart),
        children.map(SpecializeQ),
    )


ast_exprs = st.recursive(_atoms, _compound, max_leaves=10)


@given(ast_exprs)
@settings(max_examples=250, deadline=None)
def test_roundtrip_random_asts(ast):
    text = print_expr(ast)
    assert parse_expr(text)[0] == ast


@given(ast_exprs)
@settings(max_examples=100, deadline=None)
def test_print_is_stable_after_one_parse(ast):
    text = print_expr(ast)
    assert print_expr(parse_expr(text)[0]) == text


def _orders_by_recursion(node):
    """Every root order in the tree, and 4 under Re/Im: the reference for
    the order the parser reports as it reads the tree's printed text."""
    if isinstance(node, RootOfUnity):
        return {node.order}
    children = {
        Sum: lambda n: n.items, Product: lambda n: n.items,
        Power: lambda n: (n.base,), ThetaCall: lambda n: (n.first, n.second),
        Negate: lambda n: (n.item,), SpecializeQ: lambda n: (n.item,),
        RealPart: lambda n: (n.item,), ImagPart: lambda n: (n.item,),
    }.get(type(node), lambda n: ())(node)
    found = {4} if isinstance(node, (RealPart, ImagPart)) else set()
    for child in children:
        found |= _orders_by_recursion(child)
    return found


@given(ast_exprs, ast_exprs)
@settings(max_examples=200, deadline=None)
def test_required_order_is_lcm_of_orders(lhs, rhs):
    expected = math.lcm(1, *_orders_by_recursion(lhs), *_orders_by_recursion(rhs))
    assert parse_identity(print_identity(lhs, rhs))[2] == expected


# --- arbitrary text -------------------------------------------------------------

# The grammar's own characters, digits int() does not read, and a few others,
# so that generated text often gets past the scanner.
_GRAMMAR_TEXT = st.text(
    alphabet="ab qfiomegztRIspc()=,+-*/^0123456789\u00b2\u0663\u00e9\t", max_size=40)


@given(st.one_of(st.text(max_size=40), _GRAMMAR_TEXT))
@settings(max_examples=400, deadline=None)
def test_parsing_arbitrary_text_returns_or_raises_parse_error(text):
    for parse in (parse_expr, parse_identity):
        try:
            parse(text)
        except ParseError:
            pass


# Unicode whitespace (no-break, em and ideographic spaces, the separators
# U+001C-U+001F that str.isspace accepts), a superscript digit that isdigit
# accepts and int() does not, an Arabic-Indic digit that both accept, and a
# letter outside ASCII.
_SCANNER_TEXT = st.text(
    alphabet="ab f1/2(),^*=-+_\u00a0\u2003\u3000\u001c\u001f\u00b2\u0663\u00e9\u00bd!#",
    max_size=40)


def _assert_tokens_by(rule, tokens, text):
    """tokens, the (kind, text, offset) triples of text and then its end, are
    those of rule; where rule raises, they are up to the first token of no
    kind, whose offset it gives and whose first character its message names."""
    try:
        expected = list(rule(text))
    except ParseError as exc:
        index = next(k for k, (kind, _, _) in enumerate(tokens) if kind is None)
        _, tok, offset = tokens[index]
        assert (str(exc), exc.offset) == (
            "unexpected character %r at offset %d" % (tok[0], offset), offset)
        assert tokens[:index] + [("end", "", offset)] == list(rule(text[:offset]))
    else:
        assert tokens == expected


@given(st.one_of(st.text(max_size=40), _SCANNER_TEXT))
@settings(max_examples=400, deadline=None)
def test_tokenizer_matches_the_character_loop(text):
    spans = list(reference_spans(text))
    assert [(match.start(), match.group()) for match in _TOKEN.finditer(text)] == spans
    assert _scan(text) == [tok for _, tok in spans] + [""]
    tokens = [(_kind(tok), tok, offset) for offset, tok in spans + [(len(text), "")]]
    _assert_tokens_by(decimal_rule_tokens, tokens, text)
    # the str.isdigit loop the parser once read with splits text otherwise
    # only at a numeric character that is not decimal, such as '²' or '½'
    if not any(ch.isnumeric() and not ch.isdecimal() for ch in text):
        _assert_tokens_by(isdigit_rule_tokens, tokens, text)


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError:
        return None


# printed expressions joined by one, two or no '=' signs
_EQUATIONS = st.lists(st.builds(print_expr, ast_exprs), min_size=1, max_size=3).map(" = ".join)


@given(st.one_of(_GRAMMAR_TEXT, _SCANNER_TEXT, _EQUATIONS))
@settings(max_examples=400, deadline=None)
def test_an_identity_is_two_expressions_around_one_equals_sign(text):
    # the reference is a scan for '=' that splits the text before parsing
    halves = text.split("=")
    sides = [_parsed(parse_expr, half) for half in halves] if len(halves) == 2 else [None]
    if None in sides:
        assert _parsed(parse_identity, text) is None
    else:
        (lhs, lhs_order), (rhs, rhs_order) = sides
        assert parse_identity(text) == (lhs, rhs, math.lcm(lhs_order, rhs_order))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.offset, exc.expected


def _assert_as_the_reference(text):
    assert _outcome(parse_expr, text) == _outcome(reference_parse_expr, text)
    assert _outcome(parse_identity, text) == _outcome(reference_parse_identity, text)


@given(st.one_of(st.text(max_size=40), _GRAMMAR_TEXT, _SCANNER_TEXT, _EQUATIONS))
@settings(max_examples=400, deadline=None)
def test_the_parser_matches_the_parser_that_reads_each_token_when_it_asks(text):
    # the reference pulls each token from a lazy character loop, so its
    # errors are the first in reading order by construction
    _assert_as_the_reference(text)


# Printed expressions in other scripts: an ASCII digit may become the
# Arabic-Indic or fullwidth digit of the same value, and up to three spaces,
# superscript twos, vulgar halves, Roman numeral eights or letters outside
# ASCII go in anywhere.
_DIGITS = {str(d): st.sampled_from((str(d), chr(0x660 + d), chr(0xFF10 + d))) for d in range(10)}
_INSERTS = st.lists(st.tuples(st.integers(0, 200), st.sampled_from(
    " \u00a0\u3000\u00b2\u00bd\u2167\u00e9")), max_size=3)


@st.composite
def _unicode_text(draw):
    chars = [draw(_DIGITS.get(ch, st.just(ch))) for ch in draw(_EQUATIONS)]
    for index, ch in draw(_INSERTS):
        chars.insert(index, ch)
    return "".join(chars)


@given(st.one_of(st.text(max_size=40), _GRAMMAR_TEXT, _SCANNER_TEXT, _EQUATIONS, _unicode_text()))
@settings(max_examples=400, deadline=None)
def test_the_language_is_the_one_the_isdigit_loop_read(text):
    # the parser read each token from the str.isdigit loop before it read
    # every text with one regular expression: only the wording or offset of
    # some parse errors on a numeric character that is not decimal changed
    for parse, reference in ((parse_expr, reference_parse_expr),
                             (parse_identity, reference_parse_identity)):
        expected = _parsed(lambda t: reference(t, isdigit_rule_tokens), text)
        if expected is None:
            with pytest.raises(ParseError):
                parse(text)
        else:
            assert parse(text) == expected


@pytest.mark.parametrize("text, message", [
    ("1\u00b2*a", "unexpected integer '\u00b2' after expression (expected: end) at offset 1"),
    ("\u00b2a", "unexpected character '\u00b2' at offset 0"),
    ("\u00bda", "unexpected character '\u00bd' at offset 0"),
    ("\u2167x", "unexpected character '\u2167' at offset 0"),
    ("a 12\u00b2", "unexpected integer '12' after expression (expected: end) at offset 2"),
])
def test_parse_errors_at_a_numeric_character_that_is_not_decimal(text, message):
    # the str.isdigit loop read "1²" and "²a" as one integer that is not
    # decimal, "½a" as the character '½' before the name 'a', and "12²" as one
    # integer; a word that starts with a character of no kind is named by
    # that character alone
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", [
    "a^2^!", "a^-!", "zeta(3,1", "zeta(\u00b2!", "f(a,b) = f(b,a) !", "a\u00a0=\u3000b\u001c",
])
def test_the_parser_matches_the_reference_at_the_edges(text):
    _assert_as_the_reference(text)


@pytest.mark.parametrize("tail", ["a", "!", "\u00e9", " = !", "a" + ")" * MAX_NESTING],
                         ids=["letter", "bad", "non-ascii", "bad-right-side", "closed"])
def test_the_nesting_cap_matches_the_reference(tail):
    # the cap is checked before the lookahead is read, which here may be a
    # character no token starts with
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        _assert_as_the_reference("(" * depth + tail)


# A check on a token already read, with a character no token starts with
# after it: the whole text is scanned before the parser starts, but the error
# is still the first in reading order.
@pytest.mark.parametrize("text, message", [
    ("zeta(0,1)!*a", "root order must be >= 1 at offset 5"),
    ("1/0!", "zero denominator at offset 2"),
    ("a^\u00b2", "integer literal is not decimal at offset 2"),
    ("zeta(3,1)*a $", "unexpected character '$' at offset 12"),
])
def test_a_parse_error_is_the_first_in_reading_order(text, message):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, offset", [
    ("a^\u00b2", 2),
    ("\u00b2/3", 0),
    ("1/\u00b2", 2),
    ("zeta(\u00b9,1)", 5),
    ("zeta(3,\u00b2)", 7),
])
def test_non_decimal_digits_are_parse_errors(text, offset):
    with pytest.raises(ParseError) as info:
        parse_expr(text)[0]
    assert info.value.offset == offset
    assert "not decimal" in str(info.value)


@pytest.mark.parametrize("template", ["{}", "a^{}", "1/{}", "zeta({},1)", "zeta(3,{})"])
def test_over_long_integer_literals_are_parse_errors(template):
    with pytest.raises(ParseError, match="too many digits"):
        parse_expr(template.format("1" * 5000))[0]


def test_decimal_digits_of_other_scripts_read_as_integers():
    assert parse_expr("\u0663*a")[0] == Product((RationalConst(Fraction(3)), A))
