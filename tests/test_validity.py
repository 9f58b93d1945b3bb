"""The validity calculus over the whole grammar: a series evaluated at degree
D claims to be exact through its validity V, so evaluating the same text
again at a higher degree must give a validity of at least V and the same
coefficients through V.

This checks the engine against itself, so it finds a rule that claims more
than it keeps, not an error both evaluations share. The second degree is
max(D, V) + 12 and not V + 12: V can lie far below D, and a lower degree
gives a lower validity ((f(a^-2*b^-3, a^3*b^3))^2 has validity -15 at
degree 0 and -18 at degree -3).
"""
from hypothesis import assume, given, settings, strategies as st

from thetadissect.catalog import evaluate
from thetadissect.errors import EngineError
from thetadissect.exprlang import parse_expr

_COEFFICIENTS = st.sampled_from(
    ["1", "-1", "2", "1/2", "-3/2", "i", "-i", "omega", "zeta(8,3)"])
_EXPONENTS = st.integers(-3, 3)

_MONOMIALS = st.builds("{}*a^{}*b^{}".format, _COEFFICIENTS, _EXPONENTS, _EXPONENTS)
_THETA_CALLS = st.builds("f({}, {})".format, _MONOMIALS, _MONOMIALS)

_TEXTS = st.recursive(st.one_of(_MONOMIALS, _THETA_CALLS), lambda children: st.one_of(
    st.builds("({} + {})".format, children, children),
    st.builds("({})*({})".format, children, children),
    st.builds("-({})".format, children),
    st.builds("({})^{}".format, children, st.integers(2, 3)),
    st.builds("Re({})".format, children),
    st.builds("Im({})".format, children),
    st.builds("specq({})".format, children),
), max_leaves=6)


@given(_TEXTS, st.integers(0, 8))
@settings(max_examples=1000, deadline=None)
def test_a_higher_degree_agrees_through_the_validity_it_was_given(text, degree):
    node, order = parse_expr(text)
    try:
        first = evaluate(node, degree, order)
        second = evaluate(node, max(degree, first.validity) + 12, order)
    except EngineError:
        assume(False)
    assert second.validity >= first.validity
    assert first.first_mismatch(second, first.validity) is None
