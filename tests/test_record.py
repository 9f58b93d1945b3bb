"""The engine's immutable values share one base (record.py): equality and
hash by (class, fields), read-only fields, each class's own signature,
defaults and checks, and the repr, copy and pickle they had as frozen
dataclasses."""
import copy
import pickle
from fractions import Fraction

import pytest

from thetadissect.catalog import Identity, Report, verify_identity
from thetadissect.cyclotomic import CycloNum
from thetadissect.errors import NonConvergent
from thetadissect.expr import (
    ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity, SpecializeQ, Sum,
    ThetaCall, Var,
)
from thetadissect.exprlang import parse_identity
from thetadissect.laurent import LaurentSeries, Mismatch, Monomial, ScaledMonomial
from thetadissect.record import Record
from thetadissect.theta import ThetaArgs

A, B = Var("a"), Var("b")
X = ScaledMonomial(1, 0, 1, Monomial(1, 0))
Y = ScaledMonomial(1, 0, 1, Monomial(0, 1))
SERIES = LaurentSeries({Monomial(0, 0): CycloNum(1, (1,))}, 3, 1)

# one instance of every record class of the engine
SAMPLES = [
    Sum((A, B)), Product((A, B)), Power(A, 2), ThetaCall(A, B), A, RootOfUnity(4, 1),
    RationalConst(Fraction(1, 2)), Negate(A), RealPart(A), ImagPart(A), SpecializeQ(A),
    CycloNum(4, (1, 2), 3), X, SERIES, ThetaArgs(X, Y),
    Identity("id", A, A, 1, "ref"),
    Report("id", "ref", 3, "verified", None, 1, 1, 0.5, None, SERIES, SERIES, None),
]


def test_every_record_class_has_a_sample():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    concrete = {cls for cls in subclasses(Record) if not cls.__name__.startswith("_")}
    assert {type(sample) for sample in SAMPLES} == concrete
    assert len(SAMPLES) == 17


@pytest.mark.parametrize("kinds, field", [
    ((RealPart, ImagPart, Negate, SpecializeQ), A),
    ((Sum, Product), (A, B)),
])
def test_equality_and_hash_depend_on_the_class_of_one_field_layout(kinds, field):
    nodes = [kind(field) for kind in kinds]
    for i, left in enumerate(nodes):
        assert left == kinds[i](field) and hash(left) == hash(kinds[i](field))
        for right in nodes[i + 1:]:
            assert left != right and not left == right
    assert len(set(nodes)) == len(kinds)
    assert {node: kind for node, kind in zip(nodes, kinds)}[kinds[-1](field)] is kinds[-1]


def test_a_record_never_equals_a_tuple_of_its_fields():
    assert Power(A, 2) != (A, 2) and CycloNum(1, (1,)) != (1, (1,), 1)
    assert Var("a") != "a"


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_fields_refuse_assignment_and_deletion(sample):
    name = type(sample)._fields[0]
    before = getattr(sample, name)
    with pytest.raises(AttributeError):
        setattr(sample, name, before)
    with pytest.raises(AttributeError):
        delattr(sample, name)
    with pytest.raises(AttributeError):
        sample.unknown = 1
    assert getattr(sample, name) is before
    assert not hasattr(sample, "__dict__")


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_copy_and_pickle_rebuild_an_equal_record(sample):
    for twin in (copy.copy(sample), copy.deepcopy(sample), pickle.loads(pickle.dumps(sample))):
        assert type(twin) is type(sample) and twin == sample


def test_positional_and_keyword_construction_with_defaults():
    assert CycloNum(4, (2, 4), 2) == CycloNum(order=4, nums=(1, 2)) == CycloNum(4, (1, 2), den=1)
    assert CycloNum(4, (1, 2)).den == 1
    assert CycloNum(4, (2, -4), -6).nums == (-1, 2) and CycloNum(4, (2, -4), -6).den == 3
    mono = Monomial(1, 0)
    assert ScaledMonomial(1, 0, 1, mono) == ScaledMonomial(ratio=1, exponent=0, order=1, mono=mono)
    half_turn = ScaledMonomial(-3, 1, 4, mono)
    assert (half_turn.ratio, half_turn.exponent) == (3, 3)
    assert RootOfUnity(order=4, exponent=5) == RootOfUnity(4, 1) and RootOfUnity(4, -1).exponent == 3
    assert RationalConst(2).value == Fraction(2) and type(RationalConst(2).value) is Fraction
    assert Power(base=A, exponent=-2) == Power(A, -2)
    assert ThetaCall(first=A, second=B) == ThetaCall(A, B)
    assert Negate(item=A) == Negate(A) and Sum(items=(A, B)) == Sum((A, B))
    assert LaurentSeries(terms={}, validity=2, order=1) == LaurentSeries.zero(2)
    assert ThetaArgs(first=X, second=Y) == ThetaArgs(X, Y)
    assert Identity(name="n", lhs=A, rhs=B, required_root_order=1, paper_ref="r") == \
        Identity("n", A, B, 1, "r")
    report = Report("n", "r", 3, "verified", None, 1, 1, 0.5)
    assert (report.error, report.lhs, report.rhs, report.exception) == (None, None, None, None)


@pytest.mark.parametrize("build, error", [
    (lambda: Sum((A,)), ValueError),
    (lambda: Product(()), ValueError),
    (lambda: Var("c"), ValueError),
    (lambda: RootOfUnity(0, 1), ValueError),
    (lambda: CycloNum(4, (1,)), ValueError),
    (lambda: CycloNum(1, (1,), 0), ZeroDivisionError),
    (lambda: ScaledMonomial(0, 0, 1, Monomial(1, 0)), ValueError),
    (lambda: ThetaArgs(X, ScaledMonomial(1, 0, 1, Monomial(-1, 0))), NonConvergent),
    (lambda: CycloNum(4), TypeError),
    (lambda: Report("n", "r", 3, "verified", None, 1, 1), TypeError),
])
def test_construction_keeps_each_class_s_checks(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("kind, message", [
    (Sum, "Sum needs at least two items; use sum_of()"),
    (Product, "Product needs at least two items; use product_of()"),
])
@pytest.mark.parametrize("count", [0, 1])
def test_an_n_ary_node_refuses_fewer_than_two_items(kind, message, count):
    with pytest.raises(ValueError) as raised:
        kind((A,) * count)
    assert str(raised.value) == message


def test_monomial_and_mismatch_stay_named_tuples():
    # tuple equality and hash keep a Monomial a C-speed dict key
    mono = Monomial(1, -2)
    mismatch = Mismatch(mono, CycloNum(1, (1,)), CycloNum(1, (2,)))
    assert mono == (1, -2) and hash(mono) == hash((1, -2)) and (mono.p, mono.q) == (1, -2)
    assert repr(mono) == "Monomial(p=1, q=-2)"
    assert repr(mismatch) == ("Mismatch(monomial=Monomial(p=1, q=-2),"
                              " left=CycloNum(order=1, nums=(1,), den=1),"
                              " right=CycloNum(order=1, nums=(2,), den=1))")
    for value in (mono, mismatch):
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and type(twin) is type(value) and isinstance(value, tuple)


def test_repr_spells_every_compared_field_as_before():
    assert repr(Var("a")) == "Var(name='a')"
    assert repr(Negate(Var("a"))) == "Negate(item=Var(name='a'))"
    assert repr(CycloNum(1, (3,), 2)) == "CycloNum(order=1, nums=(3,), den=2)"
    assert repr(X) == "ScaledMonomial(ratio=1, exponent=0, order=1, mono=Monomial(p=1, q=0))"
    assert repr(SAMPLES[-1]) == (
        "Report(name='id', paper_ref='ref', degree=3, status='verified', first_mismatch=None,"
        " lhs_terms=1, rhs_terms=1, millis=0.5, error=None)")


def test_report_equality_and_repr_leave_out_the_series_and_the_exception():
    lhs, rhs, _ = parse_identity("f(a,b) = f(a,b) + a")
    failed = verify_identity(Identity("user", lhs, rhs, 1, "negative control"), 5)
    assert failed.lhs is not None and failed.first_mismatch is not None
    fields = [getattr(failed, name) for name in Report.__slots__[:9]]
    bare = Report(*fields)
    assert bare == failed and hash(bare) == hash(failed)
    assert repr(bare) == repr(failed)
    assert "lhs=" not in repr(failed) and "LaurentSeries" not in repr(failed)
    assert Report(*fields[:8], "another error") != failed
    assert isinstance(failed.first_mismatch, Mismatch)
