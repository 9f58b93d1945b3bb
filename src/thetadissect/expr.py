"""AST for the identity language.

Nodes are read-only records (record.py), so structural equality is ==, and
nodes of one field layout but different kinds (Negate and RealPart, Sum and
Product) are never equal. `Expr`, the type of a node in annotations, is
`Record` itself: every node is one. Sums and products hold two or more
items (sum_of and product_of take any number); Power exponents are plain
Python ints and may be negative. The working order an expression needs is
reported by the parser (exprlang), not computed here.
"""
from __future__ import annotations

from fractions import Fraction

from .record import Record, set_field

Expr = Record


class _Nary(Record):
    """A node of two or more items: the field layout of Sum and Product."""
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        if len(items) < 2:
            raise ValueError(self._too_few)
        set_field(self, "items", items)


class Sum(_Nary):
    __slots__ = ()
    _too_few = "Sum needs at least two items; use sum_of()"


class Product(_Nary):
    __slots__ = ()
    _too_few = "Product needs at least two items; use product_of()"


class Power(Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        set_field(self, "base", base)
        set_field(self, "exponent", exponent)


class ThetaCall(Record):
    __slots__ = ("first", "second")

    def __init__(self, first: Expr, second: Expr):
        set_field(self, "first", first)
        set_field(self, "second", second)


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in ("a", "b", "q"):
            raise ValueError("variable must be one of a, b, q")
        set_field(self, "name", name)


class RootOfUnity(Record):
    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int):
        if order < 1:
            raise ValueError("root order must be >= 1")
        set_field(self, "order", order)
        set_field(self, "exponent", exponent % order)


class RationalConst(Record):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        set_field(self, "value", Fraction(value))


class _Unary(Record):
    """A node of one item: the field layout of the four kinds below."""
    __slots__ = ("item",)

    def __init__(self, item: Expr):
        set_field(self, "item", item)


class Negate(_Unary):
    __slots__ = ()


class RealPart(_Unary):
    __slots__ = ()


class ImagPart(_Unary):
    __slots__ = ()


class SpecializeQ(_Unary):
    __slots__ = ()


def sum_of(items) -> Expr:
    items = tuple(items)
    if not items:
        return RationalConst(Fraction(0))
    if len(items) == 1:
        return items[0]
    return Sum(items)


def product_of(items) -> Expr:
    items = tuple(items)
    if not items:
        return RationalConst(Fraction(1))
    if len(items) == 1:
        return items[0]
    return Product(items)


def b_as_q(node: Expr) -> Expr:
    """node with every b read as q: the image of a, b -> q, a ring
    homomorphism that keeps the total degree of every term."""
    if isinstance(node, Var):
        return Var("q") if node.name == "b" else node
    if isinstance(node, _Nary):
        return type(node)(tuple(b_as_q(item) for item in node.items))
    if isinstance(node, Power):
        return Power(b_as_q(node.base), node.exponent)
    if isinstance(node, ThetaCall):
        return ThetaCall(b_as_q(node.first), b_as_q(node.second))
    if isinstance(node, _Unary):
        return type(node)(b_as_q(node.item))
    return node
