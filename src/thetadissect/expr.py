"""AST for the identity language.

Nodes are frozen dataclasses, so structural equality is ==. Sums and products
are n-ary (n >= 2 when built through the helpers below); Power exponents are
plain Python ints and may be negative. The working order an expression
needs is reported by the parser (exprlang), not computed here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Expr = Union[
    "Sum", "Product", "Power", "ThetaCall", "Var", "RootOfUnity",
    "RationalConst", "Negate", "RealPart", "ImagPart", "SpecializeQ",
]


@dataclass(frozen=True)
class Sum:
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("Sum needs at least two items; use sum_of()")


@dataclass(frozen=True)
class Product:
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("Product needs at least two items; use product_of()")


@dataclass(frozen=True)
class Power:
    base: Expr
    exponent: int


@dataclass(frozen=True)
class ThetaCall:
    first: Expr
    second: Expr


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if self.name not in ("a", "b", "q"):
            raise ValueError("variable must be one of a, b, q")


@dataclass(frozen=True)
class RootOfUnity:
    order: int
    exponent: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("root order must be >= 1")
        object.__setattr__(self, "exponent", self.exponent % self.order)


@dataclass(frozen=True)
class RationalConst:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Negate:
    item: Expr


@dataclass(frozen=True)
class RealPart:
    item: Expr


@dataclass(frozen=True)
class ImagPart:
    item: Expr


@dataclass(frozen=True)
class SpecializeQ:
    item: Expr


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
    if isinstance(node, (Sum, Product)):
        return type(node)(tuple(b_as_q(item) for item in node.items))
    if isinstance(node, Power):
        return Power(b_as_q(node.base), node.exponent)
    if isinstance(node, ThetaCall):
        return ThetaCall(b_as_q(node.first), b_as_q(node.second))
    if isinstance(node, (Negate, RealPart, ImagPart, SpecializeQ)):
        return type(node)(b_as_q(node.item))
    return node
