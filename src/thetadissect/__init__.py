"""thetadissect: exact q-series engine for Ramanujan theta dissections.

Expands the two-variable theta kernel f(a, b) as truncated bivariate Laurent
series over cyclotomic number fields, and verifies root-of-unity dissection
identities (even/odd split, cubic, quartic, and the general modulus-m
transformation) coefficient-by-coefficient with exact rational arithmetic.
"""

from .cyclotomic import CycloNum, cyclotomic_polynomial, euler_phi, zeta_power
from .laurent import LaurentSeries, Mismatch, Monomial, ScaledMonomial
from .theta import ThetaArgs, pochhammer_expand, theta_expand, triple_product_rhs
from .dissect import closed_form_parts, dissect_closed, dissect_filter
from .expr import (
    ImagPart, Negate, Power, Product, RationalConst, RealPart, RootOfUnity,
    SpecializeQ, Sum, ThetaCall, Var, product_of, rational, required_order, sum_of,
)
from .exprlang import parse_expr, parse_identity, print_expr, print_identity, tokenize
from .catalog import (
    Identity,
    Report,
    builtin_catalog,
    catalog_by_name,
    evaluate,
    fold_scaled_monomial,
    get_identity,
    make_identity,
    summarize,
    transformation_identity,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    # cyclotomic
    "CycloNum", "cyclotomic_polynomial", "euler_phi", "zeta_power",
    # laurent
    "LaurentSeries", "Mismatch", "Monomial", "ScaledMonomial",
    # theta
    "ThetaArgs", "theta_expand", "pochhammer_expand", "triple_product_rhs",
    # dissect
    "closed_form_parts", "dissect_filter", "dissect_closed",
    # expression language
    "Sum", "Product", "Power", "ThetaCall", "Var", "RootOfUnity",
    "RationalConst", "Negate", "RealPart", "ImagPart", "SpecializeQ",
    "sum_of", "product_of", "rational", "required_order",
    "parse_expr", "parse_identity", "print_expr", "print_identity", "tokenize",
    # catalog
    "Identity", "Report", "builtin_catalog", "catalog_by_name", "evaluate",
    "fold_scaled_monomial", "get_identity", "make_identity", "summarize",
    "transformation_identity", "verify_identity",
    "__version__",
]
