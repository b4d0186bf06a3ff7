"""Exact-arithmetic V-filtration / minimal-exponent laboratory for monomial
SNC divisors: divisor combinatorics, the right module B_g with its V- and
Hodge filtrations, twisted relative-log-form Koszul complexes, graded de Rham
complexes of nearby cycles, and the verification harness tying them together.
"""

from .rationals import INF, Infinity, InputError, VerificationError, parse_rational, format_rational
from .divisors import (
    SncDivisor,
    ResolutionNumerics,
    lct_from_resolution,
    jump_candidates,
)
from .weyl import MonomialModel, BgElement, WeylOperator, act_right, compose, multidegree

__all__ = [
    "INF",
    "Infinity",
    "InputError",
    "VerificationError",
    "parse_rational",
    "format_rational",
    "SncDivisor",
    "ResolutionNumerics",
    "lct_from_resolution",
    "jump_candidates",
    "MonomialModel",
    "BgElement",
    "WeylOperator",
    "act_right",
    "compose",
    "multidegree",
]

__version__ = "0.1.0"
