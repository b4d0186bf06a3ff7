"""Combinatorics of divisors supported on a simple normal crossing divisor.

An ``SncDivisor`` is just an integer coefficient vector over named components
E_1..E_N.  For a divisor D with positive multiplicities a_i, the two
round-ups that drive everything downstream are

    D_alpha  = ceil(alpha * D)            (componentwise)
    D_>alpha = floor(alpha * D) + E       (= D_{alpha+eps} for small eps > 0)

and the log canonical threshold from resolution numerics (a_i, k_i) is
min_i (k_i + 1)/a_i.  The jumping values of alpha |-> D_alpha are the
rationals j/a_i, which is also where the V-filtration can jump.

The candidates are enumerated integer-exactly: the window ends are taken
apart once into (numerator, denominator), the first j above a bound is one
floor division (_above, shared by jump_candidates and next_candidate), and
each j/a_i is the integer key j * (L // a_i) over the lcm L of the positive
multiplicities, so deduplication and order are on ints and one Fraction is
built per distinct output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .rationals import FrozenRecord, InputError, int_tuple


class SncDivisor(FrozenRecord):
    """Integer coefficients over the components E_1..E_N."""

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", int_tuple(coeffs, "divisor coefficients"))

    def __len__(self):
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __add__(self, other):
        if len(other) != len(self):
            raise InputError("component count mismatch")
        return SncDivisor(a + b for a, b in zip(self.coeffs, other))

    def __le__(self, other):
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))


class ResolutionNumerics(FrozenRecord):
    """Pairs (a_i, k_i): multiplicity of E_i in the pulled-back divisor and
    in the relative canonical divisor."""

    _fields = ("pairs",)

    def __init__(self, pairs):
        bad = InputError(
            f"resolution numerics must be integer pairs [[a_i, k_i], ...], got {pairs!r}"
        )
        try:
            pairs = tuple(int_tuple(pair, "a resolution pair") for pair in pairs)
        except TypeError as exc:
            raise bad from exc
        if any(len(pair) != 2 for pair in pairs):
            raise bad
        if not pairs:
            raise InputError("resolution numerics must be nonempty")
        for a, k in pairs:
            if a < 1:
                raise InputError(f"multiplicity a_i must be >= 1, got {a}")
            if k < 0:
                raise InputError(f"discrepancy k_i must be >= 0, got {k}")
        object.__setattr__(self, "pairs", pairs)


def lct_from_resolution(res) -> Fraction:
    """min_i (k_i+1)/a_i over the resolution components."""
    if not isinstance(res, ResolutionNumerics):
        res = ResolutionNumerics(res)
    return min(Fraction(k + 1, a) for a, k in res.pairs)


def _ratio(x):
    """(numerator, denominator > 0) of the rational x: an int, Fraction, float
    or Decimal is taken apart in place, anything else through Fraction."""
    try:
        return x.as_integer_ratio()
    except AttributeError:
        return Fraction(x).as_integer_ratio()


def _over_lcm(D):
    """(L, [(a, L // a)]) over the positive multiplicities a of D, with L
    their lcm: the candidate j/a is the integer key j * (L // a) over L."""
    pos = [a for a in D if a > 0]
    L = math.lcm(*pos)
    return L, [(a, L // a) for a in pos]


def _above(num, den, a):
    """The least j with j/a > num/den."""
    return num * a // den + 1


def jump_candidates(D: SncDivisor, lo, hi) -> list:
    """All values j/a_i in (lo, hi], deduplicated and ascending."""
    (ln, ld), (hn, hd) = _ratio(lo), _ratio(hi)
    if not 0 <= ln * hd < hn * ld:
        raise InputError(f"need 0 <= lo < hi, got ({Fraction(ln, ld)}, {Fraction(hn, hd)}]")
    L, steps = _over_lcm(D)
    keys = set()
    for a, s in steps:
        keys.update(range(_above(ln, ld, a) * s, _above(hn, hd, a) * s, s))
    return [Fraction(k, L) for k in sorted(keys)]


@lru_cache(maxsize=256)
def next_candidate(D: SncDivisor, alpha) -> Fraction:
    """Smallest jump candidate strictly above alpha."""
    num, den = _ratio(alpha)
    L, steps = _over_lcm(D)
    return Fraction(min(_above(num, den, a) * s for a, s in steps), L)
