"""Combinatorics of divisors supported on a simple normal crossing divisor.

An ``SncDivisor`` is just an integer coefficient vector over named components
E_1..E_N.  For a divisor D with positive multiplicities a_i, the two
round-ups that drive everything downstream are

    D_alpha  = ceil(alpha * D)            (componentwise)
    D_>alpha = floor(alpha * D) + E       (= D_{alpha+eps} for small eps > 0)

and the log canonical threshold from resolution numerics (a_i, k_i) is
min_i (k_i + 1)/a_i.  The jumping values of alpha |-> D_alpha are the
rationals j/a_i, which is also where the V-filtration can jump.
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

    def __getitem__(self, i):
        return self.coeffs[i]

    def __add__(self, other):
        if len(other) != len(self):
            raise InputError("component count mismatch")
        return SncDivisor(a + b for a, b in zip(self.coeffs, other))

    def __le__(self, other):
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def to_json(self):
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise InputError("divisor JSON must be {\"coeffs\": [...]}")
        return cls(obj["coeffs"])


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


def jump_candidates(D: SncDivisor, lo, hi) -> list:
    """All values j/a_i in (lo, hi], deduplicated and ascending."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 <= lo < hi:
        raise InputError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    out = set()
    for a in D:
        if a <= 0:
            continue
        j = math.floor(lo * a) + 1
        while Fraction(j, a) <= hi:
            c = Fraction(j, a)
            if c > lo:
                out.add(c)
            j += 1
    return sorted(out)


@lru_cache(maxsize=256)
def next_candidate(D: SncDivisor, alpha) -> Fraction:
    """Smallest jump candidate strictly above alpha."""
    alpha = Fraction(alpha)
    return min(Fraction(math.floor(alpha * a) + 1, a) for a in D if a > 0)
