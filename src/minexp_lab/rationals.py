"""Exact rational scalars, plus a first-class infinity.

All arithmetic in this package is exact: scalars are ints or
``fractions.Fraction`` (never floats), and the single extra value ``INF``
compares greater than every finite rational.  ``INF`` only ever shows up as
the minimal exponent of a smooth model; it supports ordering and
serialization, nothing else.

``exact_rank`` is the package's one exact-rank routine (Koszul core
cohomology, de Rham complexes, the t-shift injectivity check); it works
fraction-free on rows scaled to integers by ``integer_row``.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Infinity:
    """Positive infinity for the total order on exact rationals."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("minexp_lab.INF")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, Infinity)

    def __gt__(self, other):
        return not isinstance(other, Infinity)

    def __ge__(self, other):
        return True


INF = Infinity()


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 1)."""


class VerificationError(AssertionError):
    """An exact identity the artifact is supposed to certify failed."""


def parse_rational(text):
    """Parse "p/q", an integer string, or "inf"."""
    s = text.strip()
    if s == "inf":
        return INF
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def format_rational(x) -> str:
    if isinstance(x, Infinity):
        return "inf"
    return str(Fraction(x))


def integer_row(row):
    """A sparse row {key: int or Fraction} scaled to coprime integers, zero
    entries dropped; it spans the same line."""
    den = math.lcm(*[c.denominator for c in row.values()])
    out = {k: c.numerator * (den // c.denominator) for k, c in row.items() if c}
    g = math.gcd(*out.values())
    return {k: c // g for k, c in out.items()} if g > 1 else out


def exact_rank(rows):
    """Exact rank of a sparse matrix given as row dicts {column: entry} with
    int or Fraction entries and mutually comparable column keys.

    Fraction-free: every row is scaled to coprime integers once; an
    elimination step replaces a row by piv*row - row[col]*pivot_row, which
    keeps it in the same row space, and a gcd reduction keeps the entries
    small.
    """
    rows = [r for r in map(integer_row, rows) if r]
    rank = 0
    while rows:
        row = rows.pop()
        col = min(row)
        piv = row[col]
        rank += 1
        nxt = []
        for other in rows:
            v = other.get(col)
            if v:
                other = {c: piv * x for c, x in other.items()}
                for c, rv in row.items():
                    s = other.get(c, 0) - v * rv
                    if s:
                        other[c] = s
                    else:
                        other.pop(c, None)
                g = math.gcd(*other.values())
                if g > 1:
                    other = {c: x // g for c, x in other.items()}
            if other:
                nxt.append(other)
        rows = nxt
    return rank
