"""Exact rational scalars, plus a first-class infinity.

All arithmetic in this package is exact: scalars are ints or
``fractions.Fraction`` (never floats), and the single extra value ``INF``
compares greater than every finite rational.  ``INF`` only ever shows up as
the minimal exponent of a smooth model; it supports ordering and
serialization, nothing else.

``exact_rank`` is the package's one exact-rank routine, and ``cohomology``
on top of it its one cohomology routine; ``exact_rank`` works fraction-free
on rows scaled to integers by ``integer_row``, by the same ``eliminate``
step that V-membership reduces with.  ``wedge`` is the one sign rule of the
wedge complexes those routines rank: the Koszul cores, the de Rham
complexes and the operator-level Koszul complex.

``Record`` and ``FrozenRecord`` are the package's value-class base: the
field-wise equality, repr and (frozen) hash of a dataclass, without the cost
of importing ``dataclasses`` on every cold start of the CLI.
"""

from __future__ import annotations

import bisect
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


class Record:
    """A plain value class.  A subclass names its compared fields in
    `_fields`; an instance equals another of the same class field by field,
    is unhashable, and reprs as Name(field=value, ...)."""

    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"


class FrozenRecord(Record):
    """A Record hashed by its fields that refuses assignment; its __init__
    sets the fields through object.__setattr__."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class InputError(ValueError):
    """Malformed or out-of-contract input (CLI exit code 1)."""


class VerificationError(AssertionError):
    """An exact identity the artifact is supposed to certify failed."""


def int_tuple(values, what):
    """values as a tuple of plain ints; text, a bool, a float or a
    non-iterable is an InputError, never coerced."""
    if not isinstance(values, str):
        try:
            out = tuple(values)
        except TypeError:
            out = None
        if out is not None and all(
            isinstance(x, int) and not isinstance(x, bool) for x in out
        ):
            return out
    raise InputError(f"{what}: expected integers, got {values!r}")


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


def eliminate(row, pivot_row, col):
    """piv*row - row[col]*pivot_row with piv = pivot_row[col], zero entries
    dropped and divided by the gcd of the rest: the one fraction-free
    elimination step on integer sparse rows.  It clears `col` and keeps
    `row` in the span of the two rows, and it is empty exactly when `row`
    is a multiple of `pivot_row`."""
    piv, v = pivot_row[col], row[col]
    out = {c: piv * x for c, x in row.items()}
    for c, pv in pivot_row.items():
        s = out.get(c, 0) - v * pv
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    g = math.gcd(*out.values())
    return {c: x // g for c, x in out.items()} if g > 1 else out


def exact_rank(rows):
    """Exact rank of a sparse matrix given as row dicts {column: entry} with
    int or Fraction entries and mutually comparable column keys.

    Fraction-free: every row is scaled to coprime integers once, and each
    pivot clears its column from the other rows by `eliminate`.
    """
    rows = [r for r in map(integer_row, rows) if r]
    rank = 0
    while rows:
        row = rows.pop()
        col = min(row)
        rank += 1
        nxt = []
        for other in rows:
            if other.get(col):
                other = eliminate(other, row, col)
            if other:
                nxt.append(other)
        rows = nxt
    return rank


def cohomology(sizes, maps) -> dict:
    """{degree: dim}, the nonzero cohomology dims of a bounded complex whose
    term q has sizes[q] basis vectors, in degree q - len(sizes) + 1, and
    maps[q] the sparse rows of its map to term q + 1; each map between two
    nonzero terms is ranked once by exact_rank."""
    ranks = [exact_rank(rows) if sizes[q] and sizes[q + 1] else 0 for q, rows in enumerate(maps)]
    ranks = [0, *ranks, 0]  # the maps into and out of term q have ranks[q], ranks[q + 1]
    top = len(sizes) - 1
    dims = (size - ranks[q] - ranks[q + 1] for q, size in enumerate(sizes))
    return {q - top: dim for q, dim in enumerate(dims) if dim}


def wedge(S, k):
    """(T, sign) with e_k ^ e_S = sign e_T: S a sorted tuple without k, T
    the sorted tuple S with k inserted, and sign (-1)^(the number of
    members of S below k), the parity of k's position in T."""
    i = bisect.bisect_left(S, k)
    return S[:i] + (k,) + S[i:], -1 if i % 2 else 1
