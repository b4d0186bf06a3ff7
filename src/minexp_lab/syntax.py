"""The textual syntax of elements and operators:

    element term (parsed and formatted):  "3/2 y^(1,0) dy dt^2 delta"
    operator term (formatted):            "y1^2 d1 dt"  /  "-1/2 t^2 d2"  /  "1"

parse_element reads the vfilt command's --element; format_element and
format_operator write the BgElement and WeylOperator reprs, which import
them when they are called.  Only those calls import this module.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rationals import InputError
from .weyl import BgElement, WeylOperator


_VEC_RE = re.compile(r"^y\^\(([-0-9,\s]*)\)$")
_DT_RE = re.compile(r"^dt(?:\^(\d+))?$")


def _split_terms(text):
    """Split on top-level '+' (terms may carry their own leading '-')."""
    parts = [p.strip() for p in text.replace("−", "-").split("+")]
    return [p for p in parts if p]


def parse_element(text, n) -> BgElement:
    """Each term holds dy and delta once, and at most one coefficient, one
    exponent vector and one dt token; a repeated or malformed token is an
    InputError, never dropped or overwritten."""
    terms = {}
    for part in _split_terms(text):
        coeff = Fraction(1)
        v = (0,) * n
        m = 0
        seen = set()
        for tok in part.split():
            if tok in ("dy", "delta"):
                kind = tok
            elif (mt := _VEC_RE.match(tok)) is not None:
                kind = "exponent vector"
                try:  # a blank entry or a sign with no digits is no int
                    v = tuple(int(s) for s in mt.group(1).split(","))
                except ValueError as exc:
                    raise InputError(f"cannot parse element token {tok!r}") from exc
                if len(v) != n:
                    raise InputError(f"exponent vector {tok} has length {len(v)}, expected {n}")
            elif (mt := _DT_RE.match(tok)) is not None:
                kind = "dt"
                m = int(mt.group(1) or 1)
            else:
                kind = "coefficient"
                try:
                    coeff = Fraction(tok)
                except (ValueError, ZeroDivisionError) as exc:
                    raise InputError(f"cannot parse element token {tok!r}") from exc
            if kind in seen:
                raise InputError(f"element term {part!r} has a second {kind}")
            seen.add(kind)
        if not {"dy", "delta"} <= seen:
            raise InputError(f"element term {part!r} must contain 'dy' and 'delta'")
        key = (v, m)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return BgElement(n, terms)


def format_element(u: BgElement) -> str:
    if u.is_zero():
        return "0"
    bits = []
    for (v, m), c in u.sorted_terms():
        toks = []
        if c != 1:
            toks.append(str(c))
        if any(v):
            toks.append("y^(" + ",".join(str(x) for x in v) + ")")
        toks.append("dy")
        if m == 1:
            toks.append("dt")
        elif m > 1:
            toks.append(f"dt^{m}")
        toks.append("delta")
        bits.append(" ".join(toks))
    return " + ".join(bits)


def format_operator(P: WeylOperator) -> str:
    if P.is_zero():
        return "0"
    bits = []
    for (ay, st, bdy, et), c in P.sorted_terms():
        toks = []
        if c != 1 or not any(ay) and not st and not any(bdy) and not et:
            toks.append(str(c))
        for i, e in enumerate(ay):
            if e:
                toks.append(f"y{i+1}" + (f"^{e}" if e > 1 else ""))
        if st:
            toks.append("t" + (f"^{st}" if st > 1 else ""))
        for i, e in enumerate(bdy):
            if e:
                toks.append(f"d{i+1}" + (f"^{e}" if e > 1 else ""))
        if et:
            toks.append("dt" + (f"^{et}" if et > 1 else ""))
        bits.append(" ".join(toks))
    return " + ".join(bits)
