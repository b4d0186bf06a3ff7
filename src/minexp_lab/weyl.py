"""Normal forms and the right action on B_g for a monomial g.

The model is g = y_1^{a_1} ... y_r^{a_r} on affine n-space.  Elements of the
(right) module B_g^r are finite rational combinations of normal-form symbols

    y^v dy dt^m delta        (v in Z^n_{>=0}, m >= 0),

where dy is a formal volume marker of multidegree 0 and delta the canonical
generator.  Operators live in the Weyl algebra in y_1..y_n, t and are kept in
the fixed normal order  y^ay t^st dy^bdy dt^et  (so operator equality is a
syntactic check); products re-normalize through [d_{y_i}, y_i] = 1 and
[d_t, t] = 1.

The right-action generator rules (derived from the left action rules and the
side-change formula, and pinned down by the identities tested in
tests/test_weyl.py):

    u . y_i  : v -> v + e_i
    (y^v dy dt^m delta) . d_{y_i}
             = -v_i y^{v-e_i} dy dt^m delta
               + a_i y^{v+a-e_i} dy dt^{m+1} delta     (second term only i <= r)
    (y^v dy dt^m delta) . t
             = y^{v+a} dy dt^m delta - m y^v dy dt^{m-1} delta
    (y^v dy dt^m delta) . d_t
             = -y^v dy dt^{m+1} delta

Multidegrees: deg(y_i) = e_i, deg(t) = sum a_i e_i = -deg(d_t),
deg(dy delta) = 0, so y^v dy dt^m delta sits in degree v - m*a.  A
multidegree-d element is therefore just its dict {dt-order m: coefficient},
and the rules above are implemented once, as the order-dict kernels
_orders_dy, _orders_t, _orders_dt and _theta_orders; act_right splits an
element by multidegree and applies them factor by factor, and the
V-filtration and de Rham code call them directly on integer dicts.  With these
conventions theta - beta (theta = t d_t, acting on the right) is nilpotent on
Gr^V_beta B_g^r for beta = -alpha; the sign is confirmed by
tests/test_vfilt.py, not assumed.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .divisors import SncDivisor
from .rationals import InputError, int_tuple


@dataclass(frozen=True)
class MonomialModel:
    """g = y_1^{a_1} ... y_r^{a_r} on affine n-space, 1 <= r <= n, a_i >= 1."""

    n: int
    a: tuple

    def __init__(self, n, a):
        (n,) = int_tuple((n,), "model n")
        a = int_tuple(a, "model exponents")
        if n < 1:
            raise InputError(f"ambient dimension must be >= 1, got {n}")
        if not 1 <= len(a) <= n:
            raise InputError(f"need 1 <= r <= n, got r={len(a)}, n={n}")
        if any(x < 1 for x in a):
            raise InputError(f"exponents must be positive, got {a}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)

    @property
    def r(self):
        return len(self.a)

    @property
    def a_ext(self):
        """Exponent vector padded with zeros to length n."""
        return self.a + (0,) * (self.n - self.r)

    @property
    def smooth(self):
        return self.r == 1 and self.a[0] == 1

    def divisor(self) -> SncDivisor:
        return SncDivisor(self.a)

    def reduced(self) -> SncDivisor:
        return SncDivisor((1,) * self.r)

    def to_json(self):
        return {"n": self.n, "exponents": list(self.a)}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "n" not in obj or "exponents" not in obj:
            raise InputError("model JSON must be {\"n\": ..., \"exponents\": [...]}")
        return cls(obj["n"], obj["exponents"])

    def __str__(self):
        return "g = " + "".join(
            f"y{i+1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(self.a)
        )


class BgElement:
    """A finite rational combination of y^v dy dt^m delta in normal form."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        t = {}
        if terms:
            for (v, m), c in terms.items() if isinstance(terms, dict) else terms:
                c = Fraction(c)
                if c == 0:
                    continue
                v = tuple(int(x) for x in v)
                if len(v) != n or any(x < 0 for x in v) or m < 0:
                    raise InputError(f"malformed term (v={v}, m={m})")
                key = (v, int(m))
                c = t.get(key, Fraction(0)) + c
                if c:
                    t[key] = c
                else:
                    t.pop(key, None)
        self.terms = t

    @classmethod
    def dy_delta(cls, n):
        return cls(n, {((0,) * n, 0): Fraction(1)})

    @classmethod
    def term(cls, n, c, v, m=0):
        return cls(n, {(tuple(v), m): Fraction(c)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, BgElement) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            s = t.get(k, Fraction(0)) + c
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        out = BgElement.__new__(BgElement)
        out.n, out.terms = self.n, t
        return out

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        out = BgElement.__new__(BgElement)
        out.n = self.n
        out.terms = {} if c == 0 else {k: c * v for k, v in self.terms.items()}
        return out

    def max_dt_order(self):
        if not self.terms:
            raise InputError("zero element has no dt-order")
        return max(m for _, m in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def __repr__(self):
        return f"BgElement({format_element(self)!r})"


def multidegree(u: BgElement, model: MonomialModel) -> dict:
    """Partition u by multidegree v - m*a; returns {degree: component}."""
    a = model.a_ext
    parts = {}
    for (v, m), c in u.terms.items():
        d = tuple(v[i] - m * a[i] for i in range(model.n))
        parts.setdefault(d, {})[(v, m)] = c
    out = {}
    for d, terms in parts.items():
        comp = BgElement.__new__(BgElement)
        comp.n, comp.terms = u.n, terms
        out[d] = comp
    return out


# -- right action, one multidegree at a time ----------------------------------
#
# A multidegree-d element has exactly one possible monomial per dt-order m,
# namely y^{d + m a} dy dt^m delta, so it is the dict {m: coefficient}.  The
# kernels below are the generator rules of the module docstring in that form
# and the only implementation of the right action; .y_i moves d to d + e_i
# and leaves the dict unchanged.  Coefficients may be ints or Fractions.

def _orders_dy(orders, model, d, i):
    """Order dict of u.d_{y_i} for u the multidegree-d order dict; the
    result sits at multidegree d - e_i."""
    lifts = i < model.r  # d_{y_i} raises the dt-order only on the divisor
    ai = model.a[i] if lifts else 0
    di = d[i]
    out = {}
    for m, c in orders.items():
        vi = di + m * ai
        if vi:
            s = out.get(m, 0) - vi * c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        if lifts:
            s = out.get(m + 1, 0) + ai * c
            if s:
                out[m + 1] = s
            else:
                out.pop(m + 1, None)
    return out


def _orders_t(orders):
    """u.t, at multidegree d + a."""
    out = {}
    for m, c in orders.items():
        out[m] = out.get(m, 0) + c
        if m:
            s = out.get(m - 1, 0) - m * c
            if s:
                out[m - 1] = s
            else:
                out.pop(m - 1, None)
    return {m: c for m, c in out.items() if c}


def _orders_dt(orders):
    """u.d_t, at multidegree d - a."""
    return {m + 1: -c for m, c in orders.items()}


def _theta_orders(orders):
    """u.theta (theta = t d_t), same multidegree."""
    out = {}
    for m, c in orders.items():
        out[m + 1] = out.get(m + 1, 0) - c
        s = out.get(m, 0) + m * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return {m: c for m, c in out.items() if c}


def _orders_theta_plus(orders, alpha):
    """u.(theta + alpha), same multidegree."""
    out = _theta_orders(orders)
    for m, c in orders.items():
        s = out.get(m, 0) + alpha * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


class WeylOperator:
    """Normal-ordered operator: dict {(ay, st, bdy, et): coeff}."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        t = {}
        if terms:
            for (ay, st, bdy, et), c in terms.items() if isinstance(terms, dict) else terms:
                c = Fraction(c)
                if c == 0:
                    continue
                key = (tuple(ay), int(st), tuple(bdy), int(et))
                if len(key[0]) != n or len(key[2]) != n:
                    raise InputError("operator term with wrong arity")
                if any(x < 0 for x in key[0] + key[2]) or key[1] < 0 or key[3] < 0:
                    raise InputError("operator exponents must be >= 0")
                s = t.get(key, Fraction(0)) + c
                if s:
                    t[key] = s
                else:
                    t.pop(key, None)
        self.terms = t

    # -- constructors --

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def scalar(cls, n, c):
        z = (0,) * n
        return cls(n, {(z, 0, z, 0): Fraction(c)})

    @classmethod
    def one(cls, n):
        return cls.scalar(n, 1)

    @classmethod
    def y(cls, n, i, power=1):
        z = (0,) * n
        e = tuple(power if k == i else 0 for k in range(n))
        return cls(n, {(e, 0, z, 0): Fraction(1)})

    @classmethod
    def dy(cls, n, i, power=1):
        z = (0,) * n
        e = tuple(power if k == i else 0 for k in range(n))
        return cls(n, {(z, 0, e, 0): Fraction(1)})

    @classmethod
    def t(cls, n, power=1):
        z = (0,) * n
        return cls(n, {(z, power, z, 0): Fraction(1)})

    @classmethod
    def dt(cls, n, power=1):
        z = (0,) * n
        return cls(n, {(z, 0, z, power): Fraction(1)})

    @classmethod
    def theta(cls, n):
        """Euler operator t*dt (already normal-ordered)."""
        z = (0,) * n
        return cls(n, {(z, 1, z, 1): Fraction(1)})

    # -- arithmetic --

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, WeylOperator) and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            s = t.get(k, Fraction(0)) + c
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        out = WeylOperator.__new__(WeylOperator)
        out.n, out.terms = self.n, t
        return out

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        out = WeylOperator.__new__(WeylOperator)
        out.n = self.n
        out.terms = {} if c == 0 else {k: c * v for k, v in self.terms.items()}
        return out

    def __repr__(self):
        return f"WeylOperator({format_operator(self)!r})"

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])


def _comm_1d(b, a):
    """d^b y^a = sum_k k! C(b,k) C(a,k) y^{a-k} d^{b-k}; yields (k, coeff)."""
    for k in range(min(a, b) + 1):
        yield k, math.comb(b, k) * math.comb(a, k) * math.factorial(k)


def compose(P: WeylOperator, Q: WeylOperator) -> WeylOperator:
    """Normal-ordered product PQ."""
    if P.n != Q.n:
        raise InputError("operator arity mismatch")
    n = P.n
    acc = {}
    for (a1, s1, b1, e1), c1 in P.terms.items():
        for (a2, s2, b2, e2), c2 in Q.terms.items():
            c12 = c1 * c2
            ranges = [list(_comm_1d(b1[i], a2[i])) for i in range(n)]
            for t_k, t_c in _comm_1d(e1, s2):
                for combo in itertools.product(*ranges):
                    coeff = c12 * t_c
                    for _, kc in combo:
                        coeff *= kc
                    k = tuple(kk for kk, _ in combo)
                    ay = tuple(a1[i] + a2[i] - k[i] for i in range(n))
                    bdy = tuple(b1[i] - k[i] + b2[i] for i in range(n))
                    key = (ay, s1 + s2 - t_k, bdy, e1 - t_k + e2)
                    s = acc.get(key, 0) + coeff
                    if s:
                        acc[key] = s
                    else:
                        acc.pop(key, None)
    out = WeylOperator.__new__(WeylOperator)
    out.n, out.terms = n, acc
    return out


def op_power(P: WeylOperator, k: int) -> WeylOperator:
    out = WeylOperator.one(P.n)
    for _ in range(k):
        out = compose(out, P)
    return out


def op_multidegree(P: WeylOperator, model: MonomialModel):
    """The common multidegree of all terms, or raise if inhomogeneous."""
    a = model.a_ext
    degs = {
        tuple(ay[i] - bdy[i] + (st - et) * a[i] for i in range(model.n))
        for (ay, st, bdy, et) in P.terms
    }
    if len(degs) != 1:
        raise InputError("operator is not multihomogeneous")
    return degs.pop()


def act_right(u: BgElement, P: WeylOperator, model: MonomialModel) -> BgElement:
    """Normal form of u.P: per multidegree component of u and per term of P,
    the order-dict kernels apply factor by factor in the normal order
    y, t, dy, dt."""
    if u.n != model.n or P.n != model.n:
        raise InputError("dimension mismatch")
    n, a = model.n, model.a_ext
    terms = []
    for d0, comp in multidegree(u, model).items():
        base = {m: c for (_, m), c in comp.terms.items()}
        for (ay, st, bdy, et), c in P.terms.items():
            d = [d0[i] + ay[i] + st * a[i] for i in range(n)]
            orders = base
            for _ in range(st):
                orders = _orders_t(orders)
            for i in range(n):
                for _ in range(bdy[i]):
                    orders = _orders_dy(orders, model, d, i)
                    d[i] -= 1
            for _ in range(et):
                orders = _orders_dt(orders)
            for m, x in orders.items():
                v = tuple(d[i] + (m - et) * a[i] for i in range(n))
                terms.append(((v, m), c * x))
    return BgElement(n, terms)


# -- textual syntax ---------------------------------------------------------
#
# element term:   "3/2 y^(1,0) dy dt^2 delta"
# operator term:  "y1^2 d1 dt"  /  "-1/2 t^2 d2"  /  "1"

_VEC_RE = re.compile(r"^y\^\(([-0-9,\s]*)\)$")
_Y_RE = re.compile(r"^y(\d+)(?:\^(\d+))?$")
_D_RE = re.compile(r"^d(\d+)(?:\^(\d+))?$")
_T_RE = re.compile(r"^t(?:\^(\d+))?$")
_DT_RE = re.compile(r"^dt(?:\^(\d+))?$")


def _split_terms(text):
    """Split on top-level '+' (terms may carry their own leading '-')."""
    parts = [p.strip() for p in text.replace("−", "-").split("+")]
    return [p for p in parts if p]


def parse_element(text, n) -> BgElement:
    terms = {}
    for part in _split_terms(text):
        toks = part.split()
        coeff = Fraction(1)
        v = (0,) * n
        m = 0
        seen_dy = seen_delta = False
        for tok in toks:
            if tok == "dy":
                seen_dy = True
            elif tok == "delta":
                seen_delta = True
            elif (mt := _VEC_RE.match(tok)) is not None:
                entries = [s for s in mt.group(1).split(",") if s.strip()]
                v = tuple(int(s) for s in entries)
                if len(v) != n:
                    raise InputError(f"exponent vector {tok} has length {len(v)}, expected {n}")
            elif (mt := _DT_RE.match(tok)) is not None:
                m = int(mt.group(1) or 1)
            else:
                try:
                    coeff = Fraction(tok)
                except ValueError as exc:
                    raise InputError(f"cannot parse element token {tok!r}") from exc
        if not (seen_dy and seen_delta):
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


def parse_operator(text, n) -> WeylOperator:
    acc = WeylOperator.zero(n)
    for part in _split_terms(text):
        coeff = Fraction(1)
        ay = [0] * n
        st = 0
        bdy = [0] * n
        et = 0
        for tok in part.split():
            if (mt := _DT_RE.match(tok)) is not None:
                et += int(mt.group(1) or 1)
            elif (mt := _T_RE.match(tok)) is not None:
                st += int(mt.group(1) or 1)
            elif (mt := _Y_RE.match(tok)) is not None:
                i = int(mt.group(1)) - 1
                if not 0 <= i < n:
                    raise InputError(f"variable index out of range in {tok!r}")
                ay[i] += int(mt.group(2) or 1)
            elif (mt := _D_RE.match(tok)) is not None:
                i = int(mt.group(1)) - 1
                if not 0 <= i < n:
                    raise InputError(f"variable index out of range in {tok!r}")
                bdy[i] += int(mt.group(2) or 1)
            else:
                try:
                    coeff = coeff * Fraction(tok)
                except ValueError as exc:
                    raise InputError(f"cannot parse operator token {tok!r}") from exc
        acc = acc + WeylOperator(n, {(tuple(ay), st, tuple(bdy), et): coeff})
    return acc


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
