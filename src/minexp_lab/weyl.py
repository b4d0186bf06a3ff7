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
and the rules above are implemented once, as the three generator kernels
_orders_dy, _orders_t and _orders_dt on order dicts (_orders_of_component
reads one off a component).  theta = t d_t and theta + alpha are
compositions of them: _theta_orders is _orders_t then _orders_dt, and
_orders_theta_plus adds alpha times its input, so the operator theta that
act_right applies and the theta of the expansions and the nilpotency check
are one computation.  act_right splits an element by multidegree and
applies the kernels factor by factor, and the V-filtration and de Rham code
call them directly on integer dicts.  With these conventions theta - beta
(theta = t d_t, acting on the right) is nilpotent on Gr^V_beta B_g^r for
beta = -alpha; the sign is confirmed by tests/test_vfilt.py, not assumed.
The textual syntax of elements and operators is syntax.py.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .divisors import SncDivisor
from .rationals import FrozenRecord, InputError, int_tuple


class MonomialModel(FrozenRecord):
    """g = y_1^{a_1} ... y_r^{a_r} on affine n-space, 1 <= r <= n, a_i >= 1."""

    _fields = ("n", "a")

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

    def to_json(self):
        return {"n": self.n, "exponents": list(self.a)}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "n" not in obj or "exponents" not in obj:
            raise InputError("model JSON must be {\"n\": ..., \"exponents\": [...]}")
        return cls(obj["n"], obj["exponents"])


class _Combination:
    """A finite rational combination {key: nonzero Fraction} in n variables:
    the arithmetic BgElement and WeylOperator share.  A subclass normalizes
    and checks each key in `_key`; results of arithmetic are built by `_of`,
    with no key check."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        t = {}
        if terms:
            for key, c in terms.items() if isinstance(terms, dict) else terms:
                c = Fraction(c)
                if c == 0:
                    continue
                key = self._key(key)
                s = t.get(key, Fraction(0)) + c
                if s:
                    t[key] = s
                else:
                    t.pop(key, None)
        self.terms = t

    @classmethod
    def _of(cls, n, terms):
        """The combination with these terms, taken as they are."""
        out = cls.__new__(cls)
        out.n, out.terms = n, terms
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.n == other.n and self.terms == other.terms

    def __add__(self, other):
        t = dict(self.terms)
        for k, c in other.terms.items():
            s = t.get(k, Fraction(0)) + c
            if s:
                t[k] = s
            else:
                t.pop(k, None)
        return self._of(self.n, t)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return self._of(self.n, {} if c == 0 else {k: c * v for k, v in self.terms.items()})


class BgElement(_Combination):
    """A finite rational combination of y^v dy dt^m delta in normal form,
    keyed by (v, m)."""

    __slots__ = ()

    def _key(self, key):
        if not isinstance(key, tuple) or len(key) != 2:
            raise InputError(f"malformed term key {key!r}, expected (v, m)")
        v, m = key
        v, (m,) = int_tuple(v, "element exponents"), int_tuple((m,), "element dt order")
        if len(v) != self.n or any(x < 0 for x in v) or m < 0:
            raise InputError(f"malformed term (v={v}, m={m})")
        return v, m

    def __repr__(self):
        from .syntax import format_element

        return f"BgElement({format_element(self)!r})"


def multidegree(u: BgElement, model: MonomialModel) -> dict:
    """Partition u by multidegree v - m*a; returns {degree: component}."""
    a = model.a_ext
    parts = {}
    for (v, m), c in u.terms.items():
        d = tuple(v[i] - m * a[i] for i in range(model.n))
        parts.setdefault(d, {})[(v, m)] = c
    return {d: BgElement._of(u.n, terms) for d, terms in parts.items()}


def _orders_of_component(comp: BgElement):
    """The order dict {m: coefficient} of a one-multidegree element."""
    return {m: c for (_, m), c in comp.terms.items()}


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
    """u.theta (theta = t d_t), same multidegree: .t, then .d_t."""
    return _orders_dt(_orders_t(orders))


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


class WeylOperator(_Combination):
    """Normal-ordered operator: dict {(ay, st, bdy, et): coeff}."""

    __slots__ = ()

    def _key(self, key):
        if not isinstance(key, tuple) or len(key) != 4:
            raise InputError(f"malformed term key {key!r}, expected (ay, st, bdy, et)")
        ay, st, bdy, et = key
        st, et = int_tuple((st, et), "operator t and dt exponents")
        ay, bdy = int_tuple(ay, "operator y exponents"), int_tuple(bdy, "operator dy exponents")
        if len(ay) != self.n or len(bdy) != self.n:
            raise InputError("operator term with wrong arity")
        if any(x < 0 for x in ay + bdy) or st < 0 or et < 0:
            raise InputError("operator exponents must be >= 0")
        return ay, st, bdy, et

    # -- constructors --

    @classmethod
    def scalar(cls, n, c):
        z = (0,) * n
        return cls(n, {(z, 0, z, 0): Fraction(c)})

    @classmethod
    def one(cls, n):
        return cls.scalar(n, 1)

    @classmethod
    def y(cls, n, i):
        z = (0,) * n
        e = tuple(1 if k == i else 0 for k in range(n))
        return cls(n, {(e, 0, z, 0): Fraction(1)})

    @classmethod
    def dy(cls, n, i):
        z = (0,) * n
        e = tuple(1 if k == i else 0 for k in range(n))
        return cls(n, {(z, 0, e, 0): Fraction(1)})

    @classmethod
    def theta(cls, n):
        """Euler operator t*dt (already normal-ordered)."""
        z = (0,) * n
        return cls(n, {(z, 1, z, 1): Fraction(1)})

    def __repr__(self):
        from .syntax import format_operator

        return f"WeylOperator({format_operator(self)!r})"


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
    return WeylOperator._of(n, acc)


def act_right(u: BgElement, P: WeylOperator, model: MonomialModel) -> BgElement:
    """Normal form of u.P: per multidegree component of u and per term of P,
    the order-dict kernels apply factor by factor in the normal order
    y, t, dy, dt."""
    if u.n != model.n or P.n != model.n:
        raise InputError("dimension mismatch")
    n, a = model.n, model.a_ext
    terms = []
    for d0, comp in multidegree(u, model).items():
        base = _orders_of_component(comp)
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
