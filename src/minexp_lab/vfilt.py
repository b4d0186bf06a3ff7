"""The V-filtration and Hodge filtration on B_g^r for monomial g.

Everything rests on the closed form for the filtration pieces: with
b_i = ceil(alpha*a_i) - 1 for i <= r (0 past r),

    F_p V_{-alpha} B_g^r
        = (+)  y^b dy delta . y^v dy^w C[theta]_{<= p+n-|w|}
          over v, w >= 0 with v_i w_i = 0 for i <= r and w_i = 0 for i > r,

each summand sitting in its own multidegree b + v - w.  At a fixed
multidegree d the admissible (v, w) is unique, so the piece is spanned by the
expansions E_j = y^{b+v} dy delta . dy^w theta^j for 0 <= j <= p+n-|w|, and
these are triangular in the top dt-order (top(E_j) = |w| + j with nonzero
leading coefficient).  Since a multidegree-d element has exactly one possible
monomial per dt-order, it is handled as its dict {dt-order: coefficient},
and membership and graded-piece coordinates reduce to a back-substitution
along dt-orders; no general linear algebra is needed.  The expansions are
integer order dicts built straight from the right-action kernels of weyl.py
(_orders_dy, then _theta_orders), with no Fraction in the loop.

One level is one `Level`, built once per (model, alpha) by an entry point
(the only place alpha > 0 is checked): it holds b and, computed at most once,
the Level at the next jump candidate, which is V_{<-alpha}.  On the divisor
coordinates the twists are D_alpha = ceil(alpha D) = b + 1 and
D_{>alpha} = floor(alpha D) + E, which is D at the next candidate, so it is
the deeper Level's b + 1.  The per-multidegree functions (labels, counts,
membership, class representatives) take the Level, never (model, alpha), so
no rounding or Fraction hashing happens per multidegree.  A sweep over a
whole TruncationBox uses the box kernels gr_count_grid and grF_grV_grid:
the same closed forms, tabulated per coordinate and evaluated in one
itertools.product pass, as a list in box order.  Count grids are cached per
(level, p, box), as bytes, so a sweep over the alphas of one model builds
each grid once: grF_grV_grid reuses the grid of its own level, and the
deeper level's grid is the next alpha's.  Each call returns a fresh list.
The label kernel gr_label_grid is built the same way from gr_label's rule
and yields, in box order, (d, u0, w) for each locus where the class of
Gr^F_p V_{-alpha} exists, u0 = b + v being the exponent its representative
starts from; gr_class_rep, the one-point entry, builds the same u0 from
gr_label, and the tests hold the two equal at every locus of every catalog
level.  gr_label_leads reads the same rule without visiting the loci: the
points past the first coordinate group by their w, and sorted by weight,
the groups with a class at one d_0 are a prefix, so it returns the class
list in box order and the first (u0, w) of each distinct lead key
(u0_0 if w_0 else 0, w) at about one step per key.
grF_grV_support lists the points of the box where Gr^F_p Gr^V_{-alpha} is
nonzero, from one table of both levels' weights.  The expansion and grid
caches hold one model at a time.

Graded dimensions also come in a second closed form (the "theta-eliminated"
one): Gr^F_p V_{-alpha} has a basis of classes of y^b dy delta . y^v dy^w
with |w| = p + n, w_i = 0 for i > r, v_i w_i = 0 for 2 <= i <= r (the first
coordinate is exempt).  Both counts are computed independently here and
cross-checked in the tests and the acceptance suite.

Hodge convention: the element of top dt-order m first appears in F_{m-n}
(the count display F_{p-n} = (+)_{0<=i<=p} w dt^i delta is the oracle), so
hodge_level(y^v dy dt^m delta) = m - n.

Sign convention for the monodromy operator (resolved computationally, see
tests/test_vfilt.py): theta - beta is nilpotent on Gr^V_beta B_g^r for
beta = -alpha, i.e. theta + alpha kills Gr^V_{-alpha} after at most r steps.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .divisors import jump_candidates, next_candidate
from .rationals import InputError, exact_rank, format_rational, integer_row
from .weyl import (
    BgElement,
    MonomialModel,
    _orders_dt,
    _orders_dy,
    _orders_t,
    _orders_theta_plus,
    _theta_orders,
    multidegree,
)


# -- boxes and dimension tables ---------------------------------------------

@dataclass(frozen=True)
class TruncationBox:
    """Componentwise multidegree window [lo, hi], plus an optional Hodge cap.

    All the graded objects here are multigraded with finite-dimensional
    pieces at fixed Hodge level, so box truncation is exact, never an
    approximation.
    """

    lo: tuple
    hi: tuple
    p_max: int | None = None

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(l > h for l, h in zip(self.lo, self.hi)):
            raise InputError(f"bad box: lo={self.lo}, hi={self.hi}")

    @classmethod
    def radius(cls, n, radius, p_max=None):
        radius = int(radius)
        if radius < 0:
            raise InputError("box radius must be >= 0")
        return cls((-radius,) * n, (radius,) * n, p_max)

    def __iter__(self):
        return itertools.product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))

    def volume(self):
        out = 1
        for l, h in zip(self.lo, self.hi):
            out *= h - l + 1
        return out


def _fmt_deg(d):
    return "(" + ",".join(str(x) for x in d) + ")"


@dataclass
class GradedDimTable:
    """Nonnegative dimensions keyed by multidegree, optionally refined by a
    cohomological degree; zero entries are never stored."""

    p: int | None = None
    alpha: Fraction | None = None
    dims: dict = field(default_factory=dict)

    def get(self, key):
        return self.dims.get(key, 0)

    def set(self, key, value):
        if value:
            self.dims[key] = value
        else:
            self.dims.pop(key, None)

    def is_zero(self):
        return not self.dims

    def total(self):
        return sum(self.dims.values())

    def __eq__(self, other):
        return isinstance(other, GradedDimTable) and self.dims == other.dims

    def shifted(self, offset):
        """Translate every multidegree key by the given vector."""
        out = GradedDimTable(self.p, self.alpha)
        for k, dim in self.dims.items():
            if isinstance(k[0], tuple):
                out.dims[(tuple(a + b for a, b in zip(k[0], offset)), k[1])] = dim
            else:
                out.dims[tuple(a + b for a, b in zip(k, offset))] = dim
        return out

    def to_json(self):
        obj = {}
        if self.p is not None:
            obj["p"] = self.p
        if self.alpha is not None:
            obj["alpha"] = format_rational(self.alpha)
        dims = {}
        for k in sorted(self.dims, key=lambda k: (k[0], k[1]) if isinstance(k[0], tuple) else k):
            if isinstance(k[0], tuple):
                dims.setdefault(_fmt_deg(k[0]), {})[str(k[1])] = self.dims[k]
            else:
                dims[_fmt_deg(k)] = self.dims[k]
        obj["dims"] = dims
        return obj


# -- filtration labels ------------------------------------------------------

def hodge_level(u: BgElement) -> int:
    """Smallest q with u in F_q B^r: (max dt-order) - n."""
    if u.is_zero():
        raise InputError("hodge_level of 0 is undefined")
    return u.max_dt_order() - u.n


@lru_cache(maxsize=256)
def b_vector(model: MonomialModel, alpha) -> tuple:
    """b = ceil(alpha a) - 1 on the divisor coordinates, 0 past r."""
    alpha = Fraction(alpha)
    return tuple(math.ceil(alpha * a) - 1 for a in model.a) + (0,) * (model.n - model.r)


@dataclass(frozen=True)
class Level:
    """One level alpha > 0 of one model's V-filtration (see the module
    docstring): b, D_alpha = b + 1 on the divisor coordinates (`twist`), and
    the Level at the next jump candidate (`deeper`), whose twist is
    D_{>alpha}."""

    model: MonomialModel
    alpha: Fraction
    b: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = Fraction(self.alpha)
        if alpha <= 0:
            raise InputError(f"alpha must be > 0, got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", b_vector(self.model, alpha))

    @cached_property
    def deeper(self) -> Level:
        """The level at the next jump candidate above alpha."""
        return Level(self.model, next_candidate(self.model.divisor(), self.alpha))

    @property
    def twist(self) -> tuple:
        """D_alpha = ceil(alpha D) = b + 1 on the divisor components."""
        return tuple(x + 1 for x in self.b[: self.model.r])


def theta_label(lvl: Level, d):
    """The unique (v, w) admissible at multidegree d for the theta-graded
    description (v_i w_i = 0 for i <= r, w_i = 0 past r), or None."""
    model, b = lvl.model, lvl.b
    v = []
    w = []
    for i in range(model.n):
        rel = d[i] - b[i]
        if i < model.r:
            if rel >= 0:
                v.append(rel)
                w.append(0)
            else:
                v.append(0)
                w.append(-rel)
        else:
            if d[i] < 0:
                return None
            v.append(d[i])
            w.append(0)
    return tuple(v), tuple(w)


def dim_F_V(lvl: Level, p, d) -> int:
    """dim of the multidegree-d piece of F_p V_{-alpha} B_g^r."""
    lbl = theta_label(lvl, d)
    if lbl is None:
        return 0
    return max(0, p + lvl.model.n - sum(lbl[1]) + 1)


def count_gr_theta(lvl: Level, p, d) -> int:
    lbl = theta_label(lvl, d)
    if lbl is None:
        return 0
    return 1 if sum(lbl[1]) <= p + lvl.model.n else 0


def gr_label(lvl: Level, p, d):
    """The unique (v, w) with |w| = p+n, w_i = 0 past r, v_i w_i = 0 for
    2 <= i <= r at multidegree d, or None; its class spans
    Gr^F_p V_{-alpha} there."""
    b = lvl.b
    n, r = lvl.model.n, lvl.model.r
    v = [0] * n
    w = [0] * n
    for i in range(1, n):
        rel = d[i] - b[i]
        if i < r:
            if rel >= 0:
                v[i] = rel
            else:
                w[i] = -rel
        else:
            if d[i] < 0:
                return None
            v[i] = d[i]
    w[0] = p + n - sum(w)
    if w[0] < 0:
        return None
    v[0] = d[0] - b[0] + w[0]
    if v[0] < 0:
        return None
    return tuple(v), tuple(w)


def count_gr(lvl: Level, p, d) -> int:
    return 0 if gr_label(lvl, p, d) is None else 1


def count_grF_grV(lvl: Level, p, d) -> int:
    """dim Gr^F_p Gr^V_{-alpha} at multidegree d (0 or 1)."""
    here = count_gr(lvl, p, d)
    if not here:
        return 0
    return here - count_gr(lvl.deeper, p, d)


# Count grids, keyed by (n, a, b, p, box.lo, box.hi) and stored as bytes.  A
# grid reads alpha only through b, and the jump candidates of one model have
# distinct b, so this is one entry per (alpha, p, box).  A resolution sweep
# asks for the grid of one (level, p) in verify_thm42_i, again in
# grF_grV_grid, and as the deeper grid of the previous alpha.  The cache holds
# one model at a time, like _EXP_CACHE.
_GRID_CACHE = {}


def _count_bytes(lvl: Level, p, box: TruncationBox) -> bytes:
    model = lvl.model
    key = (model.n, model.a, lvl.b, p, box.lo, box.hi)
    grid = _GRID_CACHE.get(key)
    if grid is None:
        if _GRID_CACHE and next(iter(_GRID_CACHE))[:2] != key[:2]:
            _GRID_CACHE.clear()
        grid = _GRID_CACHE[key] = bytes(_count_grid(lvl, p, box))
    return grid


def gr_count_grid(lvl: Level, p, box: TruncationBox) -> list:
    """[count_gr(lvl, p, d) for d in box], built once per (level, p, box);
    each call returns a fresh list."""
    return list(_count_bytes(lvl, p, box))


def _count_grid(lvl: Level, p, box: TruncationBox) -> list:
    """gr_count_grid, uncached, from per-coordinate tables.

    gr_label exists iff every free coordinate is >= 0 and the dy-weight
    s = sum of max(b_i - d_i, 0) over 1 <= i < r satisfies
    s <= p + n + min(d_0 - b_0, 0); s is tabulated once over the
    coordinates past the first, then compared per value of d_0.
    """
    b, n, r = lvl.b, lvl.model.n, lvl.model.r
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    # any weight above p + n fails, so a negative free coordinate weighs that
    fail = max(p + n, 0) + 1
    tables = [[max(b[i] - x, 0) for x in axes[i]] for i in range(1, r)]
    tables += [[0 if x >= 0 else fail for x in axes[j]] for j in range(r, n)]
    weights = [sum(c) for c in itertools.product(*tables)]
    out = []
    for x in axes[0]:
        limit = p + n + min(x - b[0], 0)
        out += [1 if s <= limit else 0 for s in weights]
    return out


def gr_label_grid(lvl: Level, p, box: TruncationBox):
    """Yield (d, u0, w), in box order, for each d in the box where the class
    of Gr^F_p V_{-alpha} exists: (v, w) = gr_label(lvl, p, d) and
    u0 = b + v, the exponent gr_class_rep expands from.

    gr_label's rule, tabulated per coordinate as in gr_count_grid:
    coordinate i of 1..r-1 gives u0_i = max(d_i, b_i) and
    w_i = max(b_i - d_i, 0), a free coordinate u0_i = d_i (only d_i >= 0 is
    listed); coordinate 0 takes the remaining weight w_0 = p + n - s and
    u0_0 = d_0 + w_0.
    """
    b, n, r = lvl.b, lvl.model.n, lvl.model.r
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    tables = [[(x, max(x, b[i]), max(b[i] - x, 0)) for x in axes[i]] for i in range(1, r)]
    tables += [[(x, x, 0) for x in axes[j] if x >= 0] for j in range(r, n)]
    top = p + n
    rest = []
    for cols in itertools.product(*tables):
        d, u, w = zip(*cols) if cols else ((), (), ())
        s = sum(w)
        rest.append((s, d, u, (top - s,) + w))
    for x in axes[0]:
        limit = top + min(x - b[0], 0)
        for s, d, u, w in rest:
            if s <= limit:
                yield (x,) + d, (x + w[0],) + u, w


def gr_label_leads(lvl: Level, p, box: TruncationBox):
    """(classes, leads) for the loci gr_label_grid lists, without visiting
    them: classes is the box-order list with 1 where the class exists, and
    leads maps each distinct lead key (u0_0 if w_0 else 0, w) to the
    (u0, w) of its first locus in box order.

    The points of the rest coordinates (all but the first) fall into groups
    of equal w, one per combination of the distinct w_i of each coordinate;
    the first x of each w_i fixes the group's first point and its u0 there.
    A negative free coordinate weighs more than p + n, so its groups never
    pass.  A group of weight s passes at d_0 = x iff
    s <= p + n + min(x - b_0, 0); sorted by weight, the groups that pass at
    one x are a prefix, each giving one key, so the keys cost a step per
    (x, group), not one per locus.  classes marks the points whose group
    passes, with one row per distinct limit.
    """
    b, n, r = lvl.b, lvl.model.n, lvl.model.r
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    top = p + n
    fail = max(top, 0) + 1
    cols, flat = [], [0]  # flat: the group of each rest point, in box order
    for i in range(1, n):
        ws = [max(b[i] - x, 0) if i < r else 0 if x >= 0 else fail for x in axes[i]]
        first = {}  # w_i -> u0_i = max(x, b_i) at the first x with that w_i
        for w, x in zip(ws, axes[i]):
            first.setdefault(w, max(x, b[i]))
        index = {w: k for k, w in enumerate(first)}
        ks, m = [index[w] for w in ws], len(index)
        flat = [f * m + k for f in flat for k in ks]
        cols.append(first.items())
    groups = []  # (weight, w, u0 past the first coordinate), in product order
    for combo in itertools.product(*cols):
        w, u = zip(*combo) if combo else ((), ())
        s = sum(w)
        groups.append((s, (top - s,) + w, u))
    weights = [groups[f][0] for f in flat]
    groups.sort(key=operator.itemgetter(0))
    classes, rows, leads = [], {}, {}
    for x in axes[0]:
        limit = top + min(x - b[0], 0)
        row = rows.get(limit)
        if row is None:
            row = rows[limit] = [1 if s <= limit else 0 for s in weights]
        classes += row
        for s, w, u in groups:
            if s > limit:
                break
            u00 = x + w[0]
            key = (u00 if w[0] else 0), w
            if key not in leads:
                leads[key] = (u00,) + u, w
    return classes, leads


def grF_grV_grid(lvl: Level, p, box: TruncationBox) -> list:
    """[count_grF_grV(lvl, p, d) for d in box], from the two levels' cached
    count grids."""
    deeper = _count_bytes(lvl.deeper, p, box)
    return [h - g if h else 0 for h, g in zip(_count_bytes(lvl, p, box), deeper)]


def grF_grV_support(lvl: Level, p, box: TruncationBox) -> list:
    """The d of the box, in box order, where count_grF_grV(lvl, p, d) == 1:
    gr_count_grid's rule holds for lvl and fails for lvl.deeper.  One table
    over the coordinates past the first holds both levels' weights; the
    points it keeps depend on d_0 only through the two limits, and a tuple
    is built only for a support point.  For p + n < 0 both limits are
    negative and no weight is, so the support is empty at once."""
    b, c, n, r = lvl.b, lvl.deeper.b, lvl.model.n, lvl.model.r
    if p + n < 0:
        return []
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    fail = max(p + n, 0) + 1
    free = [[0 if x >= 0 else fail for x in axes[j]] for j in range(r, n)]

    def weights(e):
        tables = [[max(e[i] - x, 0) for x in axes[i]] for i in range(1, r)] + free
        return map(sum, itertools.product(*tables))

    rest = list(zip(weights(b), weights(c), itertools.product(*axes[1:])))
    top = p + n
    kept, out = {}, []
    for x in axes[0]:
        limits = (top + min(x - b[0], 0), top + min(x - c[0], 0))
        ds = kept.get(limits)
        if ds is None:
            here, deep = limits
            ds = kept[limits] = [d for s, t, d in rest if s <= here and t > deep]
        out += [(x,) + d for d in ds]
    return out


# -- expansions and triangular elimination ----------------------------------
#
# Per multidegree d an element is the vector of its dt-order coefficients
# (the monomial exponent is pinned by the order).  Expansions are cached by
# (n, a, expansion_key(u0, w)) and extended in theta lazily: starting
# exponents that differ only where w_i = 0 share one entry.  The cache holds
# one model at a time: a miss for another (n, a) empties it first, so it
# cannot grow past what one model's sweeps use.

_EXP_CACHE = {}


def expansion_key(u0, w):
    """(u0, w) with u0 zeroed where w_i = 0: _orders_dy reads only d[i], and
    the expansion applies it only where w_i > 0, so the orders depend on u0
    only there."""
    return tuple([x if k else 0 for x, k in zip(u0, w)]), w


def _expansion_orders(model: MonomialModel, u0, w, jmax):
    """Order dicts of y^{u0} dy delta . dy^w theta^j for j = 0..jmax.

    The multidegree is u0 - w throughout; top order of the j-th entry is
    |w| + j.
    """
    key = (model.n, model.a, *expansion_key(u0, w))
    lst = _EXP_CACHE.get(key)
    if lst is None:
        if _EXP_CACHE and next(iter(_EXP_CACHE))[:2] != key[:2]:
            _EXP_CACHE.clear()
        orders, d = {0: 1}, list(u0)
        for i, wi in enumerate(w):
            for _ in range(wi):
                orders = _orders_dy(orders, model, d, i)
                d[i] -= 1
        lst = _EXP_CACHE[key] = [orders]
    while len(lst) <= jmax:
        lst.append(_theta_orders(lst[-1]))
    return lst[: jmax + 1]


def _orders_of_component(comp: BgElement):
    return {m: c for (_, m), c in comp.terms.items()}


def _element_from_orders(model, d, orders):
    a = model.a_ext
    terms = {}
    for m, c in orders.items():
        v = tuple(d[i] + m * a[i] for i in range(model.n))
        terms[(v, m)] = c
    return BgElement(model.n, terms)


def _spanning_orders(lvl: Level, p, d):
    """Order dicts of the spanning expansions at (p, alpha, multidegree d)."""
    lbl = theta_label(lvl, d)
    if lbl is None:
        return []
    v, w = lbl
    model, b = lvl.model, lvl.b
    jmax = p + model.n - sum(w)
    if jmax < 0:
        return []
    u0 = tuple(b[i] + v[i] for i in range(model.n))
    return _expansion_orders(model, u0, w, jmax)


def spanning_set(p, alpha, d, model: MonomialModel):
    """The expansions of y^b dy delta . y^v dy^w theta^j spanning the
    multidegree-d piece of F_p V_{-alpha} (triangular in top dt-order)."""
    lvl = Level(model, alpha)
    d = tuple(d)
    return [_element_from_orders(model, d, o) for o in _spanning_orders(lvl, p, d)]


def member_key(lvl: Level, d):
    """All that _component_member(lvl, d, orders) reads of d: the
    expansion_key of theta_label's (b + v, w), or None where there is no
    label (no nonzero vector at d is a member then)."""
    lbl = theta_label(lvl, d)
    if lbl is None:
        return None
    v, w = lbl
    return expansion_key(tuple(map(operator.add, lvl.b, v)), w)


def _component_member(lvl: Level, d, orders) -> bool:
    """Triangular membership of the multidegree-d order vector in V_{-alpha},
    at the component's own Hodge level.  The answer reads d only through
    member_key(lvl, d).

    Fraction-free: the vector is scaled to integers once, and each
    elimination step replaces work by ref[m]*work - work[m]*ref, which
    preserves vanishing; a gcd reduction keeps the entries small.
    """
    if not orders:
        return True
    key = member_key(lvl, d)
    if key is None:
        return False
    u0, w = key
    wsum = sum(w)
    top = max(orders)
    jmax = top - wsum  # p + n - |w| with p = top - n
    if jmax < 0:
        return False
    exps = _expansion_orders(lvl.model, u0, w, jmax)
    work = integer_row(orders)
    for m in range(top, -1, -1):
        c = work.get(m)
        if not c:
            continue
        j = m - wsum
        if j < 0:
            return False
        ref = exps[j]
        piv = ref[m]
        work = {mm: piv * cc for mm, cc in work.items()}
        for mm, rc in ref.items():
            s = work.get(mm, 0) - c * rc
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
        g = math.gcd(*work.values())
        if g > 1:
            work = {mm: cc // g for mm, cc in work.items()}
    return not work


def v_member(u: BgElement, alpha, model: MonomialModel) -> bool:
    """Is u in V_{-alpha} B_g^r?  Decided per multidegree at the component's
    Hodge level, by back-substitution against the spanning expansions."""
    lvl = Level(model, alpha)
    if u.is_zero():
        return True
    for d, comp in multidegree(u, model).items():
        if not _component_member(lvl, d, _orders_of_component(comp)):
            return False
    return True


def v_order(u: BgElement, model: MonomialModel, cap):
    """Largest alpha <= cap with u in V_{-alpha}; 0 when u is not even in
    the first positive level (the V-order then sits at or below 0)."""
    cap = Fraction(cap)
    if cap <= 0:
        raise InputError(f"cap must be > 0, got {cap}")
    if u.is_zero():
        raise InputError("v_order of 0 is undefined")
    if v_member(u, cap, model):
        return cap
    for c in reversed(jump_candidates(model.divisor(), 0, cap)):
        if c < cap and v_member(u, c, model):
            return c
    return Fraction(0)


def gr_dim(p, alpha, box: TruncationBox, model: MonomialModel, mode="V") -> GradedDimTable:
    """Dimension table of Gr^F_p V_{-alpha} (mode "V") or
    Gr^F_p Gr^V_{-alpha} (mode "GrV") per multidegree in the box."""
    lvl = Level(model, alpha)
    if mode not in ("V", "GrV"):
        raise InputError(f"mode must be 'V' or 'GrV', got {mode!r}")
    grid = grF_grV_grid if mode == "GrV" else gr_count_grid
    table = GradedDimTable(p=p, alpha=lvl.alpha)
    for d, c in zip(box, grid(lvl, p, box)):
        if c:
            table.dims[d] = c
    return table


# -- graded-piece representatives and coordinates ---------------------------

def gr_class_rep(lvl: Level, p, d):
    """A representative of the basis class of Gr^F_p V_{-alpha} at
    multidegree d (order dict), with its leading coefficient at dt-order
    p + n, or None when the piece is 0.  The one-point entry: a sweep reads
    the same (u0, w) from gr_label_grid."""
    lbl = gr_label(lvl, p, d)
    if lbl is None:
        return None
    v, w = lbl
    model, b = lvl.model, lvl.b
    u0 = tuple(b[i] + v[i] for i in range(model.n))
    orders = _expansion_orders(model, u0, w, 0)[0]
    top = p + model.n
    assert max(orders) == top and orders[top]
    return orders


def gr_coordinate(orders, lvl: Level, p, d):
    """Coordinate of a multidegree-d element of F_p V_{-alpha} in the
    one-dimensional Gr^F_p Gr^V_{-alpha}; the quotient only sees the
    dt-order-(p+n) coefficient because the deeper piece vanishes whenever
    the class space is nonzero."""
    rep = gr_class_rep(lvl, p, d)
    if rep is None:
        raise InputError("graded piece is zero here")
    top = p + lvl.model.n
    return Fraction(orders.get(top, 0)) / rep[top]


# -- axiom checks ------------------------------------------------------------

def _fail(report, name, **info):
    """Record a failed check; returns the report, which the caller returns."""
    report["checks"].append({"name": name, "status": "FAIL", **info})
    report["status"] = "FAIL"
    return report


def _ok(report, name, **info):
    report["checks"].append({"name": name, "status": "PASS", **info})


def _shift(d, i, step):
    return d[:i] + (d[i] + step,) + d[i + 1 :]


def check_v_axioms(model: MonomialModel, alpha, box: TruncationBox, p_cap=1):
    """Verify on all spanning elements in the box: stability of V_{-alpha}
    under .y_i and .d_{y_i}, the t-shift V_{-alpha}.t <= V_{-alpha-1}, the
    dt-shift (as V_{-alpha-1}.dt <= V_{-alpha}, which is the same axiom
    instance that stays inside the alpha > 0 range; the direct form
    V_{-alpha}.dt <= V_{-alpha+1} is additionally checked when alpha > 1),
    and nilpotency of theta + alpha on Gr^V_{-alpha} with index <= r.
    """
    lvl = Level(model, alpha)
    alpha = lvl.alpha
    plus1, deeper = Level(model, alpha + 1), lvl.deeper
    minus1 = Level(model, alpha - 1) if alpha > 1 else None
    n = model.n
    a_ext = model.a_ext
    report = {"status": "PASS", "checks": [], "nilpotency_index": 0}
    worst_index = 0
    for d in box:
        d_plus_a = tuple(d[i] + a_ext[i] for i in range(n))
        d_minus_a = tuple(d[i] - a_ext[i] for i in range(n))
        for u in _spanning_orders(lvl, p_cap, d):
            for i in range(n):
                if not _component_member(lvl, _shift(d, i, 1), u):
                    return _fail(report, "stable-y", degree=list(d), i=i + 1)
                du = _orders_dy(u, model, d, i)
                if not _component_member(lvl, _shift(d, i, -1), du):
                    return _fail(report, "stable-dy", degree=list(d), i=i + 1)
            if not _component_member(plus1, d_plus_a, _orders_t(u)):
                return _fail(report, "t-shift", degree=list(d))
            if minus1 and not _component_member(minus1, d_minus_a, _orders_dt(u)):
                return _fail(report, "dt-shift-direct", degree=list(d))
            # nilpotency of theta + alpha on the Gr^V class of u
            x = u
            k = 0
            while k <= model.r:
                if _component_member(deeper, d, x):
                    break
                x = _orders_theta_plus(x, alpha)
                k += 1
            else:
                return _fail(report, "nilpotency", degree=list(d))
            worst_index = max(worst_index, k)
        for u in _spanning_orders(plus1, p_cap, d):
            if not _component_member(lvl, d_minus_a, _orders_dt(u)):
                return _fail(report, "dt-shift", degree=list(d))
    report["nilpotency_index"] = worst_index
    _ok(report, "v-axioms", alpha=format_rational(alpha), nilpotency_index=worst_index)
    return report


def t_shift_check(model: MonomialModel, alpha, box: TruncationBox, p_cap=1):
    """Multiplication by t maps the spanning set of V_{-alpha} into
    V_{-alpha-1} and is injective per multidegree."""
    lvl = Level(model, alpha)
    plus1 = Level(model, lvl.alpha + 1)
    report = {"status": "PASS", "checks": []}
    a_ext = model.a_ext
    for d in box:
        elems = _spanning_orders(lvl, p_cap, d)
        if not elems:
            continue
        d_plus_a = tuple(d[i] + a_ext[i] for i in range(model.n))
        images = [_orders_t(u) for u in elems]
        for im in images:
            if not _component_member(plus1, d_plus_a, im):
                return _fail(report, "t-image-level", degree=list(d))
        if exact_rank(images) != len(elems):
            return _fail(report, "t-injectivity", degree=list(d))
    _ok(report, "t-shift", alpha=format_rational(lvl.alpha))
    return report
