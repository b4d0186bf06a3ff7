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
the same closed forms, tabulated per coordinate (one itertools.product pass
over the coordinates past the first) and joined, one 0/1 byte row per
distinct limit of d_0, into bytes in box order; each row is one
bytes.translate of the weights' rank bytes (a comparison per weight past
256 distinct weights).  Count grids are cached per (level, p, box), so a
sweep over the alphas of one model builds each grid once: grF_grV_grid is
the bytewise h & ~g of its own level's grid and the deeper level's, which
is the next alpha's.  Each call returns a fresh bytearray.
gr_label_leads reads gr_label's rule over a whole box without visiting the
loci: the points past the first coordinate group by their w, and sorted by
weight, the groups with a class at one d_0 are a prefix, so it returns the
class bytes in box order and the first (u0, w) of each distinct lead_key at
about one step per key.  The tests hold it, and gr_label (from which
gr_class_rep, the one-point entry, builds the same u0 = b + v), equal at
every locus of every catalog level to a locus-by-locus reference listing
in tests/oracles.py.
grF_grV_support lists the points of the box where Gr^F_p Gr^V_{-alpha} is
nonzero (and their gr_label w), from one table of both levels' weights.
The expansion and grid caches hold one model at a time.

The axiom check (check_v_axioms, one pass over the box) asks millions of
memberships over the catalog at radius 6, most of them repeats: a
membership reads its multidegree only through member_key, and the spanning
expansions, which are what it is asked about, depend only on that key too.
So a call memoises membership in _Members, one per level it reads: an answer
per (member key, sorted orders), shared by the levels of the call, and a
member key per multidegree, per level, off which the spanning orders are
read; the theta + alpha powers and the t-images (with their rank, which
decides t-injectivity) of the spanning orders are kept per key too.  A miss
calls _component_member (or the kernel) through the module.  The memos live
for one call; none sits at module level, so a fault planted between two runs
of the same input is always reached.  Every locus is visited in box order,
so a FAIL names the first failing locus.

Graded dimensions also come in a second closed form (the "theta-eliminated"
one): Gr^F_p V_{-alpha} has a basis of classes of y^b dy delta . y^v dy^w
with |w| = p + n, w_i = 0 for i > r, v_i w_i = 0 for 2 <= i <= r (the first
coordinate is exempt).  count_gr counts by it; the tests and the
acceptance suite cross-check it against the count read off theta_label's
description above, which tests/oracles.py keeps.

Hodge convention: the element of top dt-order m first appears in F_{m-n}
(the count display F_{p-n} = (+)_{0<=i<=p} w dt^i delta is the oracle), so
y^v dy dt^m delta has Hodge level m - n.

Sign convention for the monodromy operator (resolved computationally, see
tests/test_vfilt.py): theta - beta is nilpotent on Gr^V_beta B_g^r for
beta = -alpha, i.e. theta + alpha kills Gr^V_{-alpha} after at most r steps.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache

from .divisors import jump_candidates, next_candidate
from .rationals import (
    FrozenRecord, InputError, Record, eliminate, exact_rank, format_rational, integer_row,
)
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


# Largest n a verify command accepts, and derham.gr_dr_psi and verify_cor51
# when called directly.  At radius 0 the box volume is 1 for any n, but the
# work still grows exponentially in n.  Steepest is verify-thm42 with r = n
# and all a_i = 1: at radius 0 it takes 0.5 s at n = 5, 5.0 s at 6 and more
# than 40 s at 7; at radius 1, 3.8 s at n = 5 and more than 40 s at 6.  At
# n = 5 every other verify command takes under 1 s at radius 0 and 1 (one run
# each, 2 CPUs, Python 3.11).  The de Rham complexes list all 2^n subsets of
# the variables up front: at radius 0, verify-cor51 on (n, [1]) ran out of a
# 3 GiB address space at n = 17.
MAX_N = 5


# -- boxes and dimension tables ---------------------------------------------

class TruncationBox(FrozenRecord):
    """Componentwise multidegree window [lo, hi].

    All the graded objects here are multigraded with finite-dimensional
    pieces at fixed Hodge level, so box truncation is exact, never an
    approximation.
    """

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        if len(lo) != len(hi) or any(l > h for l, h in zip(lo, hi)):
            raise InputError(f"bad box: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def radius(cls, n, radius):
        radius = int(radius)
        if radius < 0:
            raise InputError("box radius must be >= 0")
        return cls((-radius,) * n, (radius,) * n)

    def __iter__(self):
        return itertools.product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))

    def volume(self):
        out = 1
        for l, h in zip(self.lo, self.hi):
            out *= h - l + 1
        return out


def _fmt_deg(d):
    return "(" + ",".join(str(x) for x in d) + ")"


class GradedDimTable(Record):
    """Nonnegative dimensions keyed by multidegree, optionally refined by a
    cohomological degree (keys (D, q), read through box_list; to_json takes
    multidegree keys only and refuses the others); zero entries are never
    stored.  Two tables are equal when their dims are."""

    _fields = ("p", "alpha", "dims")

    def __init__(self, p=None, alpha=None, dims=None):
        self.p, self.alpha = p, alpha
        self.dims = {} if dims is None else dims

    def get(self, key):
        return self.dims.get(key, 0)

    def total(self):
        return sum(self.dims.values())

    def __eq__(self, other):
        return isinstance(other, GradedDimTable) and self.dims == other.dims

    def box_list(self, box: TruncationBox) -> list:
        """The dims {(D, q): dim}, every D in the box, spread by the box's
        strides into a list in box order, 0 where no entry is."""
        sizes = [hi - lo + 1 for lo, hi in zip(box.lo, box.hi)]
        strides = [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]
        base = sum(map(operator.mul, box.lo, strides))
        out = [0] * math.prod(sizes)
        for (D, _), dim in self.dims.items():
            out[sum(map(operator.mul, D, strides)) - base] = dim
        return out

    def to_json(self):
        if any(not isinstance(x, int) for d in self.dims for x in d):
            raise InputError("to_json takes multidegree keys; read (D, q) keys through box_list")
        obj = {}
        if self.p is not None:
            obj["p"] = self.p
        if self.alpha is not None:
            obj["alpha"] = format_rational(self.alpha)
        obj["dims"] = {_fmt_deg(d): self.dims[d] for d in sorted(self.dims)}
        return obj


# -- filtration labels ------------------------------------------------------

@lru_cache(maxsize=256)
def b_vector(model: MonomialModel, alpha) -> tuple:
    """b = ceil(alpha a) - 1 on the divisor coordinates, 0 past r."""
    alpha = Fraction(alpha)
    return tuple(math.ceil(alpha * a) - 1 for a in model.a) + (0,) * (model.n - model.r)


class Level(FrozenRecord):
    """One level alpha > 0 of one model's V-filtration (see the module
    docstring): b, D_alpha = b + 1 on the divisor coordinates (`twist`), and
    the Level at the next jump candidate (`deeper`), whose twist is
    D_{>alpha}.  b follows from (model, alpha), so it is neither compared
    nor shown."""

    _fields = ("model", "alpha")

    def __init__(self, model, alpha):
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise InputError(f"alpha must be > 0, got {alpha}")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", b_vector(model, alpha))

    @cached_property
    def deeper(self) -> Level:
        """The level at the next jump candidate above alpha."""
        return Level(self.model, next_candidate(self.model.divisor(), self.alpha))

    @property
    def twist(self) -> tuple:
        """D_alpha = ceil(alpha D) = b + 1 on the divisor components."""
        return tuple(x + 1 for x in self.b[: self.model.r])


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
        grid = _GRID_CACHE[key] = _count_grid(lvl, p, box)
    return grid


def gr_count_grid(lvl: Level, p, box: TruncationBox) -> bytearray:
    """[count_gr(lvl, p, d) for d in box] as bytes, built once per (level,
    p, box); each call returns a fresh bytearray."""
    return bytearray(_count_bytes(lvl, p, box))


def _rows_by_limit(weights, limits) -> bytes:
    """The box-order 0/1 bytes of `weight <= limit`, one row over `weights`
    per entry of `limits` (one per d_0), each distinct limit's row built
    once.

    With at most 256 distinct weights, each weight is stored once as the
    byte of its rank among them; a limit passes the c smallest, for
    c = bisect_right(distinct, limit), so its row is one bytes.translate
    of the ranks by a table of c ones, then zeros.  More distinct weights
    (n = 2 at radius >= 256 fits the CLI's box bound) take one comparison
    per weight."""
    distinct = sorted(set(weights))
    rows = {}
    if len(distinct) > 256:
        for limit in limits:
            if limit not in rows:
                rows[limit] = bytes(map(limit.__ge__, weights))
    else:
        rank = {w: k for k, w in enumerate(distinct)}
        ranked = bytes(map(rank.__getitem__, weights))
        for limit in limits:
            if limit not in rows:
                c = bisect_right(distinct, limit)
                rows[limit] = ranked.translate(b"\x01" * c + bytes(256 - c))
    return b"".join(map(rows.__getitem__, limits))


def _count_grid(lvl: Level, p, box: TruncationBox) -> bytes:
    """gr_count_grid, uncached, from per-coordinate tables.

    gr_label exists iff every free coordinate is >= 0 and the dy-weight
    s = sum of max(b_i - d_i, 0) over 1 <= i < r satisfies
    s <= p + n + min(d_0 - b_0, 0); s is tabulated once over the
    coordinates past the first, then compared once per distinct limit.
    """
    b, n, r = lvl.b, lvl.model.n, lvl.model.r
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    # any weight above p + n fails, so a negative free coordinate weighs that
    fail = max(p + n, 0) + 1
    tables = [[max(b[i] - x, 0) for x in axes[i]] for i in range(1, r)]
    tables += [[0 if x >= 0 else fail for x in axes[j]] for j in range(r, n)]
    weights = [sum(c) for c in itertools.product(*tables)]
    return _rows_by_limit(weights, [p + n + min(x - b[0], 0) for x in axes[0]])


def gr_label_leads(lvl: Level, p, box: TruncationBox):
    """(classes, leads) for the loci where gr_label(lvl, p, d) exists,
    without visiting them: classes is the box-order bytes with 1 there, and
    leads maps each distinct lead_key to the (u0, w) of its first locus in
    box order.

    The points of the rest coordinates (all but the first) fall into groups
    of equal w, one per combination of the distinct w_i of each coordinate;
    the first x of each w_i fixes the group's first point and its u0 there.
    A negative free coordinate weighs more than p + n, so its groups never
    pass.  A group of weight s passes at d_0 = x iff
    s <= p + n + min(x - b_0, 0); sorted by weight, the groups that pass at
    one x are a prefix, each giving one key, so the keys cost a step per
    (x, group), not one per locus.  classes marks the points whose group
    passes, with one byte row per distinct limit.
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
    limits = [top + min(x - b[0], 0) for x in axes[0]]
    leads = {}
    for x, limit in zip(axes[0], limits):
        for s, w, u in groups:
            if s > limit:
                break
            u0 = (x + w[0],) + u
            key = lead_key(u0, w)
            if key not in leads:
                leads[key] = u0, w
    return _rows_by_limit(weights, limits), leads


def grF_grV_grid(lvl: Level, p, box: TruncationBox) -> bytearray:
    """[count_grF_grV(lvl, p, d) for d in box] as a fresh bytearray: the
    bytewise h & ~g of the two levels' cached 0/1 count grids."""
    here, deeper = _count_bytes(lvl, p, box), _count_bytes(lvl.deeper, p, box)
    h, g = int.from_bytes(here, "big"), int.from_bytes(deeper, "big")
    return bytearray((h & ~g).to_bytes(len(here), "big"))


def grF_grV_support(lvl: Level, p, box: TruncationBox):
    """(points, ws): the d of the box, in box order, where
    count_grF_grV(lvl, p, d) == 1 (gr_count_grid's rule holds for lvl and
    fails for lvl.deeper), and at each gr_label's w past d_0 (w_0 = p + n -
    their sum).  One table over the coordinates past the first holds w and
    both levels' weights; the points it keeps depend on d_0 only through the
    two limits.  For p + n < 0 no weight passes, so the support is empty."""
    b, c, n, r = lvl.b, lvl.deeper.b, lvl.model.n, lvl.model.r
    if p + n < 0:
        return [], []
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    fail = max(p + n, 0) + 1
    free = [[0 if x >= 0 else fail for x in axes[j]] for j in range(r, n)]

    def tables(e):
        return [[max(e[i] - x, 0) for x in axes[i]] for i in range(1, r)] + free

    ws = list(itertools.product(*tables(b)))
    deeper = map(sum, itertools.product(*tables(c)))
    rest = list(zip(map(sum, ws), deeper, zip(itertools.product(*axes[1:]), ws)))
    top = p + n
    kept, points, out = {}, [], []
    for x in axes[0]:
        limits = (top + min(x - b[0], 0), top + min(x - c[0], 0))
        got = kept.get(limits)
        if got is None:
            here, deep = limits
            got = [dw for s, t, dw in rest if s <= here and t > deep]
            got = kept[limits] = tuple(zip(*got)) or ((), ())
        points += [(x,) + d for d in got[0]]
        out += got[1]
    return points, out


# -- expansions and triangular elimination ----------------------------------
#
# Per multidegree d an element is the vector of its dt-order coefficients
# (the monomial exponent is pinned by the order).  Expansions are cached by
# (n, a, expansion_key(u0, w)) and extended in theta lazily: starting
# exponents that differ only where w_i = 0 share one entry, and a new entry
# is grown from the cached one with its first nonzero w_i cleared.  The
# cache holds one model at a time: a miss for another (n, a) empties it
# first, so it cannot grow past what one model's sweeps use.

_EXP_CACHE = {}


def expansion_key(u0, w):
    """(u0, w) with u0 zeroed where w_i = 0: _orders_dy reads only d[i], and
    the expansion applies it only where w_i > 0, so the orders depend on u0
    only there."""
    return tuple([x if k else 0 for x, k in zip(u0, w)]), w


def lead_key(u0, w):
    """Within one (level, p), the key of the loci whose class
    representatives have the same expansion as (u0, w).  By gr_label's rule
    v_i w_i = 0 for i >= 1, so u0_i = b_i wherever w_i > 0 there: only the
    first coordinate of u0 can vary where expansion_key reads it."""
    return (u0[0] if w[0] else 0), w


def _expansion_orders(model: MonomialModel, u0, w, jmax):
    """Order dicts of y^{u0} dy delta . dy^w theta^j for j = 0..jmax.

    The multidegree is u0 - w throughout; top order of the j-th entry is
    |w| + j.  A miss grows the expansion from the entry with the first
    nonzero w_i cleared (fetched through this function, so cached too):
    the d_{y_i} commute and _orders_dy reads only d_i, so w_i more steps at
    d_i = u0_i, u0_i - 1, ... give the same orders.  By lead_key's rule, the
    leads of one (level, p) whose w agree past the first coordinate differ
    only in u0_0, so they all grow from one entry.
    """
    key = (model.n, model.a, *expansion_key(u0, w))
    lst = _EXP_CACHE.get(key)
    if lst is None:
        if _EXP_CACHE and next(iter(_EXP_CACHE))[:2] != key[:2]:
            _EXP_CACHE.clear()
        orders = {0: 1}
        for i, wi in enumerate(w):
            if wi:
                orders = _expansion_orders(model, u0, w[:i] + (0,) + w[i + 1 :], 0)[0]
                d = list(u0)
                for _ in range(wi):
                    orders = _orders_dy(orders, model, d, i)
                    d[i] -= 1
                break
        lst = _EXP_CACHE[key] = [orders]
    while len(lst) <= jmax:
        lst.append(_theta_orders(lst[-1]))
    return lst[: jmax + 1]


def _orders_of_component(comp: BgElement):
    return {m: c for (_, m), c in comp.terms.items()}


def member_key(lvl: Level, d):
    """All that _component_member(lvl, d, orders) reads of d: the
    expansion_key of the theta-graded label's (b + v, w) at d, in closed
    form.  w_i = max(b_i - d_i, 0), and v_i = 0 where w_i > 0, so u0 = b
    there (b and w vanish past r); None where a free coordinate is
    negative, as there is no label there (no nonzero vector at d is a
    member)."""
    if min(d[lvl.model.r:], default=0) < 0:
        return None
    w = tuple(map(max, map(operator.sub, lvl.b, d), itertools.repeat(0)))
    return expansion_key(lvl.b, w)


def _component_member(lvl: Level, d, orders) -> bool:
    """Triangular membership of the multidegree-d order vector in V_{-alpha},
    at the component's own Hodge level.  The answer reads d only through
    member_key(lvl, d).

    Fraction-free: the vector is scaled to integers once, and each step
    clears its top order m against the spanning expansion that leads there
    (rationals.eliminate), which preserves vanishing.
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
        if not work.get(m):
            continue
        j = m - wsum
        if j < 0:
            return False
        work = eliminate(work, exps[j], m)
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


# -- graded-piece representatives and coordinates ---------------------------

def gr_class_rep(lvl: Level, p, d):
    """A representative of the basis class of Gr^F_p V_{-alpha} at
    multidegree d (order dict), with its leading coefficient at dt-order
    p + n, or None when the piece is 0.  The one-point entry: a sweep reads
    the same (u0, w) from gr_label_leads, or from gr_label in its scan."""
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


# -- axiom checks ------------------------------------------------------------

def _check(report, name, ok=True, **info):
    """Record one check, PASS or FAIL by `ok`; a FAIL also marks the report
    FAIL.  Returns the report, which a failing check's caller returns."""
    report["checks"].append({"name": name, "status": "PASS" if ok else "FAIL", **info})
    if not ok:
        report["status"] = "FAIL"
    return report


def _shift(d, i, step):
    return d[:i] + (d[i] + step,) + d[i + 1 :]


class _Members:
    """Membership in V_{-alpha} at one Level, and the spanning orders of
    F_p V_{-alpha} with what the checks apply to them, for one
    check_v_axioms call.

    _component_member(lvl, d, orders) reads d only through member_key(lvl,
    d) and lvl only through it and the model, so the levels of one call
    share one `answers` memo keyed by (member key, sorted orders); empty
    orders and a None key are answered before it.  Each level keeps its own
    member key per multidegree.  The key also fixes the spanning orders
    (read off it), so their theta + alpha powers and t-images are kept per
    key too; t-shift and t-injectivity read one t_images entry.  A miss
    calls _component_member, _orders_theta_plus, _orders_t and exact_rank
    through the module.  A call makes its Members and drops them."""

    def __init__(self, lvl: Level, p, answers: dict):
        self.lvl, self.p, self.answers = lvl, p, answers
        self.keys, self.powers, self.images = {}, {}, {}

    def key(self, d):
        """member_key(self.lvl, d), computed once per d."""
        keys = self.keys
        if d in keys:
            return keys[d]
        key = keys[d] = member_key(self.lvl, d)
        return key

    def __call__(self, d, orders) -> bool:
        """_component_member(self.lvl, d, orders), memoised."""
        if not orders:
            return True
        key = self.key(d)
        if key is None:
            return False
        entry = key, tuple(sorted(orders.items()))
        got = self.answers.get(entry)
        if got is None:
            got = self.answers[entry] = _component_member(self.lvl, d, orders)
        return got

    def spanning(self, d):
        """Order dicts of the spanning expansions of F_p V_{-alpha} at d,
        read off the cached key: y^{b+v} dy delta . dy^w theta^j for
        j <= p + n - |w|, whose expansion reads u0 = b + v only where
        w_i > 0, where the key keeps it."""
        key = self.key(d)
        if key is None:
            return []
        u0, w = key
        model = self.lvl.model
        jmax = self.p + model.n - sum(w)
        if jmax < 0:
            return []
        return _expansion_orders(model, u0, w, jmax)

    def power(self, d, j, k):
        """(theta + alpha)^k applied to spanning(d)[j], kept per (member
        key, j) and built one power at a time."""
        chain = self.powers.get((self.key(d), j))
        if chain is None:
            chain = self.powers[self.key(d), j] = [self.spanning(d)[j]]
        while len(chain) <= k:
            chain.append(_orders_theta_plus(chain[-1], self.lvl.alpha))
        return chain[k]

    def t_images(self, d):
        """(the t-images of spanning(d), whether they are linearly
        independent), kept per member key."""
        key = self.key(d)
        got = self.images.get(key)
        if got is None:
            images = [_orders_t(u) for u in self.spanning(d)]
            got = self.images[key] = images, exact_rank(images) == len(images)
        return got


def check_v_axioms(model: MonomialModel, alpha, box: TruncationBox, p_cap=1):
    """Verify on all spanning elements in the box: stability of V_{-alpha}
    under .y_i and .d_{y_i}, the t-shift V_{-alpha}.t <= V_{-alpha-1}, the
    dt-shift (as V_{-alpha-1}.dt <= V_{-alpha}, which is the same axiom
    instance that stays inside the alpha > 0 range; the direct form
    V_{-alpha}.dt <= V_{-alpha+1} is additionally checked when alpha > 1),
    nilpotency of theta + alpha on Gr^V_{-alpha} with index <= r, and
    injectivity of t on the spanning set per multidegree.

    One pass in box order; at each d: per spanning element of V_{-alpha},
    stable-y and stable-dy per coordinate, t-shift, dt-shift-direct and
    nilpotency; then dt-shift per spanning element of V_{-alpha-1}; then
    t-injectivity.  The first failing check ends the call as the report's
    one record; a PASS records "v-axioms", then "t-shift".  Membership goes
    through one _Members per level, sharing one memo.
    """
    lvl = Level(model, alpha)
    alpha = lvl.alpha
    answers = {}
    here, up, deep = (
        _Members(v, p_cap, answers) for v in (lvl, Level(model, alpha + 1), lvl.deeper)
    )
    down = _Members(Level(model, alpha - 1), p_cap, answers) if alpha > 1 else None
    n = model.n
    a_ext = model.a_ext
    report = {"status": "PASS", "checks": [], "nilpotency_index": 0}
    worst_index = 0
    for d in box:
        d_plus_a = tuple(d[i] + a_ext[i] for i in range(n))
        d_minus_a = tuple(d[i] - a_ext[i] for i in range(n))
        images, injective = here.t_images(d)
        for j, u in enumerate(here.spanning(d)):
            for i in range(n):
                if not here(_shift(d, i, 1), u):
                    return _check(report, "stable-y", ok=False, degree=list(d), i=i + 1)
                du = _orders_dy(u, model, d, i)
                if not here(_shift(d, i, -1), du):
                    return _check(report, "stable-dy", ok=False, degree=list(d), i=i + 1)
            if not up(d_plus_a, images[j]):
                return _check(report, "t-shift", ok=False, degree=list(d))
            if down and not down(d_minus_a, _orders_dt(u)):
                return _check(report, "dt-shift-direct", ok=False, degree=list(d))
            # nilpotency of theta + alpha on the Gr^V class of u
            k = 0
            while k <= model.r:
                if deep(d, here.power(d, j, k)):
                    break
                k += 1
            else:
                return _check(report, "nilpotency", ok=False, degree=list(d))
            worst_index = max(worst_index, k)
        for u in up.spanning(d):
            if not here(d_minus_a, _orders_dt(u)):
                return _check(report, "dt-shift", ok=False, degree=list(d))
        if not injective:
            return _check(report, "t-injectivity", ok=False, degree=list(d))
    report["nilpotency_index"] = worst_index
    _check(report, "v-axioms", alpha=format_rational(alpha), nilpotency_index=worst_index)
    return _check(report, "t-shift", alpha=format_rational(alpha))
