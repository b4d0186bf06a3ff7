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
whole TruncationBox uses the box kernels, which all read one weight table
per (level, box), _WeightTable, shared by every Hodge index p: p enters
gr_label's rule only through a limit per d_0 on the sum of the dy-weights
past the first coordinate, so per p a kernel only computes the limits,
joins the table's 0/1 byte rows (one per distinct limit, built on first
use) and, for the leads, walks its (sum, w) groups.  The table keeps the
count grid of each p, so a sweep over the alphas of one model builds each
grid once: grF_grV_grid is the bytewise h & ~g of its own level's grid and
the deeper level's, which is the next alpha's.  The grids are immutable
bytes, and gr_count_grid returns the cached object itself.  gr_label_leads
returns, without visiting the loci, per distinct lead_key a (u0, w) with
u0 = b past the first coordinate, whose expansion is that of the key's
first locus, and the number of the key's loci, summed from the groups'
point counts.  The tests hold it, and gr_label (from which gr_class_rep,
the one-point entry, builds u0 = b + v), equal at every locus of every
catalog level to a locus-by-locus reference listing in tests/oracles.py.
grF_grV_support lists the points of the box where Gr^F_p Gr^V_{-alpha} is
nonzero (and their gr_label w), masking one level's rows by the deeper
level's.  The expansion and grid caches hold one model at a time.

The axiom check (check_v_axioms) is axioms.py; it reads member_key,
_component_member, _expansion_orders and _orders_dy through this module.

Graded dimensions also come in a second closed form (the "theta-eliminated"
one): Gr^F_p V_{-alpha} has a basis of classes of y^b dy delta . y^v dy^w
with |w| = p + n, w_i = 0 for i > r, v_i w_i = 0 for 2 <= i <= r (the first
coordinate is exempt).  gr_label reads it; the tests and the acceptance
suite cross-check its count (count_gr in tests/oracles.py) against the
count read off theta_label's description above, which that file keeps.

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
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache

from .divisors import jump_candidates, next_candidate
from .rationals import (
    FrozenRecord, InputError, VerificationError, eliminate, int_tuple, integer_row,
)
from .weyl import BgElement, MonomialModel, _orders_dy, _theta_orders, multidegree


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


# -- boxes -------------------------------------------------------------------

class TruncationBox(FrozenRecord):
    """Componentwise multidegree window [lo, hi].

    All the graded objects here are multigraded with finite-dimensional
    pieces at fixed Hodge level, so box truncation is exact, never an
    approximation.  Dimension tables over a box are plain dicts, {D: dim}
    (minexp.psi_hodge_dim) or {(D, q): dim} (derham, spread over the box
    by derham.box_list), that never store a zero.
    """

    _fields = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = int_tuple(lo, "box lo"), int_tuple(hi, "box hi")
        if len(lo) != len(hi) or any(l > h for l, h in zip(lo, hi)):
            raise InputError(f"bad box: lo={lo}, hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def radius(cls, n, radius):
        (n,) = int_tuple((n,), "box dimension")
        (radius,) = int_tuple((radius,), "box radius")
        if n < 0:
            raise InputError("box dimension must be >= 0")
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


def _check_box(model: MonomialModel, box: TruncationBox):
    """Refuse a box whose dimension is not the model's n: every entry point
    that takes a model and a box reads one coordinate of it per variable."""
    if len(box.lo) != model.n:
        raise InputError(f"box has dimension {len(box.lo)}, the model has n = {model.n}")


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


# Weight tables, keyed by (n, a, b, box.lo, box.hi): a table reads alpha only
# through b, and the jump candidates of one model have distinct b, so this is
# one entry per (alpha, box), shared by every p.  Each table keeps the count
# grid of each p it was asked for, so a resolution sweep builds the grid of
# one (level, p) once, though it asks for it in verify_thm42_i, in
# grF_grV_grid and as the deeper grid of the previous alpha.  The cache holds
# one model at a time, like _EXP_CACHE.
_GRID_CACHE = {}


class _Rows(dict):
    """{limit: the 0/1 bytes of `weight <= limit`, one per weight}, each
    row built on first use.

    With at most 256 distinct weights, each weight is stored once as the
    byte of its rank among them; a limit passes the c smallest, for
    c = bisect_right(distinct, limit), so its row is one bytes.translate
    of the ranks by a table of c ones, then zeros.  More distinct weights
    (n = 2 at radius >= 256 fits the CLI's box bound) take one comparison
    per weight, limit.__ge__, which needs int weights: an int's __ge__
    returns NotImplemented for a float."""

    def __init__(self, weights):
        super().__init__()
        self.distinct = sorted(set(weights))
        if len(self.distinct) > 256:
            self.weights, self.ranked = weights, None
        else:
            rank = {w: k for k, w in enumerate(self.distinct)}
            self.weights, self.ranked = None, bytes(map(rank.__getitem__, weights))

    def __missing__(self, limit):
        if self.ranked is None:
            row = bytes(map(limit.__ge__, self.weights))
        else:
            c = bisect_right(self.distinct, limit)
            row = self.ranked.translate(b"\x01" * c + bytes(256 - c))
        self[limit] = row
        return row


class _WeightTable:
    """gr_label's rule at one level over one box, for every p at once.

    gr_label exists at d = (x, rest) iff no free coordinate of rest is
    negative and the dy-weights past the first coordinate,
    w_i = max(b_i - d_i, 0) on a divisor coordinate and 0 on a free one,
    have sum(w) <= p + n + min(x - b_0, 0); only that limit reads p.  Over
    the points past the first coordinate, in box order, the table holds the
    sums, with cap + 1 (cap the largest real sum) where a free coordinate is
    negative (`sums`), their _Rows (`rows`) and the count grid of each p
    asked for (`grids`); the w (`ws`), the distinct (sum, w) lead groups
    with their point counts (`groups`) and the (point, w) pairs (`rest`)
    are built on first use.
    limits(p) clamps each limit into [-1, cap], which keeps every row and
    group prefix and never reaches the sentinel cap + 1."""

    def __init__(self, lvl: Level, box: TruncationBox):
        b, n, r = lvl.b, lvl.model.n, lvl.model.r
        self.axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
        self.tables = [[max(b[i] - x, 0) for x in self.axes[i]] for i in range(1, r)]
        self.free = (0,) * (n - r)
        gates = [[x >= 0 for x in self.axes[j]] for j in range(r, n)]
        self.gates = list(map(all, itertools.product(*gates)))
        sums = [0]
        for table in self.tables:
            sums = [s + w for s in sums for w in table]
        self.cap = max(sums)
        self.sums = [s if g else self.cap + 1 for s in sums for g in self.gates]
        self.rows = _Rows(self.sums)
        self.offsets = [n + min(x - b[0], 0) for x in self.axes[0]]
        self.grids = {}

    @cached_property
    def ws(self) -> list:
        """w past the first coordinate at each point of rest, in box order;
        built on first use, as a count grid does not read it."""
        return [w + self.free for w in itertools.product(*self.tables) for _ in self.gates]

    @cached_property
    def groups(self) -> list:
        """The distinct (sum, w) of the points without the sentinel, each
        with its number of points, as (sum, w, points), in order of first
        occurrence, stable-sorted by sum."""
        groups = Counter(sw for sw in zip(self.sums, self.ws) if sw[0] <= self.cap)
        return sorted(((s, w, c) for (s, w), c in groups.items()), key=operator.itemgetter(0))

    @cached_property
    def rest(self) -> list:
        """(point, w) past the first coordinate, in box order."""
        return list(zip(itertools.product(*self.axes[1:]), self.ws))

    def limits(self, p) -> list:
        """For each x of the first coordinate, p + n + min(x - b_0, 0)
        clamped into [-1, cap]."""
        cap = self.cap
        return [min(max(p + k, -1), cap) for k in self.offsets]


def _table(lvl: Level, box: TruncationBox) -> _WeightTable:
    model = lvl.model
    key = (model.n, model.a, lvl.b, box.lo, box.hi)
    table = _GRID_CACHE.get(key)
    if table is None:
        if _GRID_CACHE and next(iter(_GRID_CACHE))[:2] != key[:2]:
            _GRID_CACHE.clear()
        table = _GRID_CACHE[key] = _WeightTable(lvl, box)
    return table


def gr_count_grid(lvl: Level, p, box: TruncationBox) -> bytes:
    """1 where gr_label(lvl, p, d) exists, else 0, for d in box, as bytes
    (tests/oracles.py's count_gr one locus at a time), built once per
    (level, p, box) and kept in the weight table: every call returns the
    same immutable bytes."""
    grids = _table(lvl, box).grids
    grid = grids.get(p)
    if grid is None:
        grid = grids[p] = _count_grid(lvl, p, box)
    return grid


def _count_grid(lvl: Level, p, box: TruncationBox) -> bytes:
    """gr_count_grid, uncached: the weight table's rows, one per limit."""
    table = _table(lvl, box)
    return b"".join(map(table.rows.__getitem__, table.limits(p)))


def gr_label_leads(lvl: Level, p, box: TruncationBox) -> dict:
    """{lead_key: [u0, w, points]} over the loci where gr_label(lvl, p, d)
    exists, without visiting them: (u0, w) has the expansion of the key's
    first locus in box order, and points counts the key's loci.

    The points past the first coordinate group by their w (the weight
    table's groups, in order of first occurrence, stable-sorted by their
    sum s, each with its number of points).  A group passes at d_0 = x iff
    s <= its limit, so the groups that pass at one x are a prefix, each
    giving one key and its points: a step per (x, group), not per locus.
    u0 = b past the first coordinate: gr_label has v_i w_i = 0, so
    u0_i = b_i wherever w_i > 0, and expansion_key reads u0_i nowhere else.
    The key is computed arithmetically, with w_0 = top - s per group: it
    is (x + w_0 if w_0 else 0, w), which is lead_key(u0, w) for
    u0_0 = x + w_0, and u0 is built only for a new key.
    """
    table = _table(lvl, box)
    top, u = p + lvl.model.n, lvl.b[1:]
    groups = [(s, top - s, (top - s,) + w, c) for s, w, c in table.groups]
    leads = {}
    for x, limit in zip(table.axes[0], table.limits(p)):
        for s, w0, w, c in groups:
            if s > limit:
                break
            key = (x + w0) if w0 else 0, w
            lead = leads.get(key)
            if lead is None:
                leads[key] = [(x + w0,) + u, w, c]
            else:
                lead[2] += c
    return leads


def grF_grV_grid(lvl: Level, p, box: TruncationBox) -> bytes:
    """dim Gr^F_p Gr^V_{-alpha} (0 or 1) at each d of the box, as bytes in
    box order (tests/oracles.py counts it one locus at a time, as
    count_grF_grV): the bytewise h & ~g of the two levels' cached 0/1 count
    grids."""
    here, deeper = gr_count_grid(lvl, p, box), gr_count_grid(lvl.deeper, p, box)
    h, g = int.from_bytes(here, "big"), int.from_bytes(deeper, "big")
    return (h & ~g).to_bytes(len(here), "big")


def grF_grV_support(lvl: Level, p, box: TruncationBox):
    """(points, ws): the d of the box, in box order, where
    Gr^F_p Gr^V_{-alpha} is nonzero (gr_count_grid's rule holds for lvl and
    fails for lvl.deeper; tests/oracles.py's count_grF_grV is 1 there), and
    at each gr_label's w past d_0 (w_0 = p + n - their sum).  At each x of
    the first coordinate the points past it that are kept are the bytewise
    h & ~g of the two levels' weight-table rows at their limits, so each
    distinct pair of limits is masked once."""
    here, deep = _table(lvl, box), _table(lvl.deeper, box)
    rest, size = here.rest, len(here.sums)
    kept, points, out = {}, [], []
    for x, pair in zip(here.axes[0], zip(here.limits(p), deep.limits(p))):
        got = kept.get(pair)
        if got is None:
            h, g = (int.from_bytes(t.rows[k], "big") for t, k in zip((here, deep), pair))
            mask = (h & ~g).to_bytes(size, "big")
            got = kept[pair] = tuple(zip(*itertools.compress(rest, mask))) or ((), ())
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
    p + n, or None when the piece is 0; a class that leads otherwise is a
    VerificationError.  The one-point entry: a sweep reads the same (u0, w)
    from gr_label_leads, or from gr_label in its scan."""
    lbl = gr_label(lvl, p, d)
    if lbl is None:
        return None
    v, w = lbl
    model, b = lvl.model, lvl.b
    u0 = tuple(b[i] + v[i] for i in range(model.n))
    orders = _expansion_orders(model, u0, w, 0)[0]
    top = p + model.n
    if max(orders, default=None) != top or not orders[top]:
        raise VerificationError(
            f"the Gr^F_{p} class at degree {list(d)} does not lead with dt-order {top}"
        )
    return orders


# -- check records -----------------------------------------------------------

def _check(report, name, ok=True, **info):
    """Record one check, PASS or FAIL by `ok`; a FAIL also marks the report
    FAIL.  Returns the report, which a failing check's caller returns."""
    report["checks"].append({"name": name, "status": "PASS" if ok else "FAIL", **info})
    if not ok:
        report["status"] = "FAIL"
    return report
