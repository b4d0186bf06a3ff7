"""The V-filtration axiom check: check_v_axioms, one pass over a box.

The axiom check asks millions of memberships over the catalog at radius 6,
most of them repeats: a membership reads its multidegree only through
member_key, and the spanning expansions, which are what it is asked about,
depend only on that key too.  So a call memoises membership in _Members, one
per level it reads: an answer per (member key, sorted orders), shared by the
levels of the call, and a member key per multidegree, per level, off which
the spanning orders are read; the theta + alpha powers and the t-images
(with their rank, which decides t-injectivity, and their count, which t-onto
compares with the level above's spanning count, read off its member key
without building the expansions) of the spanning orders are kept per key
too.  A miss calls _component_member (or the kernel) through the vfilt
module.  The memos live for one call; none sits at module level, so a fault
planted between two runs of the same input is always reached.  Every locus
is visited in box order, so a FAIL names the first failing locus.

The kernels vfilt calls too (member_key, _component_member,
_expansion_orders and _orders_dy) are read through the vfilt module, so a
fault planted there reaches both; the right-action kernels only this check
applies (_orders_t, _orders_dt, _orders_theta_plus) are this module's names.
Only verify-axioms imports this module.
"""

from __future__ import annotations

import operator

from . import vfilt
from .rationals import exact_rank, format_rational
from .vfilt import Level, TruncationBox, _check, _check_box, gr_count_grid
from .weyl import MonomialModel, _orders_dt, _orders_t, _orders_theta_plus


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
    key too; t-shift, t-injectivity and t-onto read one t_images entry, and
    t-onto the up level's span_count, off its key alone.  A miss calls
    vfilt._component_member, or _orders_theta_plus, _orders_t and
    exact_rank through this module.  A call makes its Members and drops
    them."""

    def __init__(self, lvl: Level, p, answers: dict):
        self.lvl, self.p, self.answers = lvl, p, answers
        self.keys, self.powers, self.images = {}, {}, {}

    def key(self, d):
        """member_key(self.lvl, d), computed once per d."""
        keys = self.keys
        if d in keys:
            return keys[d]
        key = keys[d] = vfilt.member_key(self.lvl, d)
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
            got = self.answers[entry] = vfilt._component_member(self.lvl, d, orders)
        return got

    def span_count(self, d) -> int:
        """len(spanning(d)), read off the cached key: p + n - |w| + 1
        expansions, none for a None key."""
        key = self.key(d)
        return 0 if key is None else max(self.p + self.lvl.model.n - sum(key[1]) + 1, 0)

    def spanning(self, d):
        """Order dicts of the spanning expansions of F_p V_{-alpha} at d,
        read off the cached key: y^{b+v} dy delta . dy^w theta^j for
        j < span_count(d), whose expansion reads u0 = b + v only where
        w_i > 0, where the key keeps it."""
        count = self.span_count(d)
        if not count:
            return []
        u0, w = self.key(d)
        return vfilt._expansion_orders(self.lvl.model, u0, w, count - 1)

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
    nilpotency of theta + alpha on Gr^V_{-alpha} with index <= r,
    injectivity of t on the spanning set per multidegree, and t onto
    F_p V_{-alpha-1} at d + a (the injective t-images, which t-shift put in
    the up level, are as many as its spanning family there, and as its
    Gr^F_q count grids sum to over q <= p_cap).

    One pass in box order; at each d: per spanning element of V_{-alpha},
    stable-y and stable-dy per coordinate, t-shift, dt-shift-direct and
    nilpotency; then dt-shift per spanning element of V_{-alpha-1}; then
    t-injectivity and t-onto.  The first failing check ends the call as the
    report's one record; a PASS records "v-axioms", then "t-shift", which
    also stands for t-injectivity and t-onto.  Membership goes through one
    _Members per level, sharing one memo.
    """
    _check_box(model, box)
    lvl = Level(model, alpha)
    alpha = lvl.alpha
    answers = {}
    here, up, deep = (
        _Members(v, p_cap, answers) for v in (lvl, Level(model, alpha + 1), lvl.deeper)
    )
    down = _Members(Level(model, alpha - 1), p_cap, answers) if alpha > 1 else None
    n = model.n
    a_ext = model.a_ext
    # the up level's spanning counts at d + a, in box order, from the other
    # side: the Gr^F_q counts at d + a summed over q <= p_cap
    shifted = TruncationBox(*(tuple(map(operator.add, x, a_ext)) for x in (box.lo, box.hi)))
    onto = [0] * box.volume()
    for q in range(-n, p_cap + 1):
        onto = list(map(operator.add, onto, gr_count_grid(up.lvl, q, shifted)))
    report = {"status": "PASS", "checks": [], "nilpotency_index": 0}
    worst_index = 0
    for d, up_count in zip(box, onto):
        d_plus_a = tuple(d[i] + a_ext[i] for i in range(n))
        d_minus_a = tuple(d[i] - a_ext[i] for i in range(n))
        images, injective = here.t_images(d)
        for j, u in enumerate(here.spanning(d)):
            for i in range(n):
                if not here(_shift(d, i, 1), u):
                    return _check(report, "stable-y", ok=False, degree=list(d), i=i + 1)
                du = vfilt._orders_dy(u, model, d, i)
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
        if not len(images) == up.span_count(d_plus_a) == up_count:
            return _check(report, "t-onto", ok=False, degree=list(d))
    report["nilpotency_index"] = worst_index
    _check(report, "v-axioms", alpha=format_rational(alpha), nilpotency_index=worst_index)
    return _check(report, "t-shift", alpha=format_rational(alpha))
