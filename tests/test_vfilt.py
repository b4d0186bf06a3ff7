"""V-filtration membership, orders, graded dimensions, and the axioms."""

import itertools
import random
import sys
from fractions import Fraction as F

import pytest

from minexp_lab import axioms, vfilt
from minexp_lab.cli import catalog, run
from minexp_lab.derham import box_list
from minexp_lab.axioms import check_v_axioms
from minexp_lab.divisors import jump_candidates, next_candidate
from minexp_lab.koszul import verify_thm42_i
from minexp_lab.rationals import InputError, exact_rank, format_rational
from minexp_lab.vfilt import (
    Level,
    TruncationBox,
    _expansion_orders,
    _orders_of_component,
    gr_class_rep,
    gr_count_grid,
    gr_label,
    gr_label_leads,
    grF_grV_grid,
    grF_grV_support,
    v_member,
    v_order,
)
from minexp_lab.weyl import (
    BgElement,
    MonomialModel,
    WeylOperator,
    _orders_dy,
    _orders_t,
    _orders_theta_plus,
    _theta_orders,
    act_right,
    multidegree,
)

from oracles import (
    count_gr,
    count_grF_grV,
    count_gr_theta,
    dy_delta,
    gr_coordinate,
    gr_label_grid,
    one_term,
    round_gt,
    round_up,
    spanning_orders,
    spanning_set,
    theta_label,
)


def max_dt_order(u: BgElement) -> int:
    if not u.terms:
        raise InputError("zero element has no dt-order")
    return max(m for _, m in u.terms)


def hodge_level(u: BgElement) -> int:
    """Smallest q with u in F_q B^r: (max dt-order) - n."""
    if u.is_zero():
        raise InputError("hodge_level of 0 is undefined")
    return max_dt_order(u) - u.n


def dim_F_V(lvl: Level, p, d) -> int:
    """dim of the multidegree-d piece of F_p V_{-alpha} B_g^r."""
    lbl = theta_label(lvl, d)
    if lbl is None:
        return 0
    return max(0, p + lvl.model.n - sum(lbl[1]) + 1)


Y2 = MonomialModel(1, [2])
Y1 = MonomialModel(1, [1])
Y11 = MonomialModel(2, [1, 1])
Y23 = MonomialModel(2, [2, 3])


def _span_member_oracle(u, alpha, model):
    """Independent membership oracle: per multidegree, compare the rank of
    the spanning family with and without the component adjoined."""
    for d, comp in multidegree(u, model).items():
        p = max_dt_order(comp) - model.n
        span = [_orders_of_component(s) for s in spanning_set(p, alpha, d, model)]
        r0 = exact_rank([dict(v) for v in span])
        r1 = exact_rank([dict(v) for v in span] + [_orders_of_component(comp)])
        if r1 != r0:
            return False
    return True


def test_hodge_level_convention():
    # the display F_{p-n} = (+)_{0<=i<=p} w dt^i delta is the oracle:
    # dt-order m first appears at level m - n
    assert hodge_level(dy_delta(1)) == -1
    assert hodge_level(one_term(2, 1, (0, 0), 1)) == -1
    assert hodge_level(one_term(1, 1, (0,), 2)) == 1
    for n in (1, 2, 3):
        for m in range(4):
            u = one_term(n, 1, (0,) * n, m)
            assert hodge_level(u) == m - n
    with pytest.raises(InputError):
        hodge_level(BgElement(1))


def test_spanning_set_examples():
    s = spanning_set(-1, F(1, 2), (0,), Y2)
    assert s == [dy_delta(1)]
    s = spanning_set(-1, F(3, 4), (1,), Y2)
    assert s == [one_term(1, 1, (1,), 0)]
    # g = y1 y2, p = 0, alpha = 1, d = (0,0): the span contains the
    # expansions of dy delta . theta and of dy delta . y1 d1
    s = spanning_set(0, F(1), (0, 0), Y11)
    th = act_right(dy_delta(2), WeylOperator.theta(2), Y11)
    euler = act_right(
        dy_delta(2),
        WeylOperator(2, {((1, 0), 0, (1, 0), 0): F(1)}),
        Y11,
    )
    vecs = [_orders_of_component(x) for x in s]
    base_rank = exact_rank([dict(v) for v in vecs])
    for extra in (th, euler):
        r = exact_rank([dict(v) for v in vecs] + [_orders_of_component(extra)])
        assert r == base_rank  # already in the span
    with pytest.raises(InputError):
        spanning_set(0, 0, (0,), Y2)


def test_v_member_examples():
    u = dy_delta(1)
    assert v_member(u, F(1, 2), Y2) is True
    assert v_member(u, F(3, 4), Y2) is False
    assert v_member(dy_delta(1), F(1), Y1) is True
    assert v_member(BgElement(1), F(1, 2), Y2) is True
    # agreement with the rank-based oracle on the examples
    assert _span_member_oracle(u, F(1, 2), Y2)
    assert not _span_member_oracle(u, F(3, 4), Y2)


def test_v_member_randomized_against_oracle():
    rng = random.Random(99)
    models = [Y2, Y1, Y11, Y23, MonomialModel(3, [1, 2, 2])]
    checked = 0
    for _ in range(300):
        model = rng.choice(models)
        alpha = rng.choice(jump_candidates(model.divisor(), 0, 2))
        a_ext = model.a_ext
        d = tuple(rng.randint(-3, 3) for _ in range(model.n))
        terms = {}
        for m in range(0, 3):
            v = tuple(d[i] + m * a_ext[i] for i in range(model.n))
            if all(x >= 0 for x in v) and rng.random() < 0.8:
                terms[(v, m)] = F(rng.randint(-4, 4))
        u = BgElement(model.n, terms)
        if u.is_zero():
            continue
        assert v_member(u, alpha, model) == _span_member_oracle(u, alpha, model)
        checked += 1
    assert checked > 150


def test_v_order_examples():
    assert v_order(dy_delta(1), Y2, F(1)) == F(1, 2)
    assert v_order(dy_delta(1), Y1, F(1)) == F(1)
    assert v_order(dy_delta(2), Y11, F(1)) == F(1)
    # cap inside a jump interval: the sup is the cap itself
    assert v_order(dy_delta(1), Y1, F(3, 4)) == F(3, 4)
    # an element that is not in any positive level
    assert v_order(one_term(1, 1, (0,), 1), Y2, F(1)) == 0
    with pytest.raises(InputError):
        v_order(BgElement(1), Y2, F(1))
    with pytest.raises(InputError):
        v_order(dy_delta(1), Y2, 0)


def test_left_continuity():
    # membership at alpha equals membership at the next candidate >= alpha
    rng = random.Random(12)
    for model in [Y2, Y23, MonomialModel(3, [2, 4])]:
        cands = jump_candidates(model.divisor(), 0, 1)
        for _ in range(40):
            alpha = F(rng.randint(1, 24), 24)
            c = min([x for x in cands if x >= alpha], default=None)
            if c is None:
                continue
            v = tuple(rng.randint(0, 2) for _ in range(model.n))
            u = BgElement(model.n, {(v, rng.randint(0, 2)): F(1)})
            assert v_member(u, alpha, model) == v_member(u, c, model)


def test_gr_count_grid_examples():
    # the Gr^F Gr^V examples are psi_hodge_dim's (test_minexp)
    box = TruncationBox.radius(2, 3)
    assert dict(zip(box, gr_count_grid(Level(Y11, F(1)), 0, box)))[0, 0] == 1
    with pytest.raises(InputError):
        gr_count_grid(Level(Y2, 0), 0, TruncationBox.radius(1, 4))


def test_theta_vs_top_count_consistency_sweep():
    for model in [Y2, Y11, Y23, MonomialModel(3, [1, 2, 3])]:
        box = TruncationBox.radius(model.n, 4)
        for alpha in jump_candidates(model.divisor(), 0, 1):
            for p in range(-model.n, 4):
                for d in box:
                    assert count_gr_theta(Level(model, alpha), p, d) == count_gr(
                        Level(model, alpha), p, d
                    )


def test_spanning_sets_are_triangular_bases():
    # the spanning family is linearly independent (distinct top dt-orders),
    # so dim F_p V at a multidegree equals its length, matching dim_F_V
    rng = random.Random(31)
    for _ in range(120):
        model = rng.choice([Y2, Y11, Y23, MonomialModel(3, [3, 1])])
        alpha = rng.choice(jump_candidates(model.divisor(), 0, 1))
        p = rng.randint(1 - model.n, 3)
        d = tuple(rng.randint(-4, 4) for _ in range(model.n))
        span = spanning_set(p, alpha, d, model)
        assert len(span) == dim_F_V(Level(model, alpha), p, d)
        vecs = [_orders_of_component(s) for s in span]
        assert exact_rank([dict(v) for v in vecs]) == len(span)
        tops = [max(v) for v in vecs]
        assert len(set(tops)) == len(tops)


def test_exhaustion_at_nonnegative_degrees():
    # below the smallest jump candidate, V_{-alpha} fills the whole piece of
    # B^r at multidegrees >= 0
    for model in [Y2, Y11, Y23]:
        small = jump_candidates(model.divisor(), 0, 1)[0] / 2
        for p in range(-model.n, 3):
            for d in TruncationBox((0,) * model.n, (3,) * model.n):
                full = sum(1 for m in range(0, p + model.n + 1))
                assert dim_F_V(Level(model, small), p, d) == max(0, full)


def test_exhaustion_fails_at_negative_degrees():
    # frozen counterexample: g = y^2 at multidegree -2 misses dy dt delta
    # for every alpha > 0 (its V-order is <= 0), so the union over alpha > 0
    # is strictly smaller than the full piece there
    model = Y2
    small = F(1, 100)
    d = (-2,)
    p = 0  # Hodge level of dy dt delta is 1 - n = 0
    full = sum(1 for m in range(0, p + 1 + 1) if -2 + 2 * m >= 0)
    assert full == 1
    assert dim_F_V(Level(model, small), p, d) == 0
    assert not v_member(one_term(1, 1, (0,), 1), small, model)
    # and one level up the defect persists: dim p+1 vs full p+2 - 1
    assert dim_F_V(Level(model, small), 1, d) == 1 < 2


def test_saito_section_criterion():
    # dy dt^p delta in V_{-alpha} iff some dy dt^p delta + lower-order tail
    # lies in V_{-alpha}; multihomogeneity makes the two equivalent
    rng = random.Random(8)
    for model in [Y2, Y11, Y23]:
        n = model.n
        for alpha in jump_candidates(model.divisor(), 0, 1):
            for p in range(0, 3):
                lead = BgElement(n, {((0,) * n, p): F(1)})
                lead_in = v_member(lead, alpha, model)
                for _ in range(6):
                    tail = BgElement(n)
                    for i in range(1, p + 1):
                        v = tuple(rng.randint(0, 2) for _ in range(n))
                        tail = tail + BgElement(n, {(v, p - i): F(rng.randint(-2, 2))})
                    perturbed = lead + tail
                    if v_member(perturbed, alpha, model):
                        assert lead_in
                # and conversely: a section with a tail drawn from V itself
                if lead_in:
                    tail = BgElement(n)
                    d_off = (1,) + (0,) * (n - 1)
                    for s in spanning_set(p - 1 - n, alpha, d_off, model):
                        tail = tail + s
                    assert v_member(lead + tail, alpha, model)


def test_level_twists_are_the_round_ups():
    # D_alpha = b + 1, and D_{>alpha} is D at the next candidate, on every
    # catalog level in (0, 3]
    levels = 0
    for model in catalog():
        D = model.divisor()
        for alpha in jump_candidates(D, 0, 3):
            lvl = Level(model, alpha)
            assert lvl.twist == round_up(D, alpha).coeffs
            assert lvl.deeper.alpha == next_candidate(D, alpha)
            assert lvl.deeper.twist == round_gt(D, alpha).coeffs
            levels += 1
    assert levels == 3 * 172  # three periods of the 172 levels in (0, 1]
    for bad in (0, F(-1, 2)):
        with pytest.raises(InputError):
            Level(Y2, bad)


def test_count_grids_match_the_per_locus_counts():
    # every catalog level in (0, 1] with p in -n-1..3, on a radius-2 box and
    # on the support-scan box of gr_dr_psi (lo shifted by -1)
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    for lvl in levels:
        box = TruncationBox.radius(lvl.model.n, 2)
        scan = TruncationBox(tuple(x - 1 for x in box.lo), box.hi)
        for p in range(-lvl.model.n - 1, 4):
            for b in (box, scan):
                assert list(gr_count_grid(lvl, p, b)) == [count_gr(lvl, p, d) for d in b]
                assert list(grF_grV_grid(lvl, p, b)) == [count_grF_grV(lvl, p, d) for d in b]


def test_grF_grV_support_lists_the_grid_support():
    # every catalog level in (0, 1] with p in -2n-1..3 (the de Rham terms
    # reach p = -2n) over an off-centre box: the sparse support is the
    # grid's support, in box order, each point with gr_label's w past d_0
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    cases = 0
    for lvl in levels:
        n = lvl.model.n
        box = TruncationBox((-3,) * n, (4,) * n)
        for p in range(-2 * n - 1, 4):
            want = list(itertools.compress(box, grF_grV_grid(lvl, p, box)))
            points, ws = grF_grV_support(lvl, p, box)
            assert points == want, (lvl.model, lvl.alpha, p)
            assert ws == [gr_label(lvl, p, d)[1][1:] for d in points], (lvl.model, lvl.alpha, p)
            cases += 1
    assert cases == 1766


def test_support_is_empty_where_every_limit_is_below_zero():
    # every catalog level on the de Rham scan boxes of radius 2 and 3 (the
    # box with lo one lower), p in -2n..-1 (the Hodge indices the complexes
    # read): where every limit of the level's own table is below 0,
    # grF_grV_support returns ([], []) and Gr^F_p Gr^V is 0 at every locus
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    empty = cases = 0
    for lvl in levels:
        n = lvl.model.n
        for radius in (2, 3):
            box = TruncationBox.radius(n, radius)
            scan = TruncationBox(tuple(x - 1 for x in box.lo), box.hi)
            for p in range(-2 * n, 0):
                cases += 1
                if max(vfilt._table(lvl, scan).limits(p)) < 0:
                    assert grF_grV_support(lvl, p, scan) == ([], []), (lvl, radius, p)
                    assert not any(count_grF_grV(lvl, p, d) for d in scan), (lvl, radius, p)
                    empty += 1
    assert 0 < empty < cases


def test_label_grid_matches_gr_label():
    # every catalog level in (0, 1] with p in -n-1..3 over an off-centre box:
    # the kernel lists, in box order, exactly the loci where gr_label exists,
    # with u0 = b + v and its w, and gr_class_rep expands that same (u0, w)
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    for lvl in levels:
        model, b = lvl.model, lvl.b
        box = TruncationBox(tuple(range(-3, model.n - 3)), tuple(range(2, model.n + 2)))
        for p in range(-model.n - 1, 4):
            want = []
            for d in box:
                lbl = gr_label(lvl, p, d)
                rep = gr_class_rep(lvl, p, d)
                if lbl is None:
                    assert rep is None
                    continue
                v, w = lbl
                u0 = tuple(x + y for x, y in zip(b, v))
                assert rep == _expansion_orders(model, u0, w, 0)[0]
                want.append((d, u0, w))
            assert list(gr_label_grid(lvl, p, box)) == want, (model, lvl.alpha, p)


def test_label_leads_match_the_label_grid():
    # every catalog level in (0, 1] with p in -n-1..3, over the radius-2 box,
    # an off-centre box, a box whose last coordinate is negative throughout
    # and a box where every coordinate past the first starts above b: the
    # lead keys (u0_0 if w_0 else 0, w) are those of the loci gr_label_grid
    # lists, and each maps to the number of those loci with its key and to
    # a (u0, w) with the expansion of its first locus in box order (on the
    # first three boxes, that locus's own (u0, w); on the last, u0 = b past
    # the first coordinate differs from it where w_i = 0)
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    keys = 0
    for lvl in levels:
        model, n = lvl.model, lvl.model.n
        boxes = (
            TruncationBox.radius(n, 2),
            TruncationBox(tuple(range(-3, n - 3)), tuple(range(2, n + 2))),
            TruncationBox((-2,) * n, (2,) * (n - 1) + (-1,)),
            TruncationBox((-2,) + (4,) * (n - 1), (2,) + (6,) * (n - 1)),
        )
        for box in boxes:
            for p in range(-n - 1, 4):
                firsts = {}
                for _, u0, w in gr_label_grid(lvl, p, box):
                    firsts.setdefault(((u0[0] if w[0] else 0), w), [u0, w, 0])[2] += 1
                leads = gr_label_leads(lvl, p, box)
                where = (model, lvl.alpha, p, box)
                if box is boxes[-1]:
                    assert leads.keys() == firsts.keys(), where
                    for key, (u0, w, points) in leads.items():
                        *first, listed = firsts[key]
                        assert points == listed, where
                        assert vfilt.expansion_key(u0, w) == vfilt.expansion_key(*first), where
                        assert _expansion_orders(model, u0, w, 0) == _uncached_orders(
                            model, *first, 0
                        ), where
                else:
                    assert leads == firsts, where
                keys += len(leads)
    assert keys == 52321


def _uncached_orders(model, u0, w, jmax):
    """The expansion y^{u0} dy delta . dy^w theta^j, j <= jmax, step by step."""
    orders, d = {0: 1}, list(u0)
    for i, wi in enumerate(w):
        for _ in range(wi):
            orders = _orders_dy(orders, model, d, i)
            d[i] -= 1
    out = [orders]
    while len(out) <= jmax:
        out.append(_theta_orders(out[-1]))
    return out


def test_expansion_cache_keys_only_what_the_expansion_reads():
    # every catalog level in (0, 1] with p in -n-1..3 over an off-centre box:
    # an entry warmed from a u0 that differs where w_i = 0 serves the label's
    # own (u0, w), and no cache key keeps u0 where w_i = 0
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    for lvl in levels:
        model = lvl.model
        box = TruncationBox(tuple(range(-3, model.n - 3)), tuple(range(2, model.n + 2)))
        for p in range(-model.n - 1, 4):
            for _, u0, w in gr_label_grid(lvl, p, box):
                other = tuple(x if k else x + 5 for x, k in zip(u0, w))
                _expansion_orders(model, other, w, 0)
                assert _expansion_orders(model, u0, w, 2) == _uncached_orders(model, u0, w, 2)
        assert vfilt._EXP_CACHE
        for key in vfilt._EXP_CACHE:
            u0, w = key[2:]
            assert all(x == 0 for x, k in zip(u0, w) if not k), (model, lvl.alpha, key)


def _count_orders_dy(monkeypatch):
    """Start from an empty expansion cache and record the coordinate i of
    every vfilt._orders_dy call in the returned list."""
    calls = []
    real = vfilt._orders_dy

    def counted(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(vfilt, "_orders_dy", counted)
    monkeypatch.setattr(vfilt, "_EXP_CACHE", {})
    return calls


def test_expansion_grows_from_the_cleared_entry(monkeypatch):
    # with the entry of (u0, w) with its first nonzero w_i cleared cached, a
    # miss for (u0, w) applies _orders_dy once when the entry of (u0, w - e_i)
    # is cached too and w_i times otherwise, and a hit none
    calls = _count_orders_dy(monkeypatch)
    rng = random.Random(19)
    misses = {"one step": 0, "from the cleared entry": 0}
    for model in (MonomialModel(3, [1, 2, 2]), Y23, MonomialModel(4, [2, 1, 3])):
        n = model.n
        for _ in range(150):
            w = tuple(rng.randint(0, 3) for _ in range(n))
            u0 = tuple(rng.randint(-2, 4) for _ in range(n))
            if not any(w):
                continue
            i = next(k for k, wk in enumerate(w) if wk)
            _expansion_orders(model, u0, w[:i] + (0,) + w[i + 1 :], 0)
            before = w[:i] + (w[i] - 1,) + w[i + 1 :]
            if rng.random() < 0.5:
                _expansion_orders(model, u0, before, 0)
            hit = (n, model.a, *vfilt.expansion_key(u0, w)) in vfilt._EXP_CACHE
            one_step = (n, model.a, *vfilt.expansion_key(u0, before)) in vfilt._EXP_CACHE
            calls.clear()
            got = _expansion_orders(model, u0, w, 2)
            assert calls == ([] if hit else [i] if one_step else [i] * w[i]), (model, u0, w)
            assert got == _uncached_orders(model, u0, w, 2), (model, u0, w)
            if not hit and w[i] > 1:
                misses["one step" if one_step else "from the cleared entry"] += 1
    assert min(misses.values()) > 50, misses


def _frames():
    """The number of frames on the caller's stack."""
    frame, count = sys._getframe(1), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_expansion_growth_is_order_free_and_chain_flat(monkeypatch):
    # a few hundred random (u0, w) on three models, asked in two random
    # orders from an empty cache, and a 1,500-step chain asked cold and
    # warmed: every expansion is the step-by-step one, under a recursion
    # limit a few dozen frames above this test's, so no miss recurses
    # along the chain of its coordinate's steps
    rng = random.Random(41)
    queries = []
    for model in (MonomialModel(3, [1, 2, 2]), Y23, MonomialModel(4, [2, 1, 3])):
        queries.append([
            (
                model,
                tuple(rng.randint(-2, 4) for _ in range(model.n)),
                tuple(rng.randint(0, 4) for _ in range(model.n)),
                rng.randint(0, 2),
            )
            for _ in range(120)
        ])
    # r = 1: the free coordinates keep one order, so the long chain is cheap
    chain = MonomialModel(3, [3])
    u0, w = (2, -1, 1), (0, 1500, 2)
    wants = {q: _uncached_orders(*q) for group in queries for q in group}
    want = _uncached_orders(chain, u0, w, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 40)
    try:
        for _ in range(2):
            monkeypatch.setattr(vfilt, "_EXP_CACHE", {})
            for group in queries:
                for q in rng.sample(group, len(group)):
                    assert _expansion_orders(*q) == wants[q], q
        monkeypatch.setattr(vfilt, "_EXP_CACHE", {})
        assert _expansion_orders(chain, u0, w, 1) == want
        monkeypatch.setattr(vfilt, "_EXP_CACHE", {})
        for k in range(w[1] + 1):
            got = _expansion_orders(chain, u0, (0, k, 2), 1)
        assert got == want
    finally:
        sys.setrecursionlimit(limit)


def test_thm42_sweep_expansion_steps(monkeypatch):
    # the resolution-sweep model at its benchmark radius: the leads grow from
    # shared entries (2,528 _orders_dy steps when each expansion was built
    # from dy delta, 1,284 when each miss grew from the entry with its first
    # nonzero w_i cleared), and the cache keeps the same 621 entries
    calls = _count_orders_dy(monkeypatch)
    model = MonomialModel(3, [1, 2, 2])
    box = TruncationBox.radius(3, 6)
    for alpha in jump_candidates(model.divisor(), 0, 1):
        assert verify_thm42_i(model, alpha, range(-3, 4), box)["status"] == "PASS"
    assert len(calls) <= 680
    assert len(vfilt._EXP_CACHE) == 621


def test_rows_by_limit_matches_the_comparisons():
    # both paths: at most 256 distinct weights (rank bytes and translate) and
    # more (one comparison per weight), with negative, repeated and unsorted
    # limits
    rng = random.Random(7)
    distinct_counts = set()
    for size, top in [(1, 0), (9, 3), (80, 20), (256, 255), (257, 256), (400, 60), (600, 2000)]:
        for _ in range(4):
            weights = [rng.randint(0, top) for _ in range(size)]
            if size in (256, 257):
                weights = list(range(size))
                rng.shuffle(weights)
            limits = [rng.randint(-3, top + 3) for _ in range(rng.randint(1, 9))]
            limits += [limits[0], -1, top, limits[-1]]
            rng.shuffle(limits)
            want = b"".join(bytes(limit >= w for w in weights) for limit in limits)
            rows = vfilt._Rows(weights)
            assert b"".join(map(rows.__getitem__, limits)) == want, (size, top, limits)
            distinct_counts.add(len(set(weights)))
    assert 256 in distinct_counts and max(distinct_counts) > 256


def test_count_grids_past_256_distinct_weights():
    # a thin box whose second axis has 301 distinct weights takes the
    # comparison path; the count grid and the leads' point counts still
    # match the per-locus count
    model = Y11
    box = TruncationBox((-1, -300), (1, 0))
    for alpha in jump_candidates(model.divisor(), 0, 1):
        lvl = Level(model, alpha)
        assert len({max(lvl.b[1] - x, 0) for x in range(-300, 1)}) > 256
        for p in range(-3, 4):
            want = bytes(count_gr(lvl, p, d) for d in box)
            assert bytes(gr_count_grid(lvl, p, box)) == want, (alpha, p)
            assert sum(c for _, _, c in gr_label_leads(lvl, p, box).values()) == sum(want), (alpha, p)


def test_count_grids_past_256_distinct_weights_with_a_negative_free_coordinate():
    # the comparison path with the sentinel of a negative free coordinate in
    # the weight sums (an int: a float sentinel would make limit.__ge__
    # return NotImplemented): every grid and the support still match the
    # per-locus counts, for p from below -n to past every limit
    model = MonomialModel(3, [1, 1])
    box = TruncationBox((-1, -300, -2), (1, 0, 1))
    for alpha in jump_candidates(model.divisor(), 0, 1):
        lvl = Level(model, alpha)
        assert len({max(lvl.b[1] - x, 0) for x in range(-300, 1)}) > 256
        for p in range(-4, 9):
            counts = bytes(count_gr(lvl, p, d) for d in box)
            graded = bytes(count_grF_grV(lvl, p, d) for d in box)
            assert bytes(gr_count_grid(lvl, p, box)) == counts, (alpha, p)
            assert sum(c for _, _, c in gr_label_leads(lvl, p, box).values()) == sum(counts), (alpha, p)
            assert bytes(grF_grV_grid(lvl, p, box)) == graded, (alpha, p)
            points, ws = grF_grV_support(lvl, p, box)
            assert points == list(itertools.compress(box, graded)), (alpha, p)
            assert ws == [gr_label(lvl, p, d)[1][1:] for d in points], (alpha, p)
        for level in (lvl, lvl.deeper):
            table = vfilt._table(level, box)
            assert max(table.sums) == table.cap + 1


def test_gr_class_rep_and_coordinate():
    # rep has coordinate 1; scalar multiples scale; deeper elements read 0
    model = Y23
    alpha = F(1, 3)
    for p, d in [(-1, (0, 0)), (0, (1, 0)), (0, (-1, 1))]:
        rep = gr_class_rep(Level(model, alpha), p, d)
        if rep is None:
            continue
        assert gr_coordinate(rep, Level(model, alpha), p, d) == 1
        scaled = {m: 7 * c for m, c in rep.items()}
        assert gr_coordinate(scaled, Level(model, alpha), p, d) == 7


def test_v_axioms_examples():
    # a PASS records the axioms, then the t-shift with its injectivity
    def names(rep):
        assert rep["status"] == "PASS"
        return [c["name"] for c in rep["checks"]]

    rep = check_v_axioms(Y2, F(1, 2), TruncationBox.radius(1, 4))
    assert names(rep) == ["v-axioms", "t-shift"] and rep["nilpotency_index"] == 1
    rep = check_v_axioms(Y11, F(1), TruncationBox.radius(2, 3))
    assert names(rep) == ["v-axioms", "t-shift"] and rep["nilpotency_index"] <= 2
    rep = check_v_axioms(Y1, F(1), TruncationBox.radius(1, 4))
    assert names(rep) == ["v-axioms", "t-shift"]
    # alpha > 1 exercises the direct dt-shift branch
    rep = check_v_axioms(Y23, F(4, 3), TruncationBox.radius(2, 3))
    assert names(rep) == ["v-axioms", "t-shift"]


# Planted errors in check_v_axioms: each fault sits where only one check reads
# it, so exactly that check fails, at the first degree in box order where the
# level it iterates over has a nonempty spanning set.
AXIOMS_BOX = TruncationBox.radius(2, 2)


def _first_spanned(alpha):
    return next(d for d in AXIOMS_BOX if spanning_orders(Level(Y23, alpha), 1, d))


def _identity(orders):
    return dict(orders)


def _axioms_fails(alpha):
    rep = check_v_axioms(Y23, alpha, AXIOMS_BOX)
    assert rep["status"] == "FAIL"
    return rep["checks"]


@pytest.mark.parametrize(
    "name, alpha, spanned, kernel, fault, degree",
    [
        ("t-shift", F(1, 2), F(1, 2), "_orders_t", _identity, (-2, 0)),
        ("dt-shift", F(1, 2), F(3, 2), "_orders_dt", _identity, (1, 2)),
        ("dt-shift-direct", F(4, 3), F(4, 3), "_orders_dt", _identity, (0, 2)),
        (
            "nilpotency", F(1, 2), F(1, 2), "_orders_theta_plus",
            lambda orders, alpha: _orders_theta_plus(orders, -alpha), (-2, 0),
        ),
    ],
    ids=["t-shift", "dt-shift", "dt-shift-direct", "nilpotency"],
)
def test_planted_kernel_fails_one_axiom(name, alpha, spanned, kernel, fault, degree, monkeypatch):
    # dt-shift iterates over the spanning set of V_{-alpha-1}, the others
    # over that of V_{-alpha}
    assert _first_spanned(spanned) == degree
    assert check_v_axioms(Y23, alpha, AXIOMS_BOX)["status"] == "PASS"
    monkeypatch.setattr(axioms, kernel, fault)
    assert _axioms_fails(alpha) == [{"name": name, "status": "FAIL", "degree": list(degree)}]


@pytest.mark.parametrize("name, step", [("stable-y", 1), ("stable-dy", -1)])
def test_planted_membership_fails_one_axiom(name, step, monkeypatch):
    # V_{-1/2} loses the multidegree next to its first spanned degree along
    # y_1: above it for .y_1, below it for .d_{y_1}
    alpha = F(1, 2)
    first = _first_spanned(alpha)
    assert first == (-2, 0)
    target = (first[0] + step,) + first[1:]
    inner = vfilt._component_member

    def planted(lvl, d, orders):
        return not (lvl.alpha == alpha and d == target) and inner(lvl, d, orders)

    monkeypatch.setattr(vfilt, "_component_member", planted)
    assert _axioms_fails(alpha) == [{"name": name, "status": "FAIL", "degree": list(first), "i": 1}]


# The membership memo of the axiom check (axioms._Members): check_v_axioms on
# every catalog level in (0, 1] at radius 2.
def _memo_levels():
    levels = [(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    return levels


def _memo_check(model, alpha):
    return check_v_axioms(model, alpha, TruncationBox.radius(model.n, 2))


class _PassThrough(axioms._Members):
    """_Members without its memos: every query asks _component_member, the
    spanning orders come from theta_label, and their powers and t-images
    are built afresh, as before the memo."""

    def __call__(self, d, orders):
        return vfilt._component_member(self.lvl, d, orders)

    def spanning(self, d):
        return spanning_orders(self.lvl, self.p, d)

    def power(self, d, j, k):
        x = self.spanning(d)[j]
        for _ in range(k):
            x = _orders_theta_plus(x, self.lvl.alpha)
        return x

    def t_images(self, d):
        images = [_orders_t(u) for u in self.spanning(d)]
        return images, exact_rank(images) == len(images)


class _KeyedByOrders(axioms._Members):
    """A memo keyed by the orders alone, blind to the locus: it serves the
    answer of the first locus that asked about the same orders."""

    def __call__(self, d, orders):
        if not orders:
            return True
        if self.key(d) is None:
            return False
        entry = tuple(sorted(orders.items()))
        if entry not in self.answers:
            self.answers[entry] = vfilt._component_member(self.lvl, d, orders)
        return self.answers[entry]


class _KeepsU0(axioms._Members):
    """A member key that keeps u0 = b + v where w_i = 0."""

    def key(self, d):
        lbl = theta_label(self.lvl, d)
        return None if lbl is None else (tuple(map(sum, zip(self.lvl.b, lbl[0]))), lbl[1])


def test_memo_spanning_orders_match_theta_label():
    for model, alpha in _memo_levels():
        lvl = Level(model, alpha)
        for p in (-1, 1, 2):
            members = axioms._Members(lvl, p, {})
            for d in TruncationBox.radius(model.n, 2):
                assert members.spanning(d) == spanning_orders(lvl, p, d), (lvl, p, d)
                assert members.span_count(d) == len(members.spanning(d)), (lvl, p, d)


class _Conflict(Exception):
    """A membership query answered unlike a fresh _component_member."""


def _checked_run(members, levels):
    """check_v_axioms on each level at radius 2 with `members` for
    axioms._Members, each membership query checked against a fresh
    _component_member (a _Conflict if they differ): (reports, queries,
    worst), where worst is the most _component_member calls one check call
    made for one (member_key, sorted orders)."""
    counts, reports, queries = {}, [], [0]
    fresh = vfilt._component_member

    class Checked(members):
        def __call__(self, d, orders):
            got = super().__call__(d, orders)
            if got != fresh(self.lvl, d, orders):
                raise _Conflict(self.lvl, d, orders)
            queries[0] += 1
            return got

    def counted(lvl, d, orders):
        key = vfilt.member_key(lvl, d), tuple(sorted(orders.items()))
        counts[key] = counts.get(key, 0) + 1
        return fresh(lvl, d, orders)

    worst = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "_Members", Checked)
        mp.setattr(vfilt, "_component_member", counted)
        for model, alpha in levels:
            counts.clear()
            reports.append(_memo_check(model, alpha))
            worst = max(worst, 0, *counts.values())
    return reports, queries[0], worst


@pytest.fixture(scope="module")
def memo_run():
    """_checked_run of the memo on the memo levels."""
    return _checked_run(axioms._Members, _memo_levels())


def test_memo_keeps_the_reports(memo_run, monkeypatch):
    assert len(memo_run[0]) == 172 and all(rep["status"] == "PASS" for rep in memo_run[0])
    monkeypatch.setattr(axioms, "_Members", _PassThrough)
    assert memo_run[0] == [_memo_check(model, alpha) for model, alpha in _memo_levels()]


def test_memo_answers_every_query_like_a_fresh_elimination(memo_run):
    # _checked_run raises at the first conflict; none came in 261,025 queries
    assert memo_run[1] == 261025


def test_a_memo_keyed_by_the_orders_alone_conflicts():
    # it fails the test above: somewhere on the memo levels it serves the
    # answer of another locus
    with pytest.raises(_Conflict):
        _checked_run(_KeyedByOrders, _memo_levels())


def test_one_elimination_per_key_per_call(memo_run):
    assert memo_run[2] == 1


def test_a_key_that_keeps_u0_repeats_eliminations():
    # on the first memo level where one call repeats an elimination
    for level in _memo_levels():
        reports, _, worst = _checked_run(_KeepsU0, [level])
        assert all(rep["status"] == "PASS" for rep in reports)
        if worst > 1:
            return
    raise AssertionError("a key that keeps u0 never repeats an elimination")


def test_member_key_closed_form_matches_theta_label():
    # member_key reads (u0, w) off b and d directly; the label route is the
    # expansion_key of theta_label's (b + v, w), None without a label
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 2)]
    assert len(levels) == 344
    for lvl in levels:
        for d in TruncationBox.radius(lvl.model.n, 5):
            lbl = theta_label(lvl, d)
            want = lbl and vfilt.expansion_key(tuple(map(sum, zip(lvl.b, lbl[0]))), lbl[1])
            assert vfilt.member_key(lvl, d) == want, (lvl, d)


def test_dy_stability_queries_are_not_functions_of_the_member_key(monkeypatch):
    # check_v_axioms cannot visit one locus per member key: the stable-dy
    # queries (target member key, orders) that loci of one key ask differ,
    # since _orders_dy reads d_i where the key zeroes u0.  Every query listed
    # here is one the check asks.
    model = MonomialModel(3, [1, 2, 2])
    lvl = Level(model, F(1, 2))
    box = TruncationBox.radius(3, 4)
    here = axioms._Members(lvl, 1, {})
    asked = set()

    class Recorded(axioms._Members):
        def __call__(self, d, orders):
            asked.add((self.lvl, d, tuple(sorted(orders.items()))))
            return super().__call__(d, orders)

    monkeypatch.setattr(axioms, "_Members", Recorded)
    assert check_v_axioms(model, lvl.alpha, box)["status"] == "PASS"
    by_key = {}
    for d in box:
        queries = set()
        for u in here.spanning(d):
            for i in range(model.n):
                target = d[:i] + (d[i] - 1,) + d[i + 1 :]
                orders = tuple(sorted(_orders_dy(u, model, d, i).items()))
                assert (lvl, target, orders) in asked, (d, i)
                queries.add((vfilt.member_key(lvl, target), orders))
        by_key.setdefault(vfilt.member_key(lvl, d), set()).add(frozenset(queries))
    split = [key for key, sets in by_key.items() if len(sets) > 1]
    assert (len(by_key), len(split), max(map(len, by_key.values()))) == (125, 31, 95)


def test_t_shift_examples():
    # the t-shift (with t-injectivity) is the last record of a PASS
    for model, alpha, box in [
        (Y2, F(1, 2), TruncationBox.radius(1, 4)),
        (Y11, F(1), TruncationBox.radius(2, 3)),
        (Y1, F(1), TruncationBox.radius(1, 4)),
    ]:
        rep = check_v_axioms(model, alpha, box)
        want = {"name": "t-shift", "status": "PASS", "alpha": format_rational(alpha)}
        assert rep["status"] == "PASS" and rep["checks"][-1] == want


def test_planted_t_kernel_fails_t_injectivity(monkeypatch):
    # check_v_axioms keeps the t-images per member key; an _orders_t that
    # kills everything passes every t-shift membership (empty orders are
    # members) and fails t-injectivity at the first spanned degree, as the
    # report's one check
    alpha = F(1, 2)
    assert check_v_axioms(Y23, alpha, AXIOMS_BOX)["status"] == "PASS"
    monkeypatch.setattr(axioms, "_orders_t", lambda orders: {})
    rep = check_v_axioms(Y23, alpha, AXIOMS_BOX)
    want = {"name": "t-injectivity", "status": "FAIL", "degree": list(_first_spanned(alpha))}
    assert rep["status"] == "FAIL" and rep["checks"] == [want]


@pytest.mark.parametrize(
    "alpha, degree",
    [(F(1, 3), (-2, -2)), (F(1, 2), (-2, -1)), (F(1), (-2, 1)), (F(4, 3), (-1, 2))],
)
def test_planted_up_level_fails_t_onto(alpha, degree, monkeypatch):
    # the level alpha + 1 built one Hodge step too high: its spanning family
    # at d + a has elements that are no t-image, while membership (which
    # reads no Hodge index) and the dt-shift of the extra elements still
    # pass; only the count of t-onto sees it.  Without the t-onto check the
    # call passes on every n <= 2 catalog level in (0, 2] at radius 2.
    assert check_v_axioms(Y23, alpha, AXIOMS_BOX)["status"] == "PASS"
    members = axioms._Members

    class Planted(members):
        def __init__(self, lvl, p, answers):
            super().__init__(lvl, p + (lvl.alpha == alpha + 1), answers)

    monkeypatch.setattr(axioms, "_Members", Planted)
    assert _axioms_fails(alpha) == [{"name": "t-onto", "status": "FAIL", "degree": list(degree)}]


def test_t_onto_builds_no_up_level_expansion(monkeypatch):
    # t-onto reads the up level's spanning count off its member key: over
    # the 172 catalog levels in (0, 1] at radius 1, from an empty expansion
    # cache, the calls ask _expansion_orders 34,196 times (36,565 when every
    # miss fetched the entry with its first nonzero w_i cleared through it,
    # and then 39,092 for a t-onto that built the up level's expansion list
    # at d + a to count it)
    calls = []
    inner = vfilt._expansion_orders
    monkeypatch.setattr(vfilt, "_EXP_CACHE", {})
    monkeypatch.setattr(vfilt, "_expansion_orders", lambda *args: calls.append(1) or inner(*args))
    for model, alpha in _memo_levels():
        assert check_v_axioms(model, alpha, TruncationBox.radius(model.n, 1))["status"] == "PASS"
    assert len(calls) == 34196


def test_t_images_once_per_member_key(monkeypatch):
    # one check_v_axioms call applies _orders_t once to each spanning order
    # of each distinct member key of V_{-alpha} in the box, not once per
    # locus and spanning order
    model = MonomialModel(3, [1, 2, 2])
    lvl = Level(model, F(1, 2))
    box = TruncationBox.radius(3, 3)
    calls = []
    monkeypatch.setattr(axioms, "_orders_t", lambda orders: calls.append(1) or _orders_t(orders))
    assert check_v_axioms(model, lvl.alpha, box)["status"] == "PASS"
    first = {}
    for d in box:
        first.setdefault(vfilt.member_key(lvl, d), d)
    per_key = sum(len(spanning_orders(lvl, 1, d)) for d in first.values())
    per_locus = sum(len(spanning_orders(lvl, 1, d)) for d in box)
    assert len(calls) == per_key < per_locus


@pytest.mark.parametrize("alpha, index", [(F(1, 2), 1), (F(1), 2)])
def test_axioms_at_hodge_cap_2(alpha, index):
    # the axiom check over the spanning elements up to F_2 (the CLI runs it
    # at cap 1), on (2, [1, 2]) at each jump in (0, 1]
    model, box = MonomialModel(2, [1, 2]), TruncationBox.radius(2, 2)
    lvl = Level(model, alpha)
    assert any(len(spanning_orders(lvl, 2, d)) > len(spanning_orders(lvl, 1, d)) for d in box)
    rep = check_v_axioms(model, alpha, box, p_cap=2)
    assert rep["status"] == "PASS" and rep["nilpotency_index"] == index
    assert [c["name"] for c in rep["checks"]] == ["v-axioms", "t-shift"]


def test_nilpotency_sign_resolution():
    # theta + alpha (not theta - alpha) is the nilpotent operator on
    # Gr^V_{-alpha}: the wrong sign already fails on g = y^2, alpha = 1/2
    model = Y2
    alpha = F(1, 2)
    deeper = next_candidate(model.divisor(), alpha)
    u = dy_delta(1)
    th = WeylOperator.theta(1)
    plus = act_right(u, th + WeylOperator.scalar(1, alpha), model)
    minus = act_right(u, th - WeylOperator.scalar(1, alpha), model)
    assert v_member(plus, deeper, model)
    assert not v_member(minus, deeper, model)


def shifted(table: dict, offset) -> dict:
    """Translate every multidegree key of the table by the given vector."""
    out = {}
    for k, dim in table.items():
        if isinstance(k[0], tuple):
            out[(tuple(a + b for a, b in zip(k[0], offset)), k[1])] = dim
        else:
            out[tuple(a + b for a, b in zip(k, offset))] = dim
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: TruncationBox.radius(2, 2.9),
        lambda: TruncationBox.radius(2, True),
        lambda: TruncationBox.radius(2, "1"),
        lambda: TruncationBox((0.5,), (1,)),
        lambda: TruncationBox.radius(2.5, 1),
        lambda: TruncationBox.radius(True, 1),
        lambda: TruncationBox.radius(2, -1),
    ],
    ids=[
        "radius-float", "radius-bool", "radius-text", "bound-float",
        "dimension-float", "dimension-bool",
        "radius-negative",
    ],
)
def test_box_refuses_non_integers(make):
    # a float radius or dimension is not truncated, a bool or text is not
    # read as 1, and a float bound is refused when the box is built, not
    # when it is iterated
    with pytest.raises(InputError):
        make()


def test_box_refuses_a_negative_dimension():
    # (-1,) * -1 is (), which would be a 0-dimensional box
    with pytest.raises(InputError, match="dimension"):
        TruncationBox.radius(-1, 1)


def test_box_bounds_become_tuples():
    # a list is accepted and stored as a tuple, so the box hashes into the
    # grid cache's key
    box = TruncationBox([0], [1])
    assert box == TruncationBox((0,), (1,)) and box.lo == (0,) and box.hi == (1,)
    assert list(gr_count_grid(Level(Y2, F(1, 2)), 0, box)) == [
        count_gr(Level(Y2, F(1, 2)), 0, d) for d in box
    ]


def test_box_and_table_plumbing():
    box = TruncationBox.radius(2, 1)
    assert box.volume() == 9 and (0, 0) in box and (2, 0) not in box
    with pytest.raises(InputError):
        TruncationBox((0, 0), (-1, 0))
    # the psi-dims report keys a table {(0,): 1} by the text "(0)"
    config = {"command": "psi-dims", "model": {"n": 1, "exponents": [2]}, "alpha": "1/2",
              "p": -1, "box": 1}
    report, code = run(config)
    assert code == 0 and report["tables"] == [{"p": -1, "alpha": "1/2", "dims": {}}]
    report, code = run(dict(config, p=1))
    assert code == 0 and report["tables"] == [{"p": 1, "alpha": "1/2", "dims": {"(0)": 1}}]
    t, t2 = {(0,): 1}, {((0, 1), -1): 2}
    assert box_list(t2, TruncationBox((0, 0), (0, 1))) == [0, 2]
    assert shifted(t, (2,)) == {(2,): 1}
    assert shifted(t2, (1, -1)) == {((1, 0), -1): 2}
