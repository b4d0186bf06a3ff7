"""V-filtration membership, orders, graded dimensions, and the axioms."""

import itertools
import random
from fractions import Fraction as F

import pytest

from minexp_lab import vfilt
from minexp_lab.cli import catalog
from minexp_lab.divisors import jump_candidates, next_candidate, round_gt, round_up
from minexp_lab.rationals import InputError, exact_rank
from minexp_lab.vfilt import (
    GradedDimTable,
    Level,
    TruncationBox,
    _expansion_orders,
    _orders_of_component,
    _spanning_orders,
    check_v_axioms,
    count_gr_theta,
    count_gr,
    count_grF_grV,
    dim_F_V,
    gr_class_rep,
    gr_coordinate,
    gr_count_grid,
    gr_dim,
    gr_label,
    gr_label_grid,
    gr_label_leads,
    grF_grV_grid,
    grF_grV_support,
    hodge_level,
    spanning_set,
    t_shift_check,
    v_member,
    v_order,
)
from minexp_lab.weyl import (
    BgElement,
    MonomialModel,
    WeylOperator,
    _orders_dy,
    _orders_theta_plus,
    _theta_orders,
    act_right,
    multidegree,
)

Y2 = MonomialModel(1, [2])
Y1 = MonomialModel(1, [1])
Y11 = MonomialModel(2, [1, 1])
Y23 = MonomialModel(2, [2, 3])


def _span_member_oracle(u, alpha, model):
    """Independent membership oracle: per multidegree, compare the rank of
    the spanning family with and without the component adjoined."""
    for d, comp in multidegree(u, model).items():
        p = comp.max_dt_order() - model.n
        span = [_orders_of_component(s) for s in spanning_set(p, alpha, d, model)]
        r0 = exact_rank([dict(v) for v in span])
        r1 = exact_rank([dict(v) for v in span] + [_orders_of_component(comp)])
        if r1 != r0:
            return False
    return True


def test_hodge_level_convention():
    # the display F_{p-n} = (+)_{0<=i<=p} w dt^i delta is the oracle:
    # dt-order m first appears at level m - n
    assert hodge_level(BgElement.dy_delta(1)) == -1
    assert hodge_level(BgElement.term(2, 1, (0, 0), 1)) == -1
    assert hodge_level(BgElement.term(1, 1, (0,), 2)) == 1
    for n in (1, 2, 3):
        for m in range(4):
            u = BgElement.term(n, 1, (0,) * n, m)
            assert hodge_level(u) == m - n
    with pytest.raises(InputError):
        hodge_level(BgElement(1))


def test_spanning_set_examples():
    s = spanning_set(-1, F(1, 2), (0,), Y2)
    assert s == [BgElement.dy_delta(1)]
    s = spanning_set(-1, F(3, 4), (1,), Y2)
    assert s == [BgElement.term(1, 1, (1,), 0)]
    # g = y1 y2, p = 0, alpha = 1, d = (0,0): the span contains the
    # expansions of dy delta . theta and of dy delta . y1 d1
    s = spanning_set(0, F(1), (0, 0), Y11)
    th = act_right(BgElement.dy_delta(2), WeylOperator.theta(2), Y11)
    euler = act_right(
        BgElement.dy_delta(2),
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
    u = BgElement.dy_delta(1)
    assert v_member(u, F(1, 2), Y2) is True
    assert v_member(u, F(3, 4), Y2) is False
    assert v_member(BgElement.dy_delta(1), F(1), Y1) is True
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
    assert v_order(BgElement.dy_delta(1), Y2, F(1)) == F(1, 2)
    assert v_order(BgElement.dy_delta(1), Y1, F(1)) == F(1)
    assert v_order(BgElement.dy_delta(2), Y11, F(1)) == F(1)
    # cap inside a jump interval: the sup is the cap itself
    assert v_order(BgElement.dy_delta(1), Y1, F(3, 4)) == F(3, 4)
    # an element that is not in any positive level
    assert v_order(BgElement.term(1, 1, (0,), 1), Y2, F(1)) == 0
    with pytest.raises(InputError):
        v_order(BgElement(1), Y2, F(1))
    with pytest.raises(InputError):
        v_order(BgElement.dy_delta(1), Y2, 0)


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


def test_gr_dim_examples():
    box1 = TruncationBox.radius(1, 4)
    t = gr_dim(-1, F(1, 2), box1, Y2, "GrV")
    assert t.dims == {(0,): 1}
    t = gr_dim(-1, F(1, 4), box1, Y2, "GrV")
    assert t.is_zero()
    t = gr_dim(0, F(1), TruncationBox.radius(2, 3), Y11, "V")
    assert t.get((0, 0)) == 1
    with pytest.raises(InputError):
        gr_dim(0, 0, box1, Y2)
    with pytest.raises(InputError):
        gr_dim(0, 1, box1, Y2, mode="X")


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
    assert not v_member(BgElement.term(1, 1, (0,), 1), small, model)
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
                assert gr_count_grid(lvl, p, b) == [count_gr(lvl, p, d) for d in b]
                assert grF_grV_grid(lvl, p, b) == [count_grF_grV(lvl, p, d) for d in b]


def test_grF_grV_support_lists_the_grid_support():
    # every catalog level in (0, 1] with p in -2n-1..3 (the de Rham terms
    # reach p = -2n) over an off-centre box: the sparse support is the
    # grid's support, in box order
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    cases = 0
    for lvl in levels:
        n = lvl.model.n
        box = TruncationBox((-3,) * n, (4,) * n)
        for p in range(-2 * n - 1, 4):
            want = list(itertools.compress(box, grF_grV_grid(lvl, p, box)))
            assert grF_grV_support(lvl, p, box) == want, (lvl.model, lvl.alpha, p)
            cases += 1
    assert cases == 1766


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
    # an off-centre box and a box whose last coordinate is negative
    # throughout: the class list marks exactly the loci gr_label_grid lists,
    # and each lead key (u0_0 if w_0 else 0, w) maps to the (u0, w) of its
    # first locus in box order
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    keys = 0
    for lvl in levels:
        n = lvl.model.n
        boxes = (
            TruncationBox.radius(n, 2),
            TruncationBox(tuple(range(-3, n - 3)), tuple(range(2, n + 2))),
            TruncationBox((-2,) * n, (2,) * (n - 1) + (-1,)),
        )
        for box in boxes:
            for p in range(-n - 1, 4):
                labelled, firsts = set(), {}
                for d, u0, w in gr_label_grid(lvl, p, box):
                    labelled.add(d)
                    firsts.setdefault(((u0[0] if w[0] else 0), w), (u0, w))
                classes, leads = gr_label_leads(lvl, p, box)
                assert classes == [int(d in labelled) for d in box], (lvl.model, lvl.alpha, p, box)
                assert leads == firsts, (lvl.model, lvl.alpha, p, box)
                keys += len(leads)
    assert keys == 47726


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
    rep = check_v_axioms(Y2, F(1, 2), TruncationBox.radius(1, 4))
    assert rep["status"] == "PASS" and rep["nilpotency_index"] == 1
    rep = check_v_axioms(Y11, F(1), TruncationBox.radius(2, 3))
    assert rep["status"] == "PASS" and rep["nilpotency_index"] <= 2
    rep = check_v_axioms(Y1, F(1), TruncationBox.radius(1, 4))
    assert rep["status"] == "PASS"
    # alpha > 1 exercises the direct dt-shift branch
    rep = check_v_axioms(Y23, F(4, 3), TruncationBox.radius(2, 3))
    assert rep["status"] == "PASS"


# Planted errors in check_v_axioms: each fault sits where only one check reads
# it, so exactly that check fails, at the first degree in box order where the
# level it iterates over has a nonempty spanning set.
AXIOMS_BOX = TruncationBox.radius(2, 2)


def _first_spanned(alpha):
    return next(d for d in AXIOMS_BOX if _spanning_orders(Level(Y23, alpha), 1, d))


def _identity(orders):
    return dict(orders)


def _axioms_fails(alpha):
    rep = check_v_axioms(Y23, alpha, AXIOMS_BOX)
    assert rep["status"] == "FAIL"
    return [c for c in rep["checks"] if c["status"] == "FAIL"]


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
    monkeypatch.setattr(vfilt, kernel, fault)
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


def test_t_shift_examples():
    assert t_shift_check(Y2, F(1, 2), TruncationBox.radius(1, 4))["status"] == "PASS"
    assert t_shift_check(Y11, F(1), TruncationBox.radius(2, 3))["status"] == "PASS"
    assert t_shift_check(Y1, F(1), TruncationBox.radius(1, 4))["status"] == "PASS"


def test_nilpotency_sign_resolution():
    # theta + alpha (not theta - alpha) is the nilpotent operator on
    # Gr^V_{-alpha}: the wrong sign already fails on g = y^2, alpha = 1/2
    model = Y2
    alpha = F(1, 2)
    deeper = next_candidate(model.divisor(), alpha)
    u = BgElement.dy_delta(1)
    th = WeylOperator.theta(1)
    plus = act_right(u, th + WeylOperator.scalar(1, alpha), model)
    minus = act_right(u, th - WeylOperator.scalar(1, alpha), model)
    assert v_member(plus, deeper, model)
    assert not v_member(minus, deeper, model)


def test_box_and_table_plumbing():
    box = TruncationBox.radius(2, 1)
    assert box.volume() == 9 and (0, 0) in box and (2, 0) not in box
    with pytest.raises(InputError):
        TruncationBox((0, 0), (-1, 0))
    t = GradedDimTable(p=-1, alpha=F(1, 2), dims={(0,): 1})
    assert t.to_json() == {"p": -1, "alpha": "1/2", "dims": {"(0)": 1}}
    t2 = GradedDimTable(dims={((0, 1), -1): 2})
    assert t2.to_json()["dims"] == {"(0,1)": {"-1": 2}}
    assert t.shifted((2,)).dims == {(2,): 1}
