"""V-filtration membership, orders, graded dimensions, and the axioms."""

import random
from fractions import Fraction as F

import pytest

from minexp_lab.cli import catalog
from minexp_lab.divisors import jump_candidates, next_candidate, round_gt, round_up
from minexp_lab.rationals import InputError, exact_rank
from minexp_lab.vfilt import (
    GradedDimTable,
    Level,
    TruncationBox,
    _orders_of_component,
    check_v_axioms,
    count_gr_theta,
    count_gr,
    dim_F_V,
    gr_class_rep,
    gr_coordinate,
    gr_dim,
    hodge_level,
    spanning_set,
    t_shift_check,
    v_member,
    v_order,
)
from minexp_lab.weyl import BgElement, MonomialModel, WeylOperator, act_right, multidegree

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
