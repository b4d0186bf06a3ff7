"""Normal forms, the right action on B_g, and the Z^n multigrading."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from minexp_lab.rationals import InputError, exact_rank
from minexp_lab.weyl import (
    BgElement,
    MonomialModel,
    WeylOperator,
    act_right,
    compose,
    format_element,
    format_operator,
    multidegree,
    op_multidegree,
    op_power,
    parse_element,
    parse_operator,
)


def test_model_validation():
    m = MonomialModel(3, [2, 3])
    assert m.r == 2 and m.a_ext == (2, 3, 0)
    assert not m.smooth
    assert MonomialModel(1, [1]).smooth
    assert not MonomialModel(2, [1, 1]).smooth
    assert not MonomialModel(1, [2]).smooth
    for bad in [(0, [1]), (2, []), (1, [1, 1]), (2, [0, 1])]:
        with pytest.raises(InputError):
            MonomialModel(*bad)


def test_act_right_examples():
    # model g = y^2: dy delta . d_y = 2 y dy dt delta
    m = MonomialModel(1, [2])
    u = BgElement.dy_delta(1)
    assert act_right(u, WeylOperator.dy(1, 0), m) == BgElement.term(1, 2, (1,), 1)
    # identity operator
    assert act_right(u, WeylOperator.one(1), m) == u
    # model g = y1 y2: dy delta . d_{y1} = y2 dy dt delta
    m2 = MonomialModel(2, [1, 1])
    got = act_right(BgElement.dy_delta(2), WeylOperator.dy(2, 0), m2)
    assert got == BgElement.term(2, 1, (0, 1), 1)


def _rule_terms(model, v, m, gen, i):
    """The generator rules of the weyl docstring on one symbol
    y^v dy dt^m delta, as a list of ((v', m'), coefficient)."""
    a = model.a_ext
    e = tuple(1 if k == i else 0 for k in range(model.n))
    if gen == "y":
        return [((tuple(x + y for x, y in zip(v, e)), m), 1)]
    if gen == "dy":
        out = []
        if v[i]:
            out.append(((tuple(x - y for x, y in zip(v, e)), m), -v[i]))
        if i < model.r:
            w = tuple(x + ak - y for x, ak, y in zip(v, a, e))
            out.append(((w, m + 1), a[i]))
        return out
    if gen == "t":
        out = [((tuple(x + ak for x, ak in zip(v, a)), m), 1)]
        if m:
            out.append(((v, m - 1), -m))
        return out
    return [((v, m + 1), -1)]  # dt


def test_act_right_matches_generator_rules():
    # term by term on elements spread over several multidegrees, for .y_i,
    # .d_{y_i} on and off the divisor coordinates, .t and .dt
    rng = random.Random(42)
    spread = checked = 0
    for model in [
        MonomialModel(1, [2]),
        MonomialModel(2, [2, 3]),
        MonomialModel(3, [1, 2]),
        MonomialModel(3, [3]),
    ]:
        n = model.n
        gens = [("y", i, WeylOperator.y(n, i)) for i in range(n)]
        gens += [("dy", i, WeylOperator.dy(n, i)) for i in range(n)]
        gens += [("t", None, WeylOperator.t(n)), ("dt", None, WeylOperator.dt(n))]
        for _ in range(25):
            u = _rand_el(rng, n, max_terms=5)
            spread += len(multidegree(u, model)) > 1
            c = F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            for gen, i, op in gens:
                want = BgElement(
                    n,
                    [
                        (key, c * coeff * k)
                        for (v, m), coeff in u.terms.items()
                        for key, k in _rule_terms(model, v, m, gen, i)
                    ],
                )
                assert act_right(u, op.scale(c), model) == want, (model, u, gen, i)
                checked += 1
    assert spread > 50 and checked == 25 * (4 + 6 + 8 + 8)


def test_compose_examples():
    n = 1
    dt, t = WeylOperator.dt(n), WeylOperator.t(n)
    assert compose(dt, t) == WeylOperator.theta(n) + WeylOperator.one(n)
    y, dy = WeylOperator.y(n, 0), WeylOperator.dy(n, 0)
    assert compose(dy, y) - compose(y, dy) == WeylOperator.one(n)
    # theta^2 two ways: (t dt)(t dt) vs t^2 dt^2 + t dt, expanded by hand
    th = WeylOperator.theta(n)
    manual = WeylOperator(n, {((0,), 2, (0,), 2): F(1), ((0,), 1, (0,), 1): F(1)})
    assert compose(th, th) == manual
    assert op_power(th, 2) == manual


def _rand_op(rng, n, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (
            tuple(rng.randint(0, 2) for _ in range(n)),
            rng.randint(0, 1),
            tuple(rng.randint(0, 2) for _ in range(n)),
            rng.randint(0, 1),
        )
        terms[key] = terms.get(key, F(0)) + F(rng.randint(-3, 3), rng.randint(1, 3))
    return WeylOperator(n, terms)


def _rand_el(rng, n, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        v = tuple(rng.randint(0, 3) for _ in range(n))
        terms[(v, rng.randint(0, 2))] = F(rng.randint(-4, 4) or 1)
    return BgElement(n, terms)


def test_associativity_randomized():
    rng = random.Random(20240517)
    for model in [MonomialModel(1, [2]), MonomialModel(2, [2, 3]), MonomialModel(3, [1, 2])]:
        n = model.n
        for _ in range(80):
            u, P, Q = _rand_el(rng, n), _rand_op(rng, n), _rand_op(rng, n)
            assert act_right(u, compose(P, Q), model) == act_right(
                act_right(u, P, model), Q, model
            )


def test_operator_associativity_and_ring_axioms():
    rng = random.Random(7)
    n = 2
    for _ in range(40):
        P, Q, R = (_rand_op(rng, n) for _ in range(3))
        assert compose(compose(P, Q), R) == compose(P, compose(Q, R))
        assert compose(P + Q, R) == compose(P, R) + compose(Q, R)


def test_euler_identity_on_divisor_coordinates():
    # y^v dy dt^m delta . (d_i y_i + v_i) = y^v dy dt^m delta . a_i (-theta + m)
    rng = random.Random(3)
    for model in [MonomialModel(1, [2]), MonomialModel(2, [2, 3]), MonomialModel(3, [1, 3])]:
        n = model.n
        th = WeylOperator.theta(n)
        for _ in range(30):
            v = tuple(rng.randint(0, 3) for _ in range(n))
            mm = rng.randint(0, 3)
            u = BgElement(n, {(v, mm): F(1)})
            for i in range(model.r):
                lhs_op = compose(WeylOperator.dy(n, i), WeylOperator.y(n, i)) + WeylOperator.scalar(n, v[i])
                rhs_op = ((-th) + WeylOperator.scalar(n, mm)).scale(model.a[i])
                assert act_right(u, lhs_op, model) == act_right(u, rhs_op, model)


def test_partial_identity_off_divisor_coordinates():
    # for i > r: y^v dy dt^m delta . d_i = -v_i y^{v-e_i} dy dt^m delta
    model = MonomialModel(3, [2])
    rng = random.Random(4)
    for _ in range(30):
        v = tuple(rng.randint(0, 3) for _ in range(3))
        mm = rng.randint(0, 2)
        u = BgElement(3, {(v, mm): F(1)})
        for i in (1, 2):
            got = act_right(u, WeylOperator.dy(3, i), model)
            if v[i] == 0:
                assert got.is_zero()
            else:
                want = BgElement(
                    3, {(tuple(x - (1 if k == i else 0) for k, x in enumerate(v)), mm): F(-v[i])}
                )
                assert got == want


def test_volume_form_identity_order_zero():
    # n = 1: (h dy) . d_y = -(dh/dy) dy through the right action, at m = 0,
    # modulo the dt-order-1 term
    model = MonomialModel(1, [3])
    for k in range(0, 5):
        u = BgElement.term(1, 1, (k,), 0)
        got = act_right(u, WeylOperator.dy(1, 0), model)
        order0 = {key: c for key, c in got.terms.items() if key[1] == 0}
        want = {((k - 1,), 0): F(-k)} if k else {}
        assert order0 == want
        assert all(key[1] == 1 for key in got.terms if key not in order0)


def test_grading_shift():
    # a multihomogeneous operator shifts every multidegree by its degree
    rng = random.Random(11)
    model = MonomialModel(2, [2, 3])
    ops = [
        WeylOperator.y(2, 0),
        WeylOperator.dy(2, 1),
        WeylOperator.t(2),
        WeylOperator.dt(2),
        WeylOperator.theta(2),
        compose(WeylOperator.y(2, 0), WeylOperator.dy(2, 0)),
    ]
    for P in ops:
        dP = op_multidegree(P, model)
        for _ in range(20):
            u = _rand_el(rng, 2)
            got = act_right(u, P, model)
            if got.is_zero():
                continue
            src = multidegree(u, model)
            dst = multidegree(got, model)
            assert set(dst) <= {
                tuple(d[i] + dP[i] for i in range(2)) for d in src
            }


def test_theta_powers_independent():
    # u, u.theta, ..., u.theta^4 are linearly independent for nonzero u
    rng = random.Random(5)
    for model in [MonomialModel(1, [2]), MonomialModel(2, [1, 1]), MonomialModel(2, [2, 3])]:
        n = model.n
        th = WeylOperator.theta(n)
        for _ in range(15):
            v = tuple(rng.randint(0, 2) for _ in range(n))
            u = BgElement(n, {(v, rng.randint(0, 1)): F(rng.randint(1, 3))})
            chain = [u]
            for _ in range(4):
                chain.append(act_right(chain[-1], th, model))
            # all powers stay in one multidegree, so order vectors suffice
            vecs = [{m: c for (_, m), c in x.terms.items()} for x in chain]
            assert exact_rank(vecs) == 5


def test_multidegree_examples():
    m = MonomialModel(1, [2])
    assert set(multidegree(BgElement.dy_delta(1), m)) == {(0,)}
    assert set(multidegree(BgElement.term(1, 1, (1,), 1), m)) == {(-1,)}
    m2 = MonomialModel(2, [1, 1])
    assert set(multidegree(BgElement.term(2, 1, (0, 0), 1), m2)) == {(-1, -1)}
    mixed = BgElement(2, {((0, 0), 0): F(1), ((1, 0), 0): F(2)})
    parts = multidegree(mixed, m2)
    assert set(parts) == {(0, 0), (1, 0)} and all(len(p.terms) == 1 for p in parts.values())


def test_element_normal_form():
    u = BgElement(1, {((0,), 0): F(1)}) + BgElement(1, {((0,), 0): F(-1)})
    assert u.is_zero()
    with pytest.raises(InputError):
        BgElement(1, {((-1,), 0): F(1)})
    with pytest.raises(InputError):
        BgElement(2, {((0,), 0): F(1)})


def test_textual_roundtrips():
    e = parse_element("3/2 y^(1,0) dy dt^2 delta", 2)
    assert e == BgElement.term(2, F(3, 2), (1, 0), 2)
    assert parse_element(format_element(e), 2) == e
    e2 = parse_element("dy delta + -2 y^(0,1) dy dt delta", 2)
    assert parse_element(format_element(e2), 2) == e2
    op = parse_operator("y1^2 d1 dt", 2)
    assert op == WeylOperator(2, {((2, 0), 0, (1, 0), 1): F(1)})
    assert parse_operator(format_operator(op), 2) == op
    assert format_element(BgElement(1)) == "0"
    with pytest.raises(InputError):
        parse_element("y^(1) delta", 1)  # missing dy
    with pytest.raises(InputError):
        parse_operator("d5", 2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_compose_one_variable_commutation(b1, a2, e1, s2):
    # d^b y^a and dt^e t^s re-normalize consistently: check via action on
    # polynomial-like states through associativity
    n = 1
    P = WeylOperator(n, {((0,), 0, (b1,), e1): F(1)})
    Q = WeylOperator(n, {((a2,), s2, (0,), 0): F(1)})
    model = MonomialModel(1, [1])
    u = BgElement.term(1, 1, (2,), 1)
    assert act_right(u, compose(P, Q), model) == act_right(
        act_right(u, P, model), Q, model
    )
