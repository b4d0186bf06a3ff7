"""The twisted Koszul complexes, their graded cohomology, and the machine
checks of the resolution, quotient, and monodromy identifications."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from minexp_lab.cli import catalog
from minexp_lab.divisors import jump_candidates, round_gt, round_up
from minexp_lab.koszul import (
    GradedCbar,
    N_operator,
    _check_twist,
    _compositions,
    annihilator_generators,
    augmentation_zero_check,
    build_cbar,
    generators_commute,
    graded_cohomology,
    sigma_alpha,
    sigma_generator,
    verify_thm42_i,
    verify_thm42_ii,
    verify_thm42_iii,
)
from minexp_lab.rationals import InputError, exact_rank
from minexp_lab.vfilt import Level, TruncationBox, count_gr, spanning_set, v_member, v_order
from minexp_lab.weyl import (
    BgElement,
    MonomialModel,
    WeylOperator,
    act_right,
    compose,
)

Y2 = MonomialModel(1, [2])
Y11 = MonomialModel(2, [1, 1])
Y23 = MonomialModel(2, [2, 3])
Y123 = MonomialModel(3, [1, 2, 3])
Y111 = MonomialModel(3, [1, 1, 1])


def test_build_cbar_examples():
    # n = 1: no generators, complex concentrated in degree 0
    fkc = build_cbar(Y2, [1])
    assert fkc.symbols == () and fkc.rank(0) == 1 and fkc.rank(-1) == 0
    # g = y1 y2, G = D_1 = (1,1): single generator y2 d2 - y1 d1
    fkc = build_cbar(Y11, [1, 1])
    want = compose(WeylOperator.y(2, 1), WeylOperator.dy(2, 1)) - compose(
        WeylOperator.y(2, 0), WeylOperator.dy(2, 0)
    )
    assert fkc.generators[2] == want
    # g = y1^2 y2^3 at alpha = 1/2, G = (1,2): constant 2/3 - 1/2 appears
    G = round_up(Y23.divisor(), F(1, 2))
    assert G.coeffs == (1, 2)
    gen = annihilator_generators(Y23, G)[2]
    want = (
        compose(WeylOperator.y(2, 1), WeylOperator.dy(2, 1)).scale(F(1, 3))
        - compose(WeylOperator.y(2, 0), WeylOperator.dy(2, 0)).scale(F(1, 2))
        + WeylOperator.scalar(2, F(2, 3) - F(1, 2))
    )
    assert gen == want
    with pytest.raises(InputError):
        build_cbar(Y23, [1, 2, 3])
    with pytest.raises(InputError):
        build_cbar(Y23, [-1, 0])
    # a twist is read as plain ints, never coerced
    for bad in ([1.9], [True]):
        with pytest.raises(InputError):
            GradedCbar(Y2, bad)


def test_generators_commute():
    for model in [Y11, Y23, Y123, Y111, MonomialModel(3, [2, 4])]:
        for alpha in jump_candidates(model.divisor(), 0, 1):
            assert generators_commute(model, round_up(model.divisor(), alpha))


def test_differential_squares_to_zero():
    rng = random.Random(0)
    from minexp_lab.koszul import _random_yd_operator

    for model in [Y123, Y111, MonomialModel(3, [2, 4])]:
        fkc = build_cbar(model, round_up(model.divisor(), F(1, 2)))
        syms = fkc.symbols
        for _ in range(8):
            x = {}
            for size in (0, 1):
                for S in itertools.combinations(syms, size):
                    if rng.random() < 0.6:
                        x[S] = _random_yd_operator(rng, model.n)
            if not x:
                continue
            dd = fkc.differential(fkc.differential(x))
            assert all(Q.is_zero() for Q in dd.values())


def test_sigma_examples():
    assert sigma_alpha(Y2, F(1, 2)) == BgElement.term(1, 2, (0,), 0)
    assert sigma_alpha(Y11, F(1)) == BgElement.dy_delta(2)
    assert sigma_alpha(MonomialModel(1, [3]), F(2, 3)) == BgElement.term(1, 3, (1,), 0)
    with pytest.raises(InputError):
        sigma_alpha(Y2, 0)


def test_sigma_lands_in_V():
    rng = random.Random(5)
    from minexp_lab.koszul import _random_yd_operator

    for model in [Y2, Y11, Y23]:
        for alpha in jump_candidates(model.divisor(), 0, 1):
            assert v_member(sigma_alpha(model, alpha), alpha, model)
            for _ in range(8):
                x = sigma_alpha(model, alpha, _random_yd_operator(rng, model.n))
                assert v_member(x, alpha, model)


def test_augmentation_zero():
    assert augmentation_zero_check(Y11, F(1))["status"] == "PASS"
    assert augmentation_zero_check(Y23, F(1, 2))["status"] == "PASS"
    # length-0 complex: vacuous pass
    rep = augmentation_zero_check(Y2, F(1, 2))
    assert rep["status"] == "PASS" and rep["checks"][0].get("vacuous")
    assert augmentation_zero_check(Y123, F(1, 3))["status"] == "PASS"


def test_thm42_iii_hand_instance():
    # g = y^2, alpha = 1/2: both routes give 2 y^2 dy dt delta
    base = sigma_generator(Y2, F(1, 2))
    lhs = act_right(base, N_operator(Y2, F(1, 2)), Y2)
    rhs = act_right(base, WeylOperator.theta(1).scale(-1), Y2)
    assert lhs == rhs == BgElement.term(1, 2, (2,), 1)
    # zero input: 0 = 0
    zero = BgElement(1)
    assert act_right(zero, N_operator(Y2, F(1, 2)), Y2).is_zero()


def test_thm42_iii_reports():
    assert verify_thm42_iii(Y2, F(1, 2))["status"] == "PASS"
    assert verify_thm42_iii(Y11, F(1))["status"] == "PASS"
    assert verify_thm42_iii(Y123, F(1, 6), samples=10)["status"] == "PASS"


def test_graded_cohomology_examples():
    # g = y1 y2, G = (1,1), p = 0: H^{-1} = 0 everywhere, H^0 at (0,0) is 1
    t = graded_cohomology(Y11, [1, 1], 0, TruncationBox.radius(2, 4))
    assert all(q == 0 for (_, q) in t.dims)
    assert t.get(((0, 0), 0)) == 1
    # g = y^2: single-term complex, H^0 = the term, any p
    for p in (-1, 0, 2):
        t = graded_cohomology(Y2, [1], p, TruncationBox.radius(1, 4))
        assert all(q == 0 for (_, q) in t.dims)
    # n = r = 3 reduced: Koszul acyclicity in negative degrees
    t = graded_cohomology(Y111, [1, 1, 1], 0, TruncationBox.radius(3, 2))
    assert all(q == 0 for (_, q) in t.dims)


def _naive_graded_cohomology(model: MonomialModel, G, p, d, G_deeper=None):
    """Reference for GradedCbar: assemble the full per-multidegree complex in
    all n variables and take ranks, with none of the factoring or caching
    of the core computation; quadratically slower."""
    n, r = model.n, model.r
    c_lo = _check_twist(model, G) + (0,) * (n - r)
    c_hi = (
        _check_twist(model, G_deeper) + (0,) * (n - r)
        if G_deeper is not None
        else None
    )
    syms = tuple(range(2, n + 1))

    def formdeg(S):
        return tuple(1 if (j + 1 in S and j + 1 > r) else 0 for j in range(n))

    def basis(s):
        out = []
        for S in itertools.combinations(syms, s):
            fd = formdeg(S)
            for w in _compositions(p + s, n):
                v = tuple(
                    d[i] + 1 - fd[i] - c_lo[i] + w[i] for i in range(n)
                )
                if any(x < 0 for x in v):
                    continue
                if c_hi is not None and all(
                    v[i] >= c_hi[i] - c_lo[i] for i in range(r)
                ):
                    continue
                out.append((S, w))
        return out

    a_ext = model.a_ext
    bases = [basis(s) for s in range(n)]
    index = [{lbl: k for k, lbl in enumerate(b)} for b in bases]
    lcm = 1
    for x in model.a:
        lcm = lcm * x // math.gcd(lcm, x)
    ranks = [0] * n
    for s in range(n - 1):
        rows = []
        tgt = index[s + 1]
        for S, w in bases[s]:
            row = {}
            for k in syms:
                if k in S:
                    continue
                sign = (-1) ** sum(1 for x in S if x < k)
                T = tuple(sorted(S + (k,)))
                if k <= r:
                    pairs = (
                        (k - 1, sign * lcm // a_ext[k - 1]),
                        (0, -sign * lcm // a_ext[0]),
                    )
                else:
                    pairs = ((k - 1, sign * lcm),)
                for coord, coeff in pairs:
                    wk = list(w)
                    wk[coord] += 1
                    col = tgt.get((T, tuple(wk)))
                    if col is not None:
                        row[col] = row.get(col, 0) + coeff
            rows.append({c: v for c, v in row.items() if v})
        ranks[s] = exact_rank(rows)
    dims = {}
    for s in range(n):
        h = len(bases[s]) - ranks[s] - (ranks[s - 1] if s > 0 else 0)
        if h:
            dims[s - (n - 1)] = h
    return dims


def test_graded_cohomology_matches_naive():
    rng = random.Random(123)
    models = [Y2, Y11, Y23, Y123, Y111, MonomialModel(3, [2, 4]), MonomialModel(2, [4])]
    for model in models:
        D = model.divisor()
        for alpha in (F(1, 2), F(1)):
            pairs = [(round_up(D, alpha), None), (round_up(D, alpha), round_gt(D, alpha))]
            for G, Gd in pairs:
                gc = GradedCbar(model, G, Gd)
                for _ in range(20):
                    p = rng.randint(1 - model.n, 3)
                    d = tuple(rng.randint(-4, 4) for _ in range(model.n))
                    assert gc.cohomology(p, d) == _naive_graded_cohomology(
                        model, G, p, d, Gd
                    )


def test_cohomology_grid_matches_naive():
    # every catalog level in (0, 1] with p in -n-1..3 on a radius-2 box, for
    # C-bar_{D_alpha} and for the quotient by C-bar_{D_{>alpha}}; the two
    # lowest p have cap = p + n - 1 < 0
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    for lvl in levels:
        model, G = lvl.model, lvl.twist
        box = TruncationBox.radius(model.n, 2)
        for p in range(-model.n - 1, 4):
            for Gd in (None, lvl.deeper.twist):
                grid = GradedCbar(model, G, Gd).cohomology_grid(p, box)
                assert grid == [
                    _naive_graded_cohomology(model, G, p, d, Gd) for d in box
                ], (model, lvl.alpha, p, Gd)


def test_thm42_i_examples():
    for model, alpha in [(Y2, F(1, 2)), (Y11, F(1)), (Y23, F(1, 3))]:
        box = TruncationBox.radius(model.n, 5)
        rep = verify_thm42_i(model, alpha, range(-model.n, 3), box)
        assert rep["status"] == "PASS"


def test_thm42_ii_examples():
    box = TruncationBox.radius(1, 5)
    rep = verify_thm42_ii(Y2, F(1, 2), range(-1, 2), box)
    assert rep["status"] == "PASS"
    # total H^0 across the sweep equals the graded nearby-cycle dimensions,
    # already asserted per-degree inside; here: nonzero at a true jump
    assert any(c.get("total_H0", 0) > 0 for c in rep["checks"])
    # no jump of the quotient at alpha = 1/2 for the reduced normal crossing
    rep = verify_thm42_ii(Y11, F(1, 2), range(-2, 3), TruncationBox.radius(2, 4))
    assert rep["status"] == "PASS"
    assert all(c.get("total_H0", 0) == 0 for c in rep["checks"])
    rep = verify_thm42_ii(Y11, F(1), range(-2, 3), TruncationBox.radius(2, 4))
    assert rep["status"] == "PASS"
    assert any(c.get("total_H0", 0) > 0 for c in rep["checks"])


def test_inclusion_functoriality():
    # adjacent jump values alpha < alpha': the H^0 labels embed via the twist
    # monomial and the augmentations agree on them; on the V side the deeper
    # spanning elements are members at the shallower level
    for model in [Y2, Y23, Y123]:
        cands = jump_candidates(model.divisor(), 0, 1)
        box = TruncationBox.radius(model.n, 3)
        for alpha, alpha2 in zip(cands, cands[1:]):
            for p in range(0, 3):
                for d in box:
                    assert count_gr(Level(model, alpha2), p, d) <= count_gr(
                        Level(model, alpha), p, d
                    )
            for d in box:
                for u in spanning_set(1, alpha2, d, model):
                    assert v_member(u, alpha, model)


def test_t_multiplication_corresponds_to_g_twist():
    # the isomorphism V_{-alpha} -> V_{-alpha-1} by .t matches the g-twist
    # of complexes: labels shift by the exponent vector, V-orders drop by 1
    t_op = WeylOperator.t(2)
    for model in [Y11, Y23]:
        a = model.a_ext
        for alpha in jump_candidates(model.divisor(), 0, 1):
            for p in range(0, 2):
                for d in [(0, 0), (1, 0), (0, 2)]:
                    shifted = tuple(d[i] + a[i] for i in range(2))
                    assert count_gr(Level(model, alpha), p, d) == count_gr(
                        Level(model, alpha + 1), p, shifted
                    )
            u = sigma_alpha(model, alpha)
            ut = act_right(u, t_op, model)
            assert v_order(u, model, alpha) == alpha
            assert v_order(ut, model, alpha + 1) == alpha + 1


def test_regular_sequence_certificate():
    # negative-degree vanishing of the graded complex over a model sample,
    # all Hodge levels: the symbols cut a regular sequence
    for model in [Y23, Y123, Y111, MonomialModel(3, [2, 2, 2])]:
        box = TruncationBox.radius(model.n, 3)
        for alpha in jump_candidates(model.divisor(), 0, 1):
            G = round_up(model.divisor(), alpha)
            for p in range(1 - model.n, 3):
                t = graded_cohomology(model, G, p, box)
                assert all(q == 0 for (_, q) in t.dims)


def test_filtration_shift_bookkeeping():
    fkc = build_cbar(Y123, [1, 1, 1])
    assert [fkc.rank(c) for c in (-2, -1, 0)] == [1, 2, 1]
    assert fkc.filtration_shift(0) == -1
    assert fkc.filtration_shift(-2) == -3
