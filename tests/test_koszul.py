"""The twisted Koszul complexes, their graded cohomology, and the machine
checks of the resolution, quotient, and monodromy identifications."""

import hashlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from minexp_lab import cbar, koszul, rationals, vfilt
from minexp_lab.cli import catalog, run
from minexp_lab.commands import report_to_json
from minexp_lab.divisors import jump_candidates
from minexp_lab.cbar import (
    N_operator,
    annihilator_generators,
    augmentation_zero_check,
    build_cbar,
    verify_thm42_iii,
)
from minexp_lab.koszul import (
    GradedCbar,
    _check_twist,
    _compositions,
    sigma_generator,
    verify_thm42_i,
    verify_thm42_ii,
)
from minexp_lab.rationals import InputError, VerificationError, exact_rank, format_rational
from minexp_lab.vfilt import (
    Level,
    TruncationBox,
    _check,
    v_member,
    v_order,
)
from minexp_lab.weyl import (
    BgElement,
    MonomialModel,
    WeylOperator,
    act_right,
    compose,
)

from oracles import count_gr, dy_delta, gr_label_grid, one_term, op_t, round_gt, round_up, spanning_set


def _fail(report, name, **info):
    return _check(report, name, ok=False, **info)


def generators_commute(model: MonomialModel, G) -> bool:
    gens = list(annihilator_generators(model, G).values())
    return all(
        compose(P, Q) == compose(Q, P)
        for P, Q in itertools.combinations(gens, 2)
    )


def sigma_alpha(model: MonomialModel, alpha, x=None) -> BgElement:
    """The augmentation on degree-0 cochains: e_full (x) Q |-> base . Q,
    extended operator-linearly; x may be an operator, a cochain dict, or
    None for the canonical generator."""
    base = sigma_generator(model, Level(model, alpha).alpha)
    if x is None:
        return base
    if isinstance(x, WeylOperator):
        return act_right(base, x, model)
    return cbar._augment(model, base, x)


def cohomology_grid(gc: GradedCbar, p, box: TruncationBox) -> list:
    """{cohomological degree: dim} of each multidegree piece of the box at
    Hodge index p, in box order; an empty dict where everything vanishes."""
    return koszul._spread(*gc.point_grid(p, box), {})


def graded_cohomology(model: MonomialModel, G, p, box: TruncationBox,
                      G_deeper=None) -> dict:
    """All cohomology dimensions of the graded Koszul complex per multidegree
    in the box, keyed by (multidegree, cohomological degree)."""
    gc = GradedCbar(model, G, G_deeper)
    table = {}
    for d, h in zip(box, cohomology_grid(gc, p, box)):
        for q, dim in h.items():
            table[(d, q)] = dim
    return table


Y2 = MonomialModel(1, [2])
Y11 = MonomialModel(2, [1, 1])
Y23 = MonomialModel(2, [2, 3])
Y123 = MonomialModel(3, [1, 2, 3])
Y111 = MonomialModel(3, [1, 1, 1])


def free_rank(fkc, cohdeg):
    """Free rank of the term of fkc in the given cohomological degree."""
    wedge = (fkc.model.n - 1) + cohdeg
    if not 0 <= wedge <= fkc.model.n - 1:
        return 0
    return math.comb(fkc.model.n - 1, wedge)


def test_build_cbar_examples():
    # n = 1: no generators, complex concentrated in degree 0
    fkc = build_cbar(Y2, [1])
    assert fkc.symbols == () and free_rank(fkc, 0) == 1 and free_rank(fkc, -1) == 0
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
    with pytest.raises(InputError, match="quotient twist must be deeper"):
        GradedCbar(Y23, [2, 2], [1, 3])


def test_generators_commute():
    for model in [Y11, Y23, Y123, Y111, MonomialModel(3, [2, 4])]:
        for alpha in jump_candidates(model.divisor(), 0, 1):
            assert generators_commute(model, round_up(model.divisor(), alpha))


def test_differential_squares_to_zero():
    rng = random.Random(0)
    from minexp_lab.cbar import _random_yd_operator

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
    assert sigma_alpha(Y2, F(1, 2)) == one_term(1, 2, (0,), 0)
    assert sigma_alpha(Y11, F(1)) == dy_delta(2)
    assert sigma_alpha(MonomialModel(1, [3]), F(2, 3)) == one_term(1, 3, (1,), 0)
    with pytest.raises(InputError):
        sigma_alpha(Y2, 0)


def test_sigma_lands_in_V():
    rng = random.Random(5)
    from minexp_lab.cbar import _random_yd_operator

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
    # a cochain off degree 0 has no augmentation
    with pytest.raises(InputError, match="degree-0 cochain"):
        cbar._augment(Y23, sigma_generator(Y23, F(1, 2)), {(): WeylOperator.one(2)})


def test_thm42_iii_hand_instance():
    # g = y^2, alpha = 1/2: both routes give 2 y^2 dy dt delta
    base = sigma_generator(Y2, F(1, 2))
    lhs = act_right(base, N_operator(Y2, F(1, 2)), Y2)
    rhs = act_right(base, WeylOperator.theta(1).scale(-1), Y2)
    assert lhs == rhs == one_term(1, 2, (2,), 1)
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
    assert all(q == 0 for (_, q) in t)
    assert t.get(((0, 0), 0), 0) == 1
    # g = y^2: single-term complex, H^0 = the term, any p
    for p in (-1, 0, 2):
        t = graded_cohomology(Y2, [1], p, TruncationBox.radius(1, 4))
        assert all(q == 0 for (_, q) in t)
    # n = r = 3 reduced: Koszul acyclicity in negative degrees
    t = graded_cohomology(Y111, [1, 1, 1], 0, TruncationBox.radius(3, 2))
    assert all(q == 0 for (_, q) in t)


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


def cohomology(gc: GradedCbar, p, d) -> dict:
    """{cohomological degree: dim} of the multidegree-d piece at Hodge index
    p; empty dict when everything vanishes."""
    d = tuple(d)
    return cohomology_grid(gc, p, TruncationBox(d, d))[0]


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
                    assert cohomology(gc, p, d) == _naive_graded_cohomology(
                        model, G, p, d, Gd
                    )


def test_cohomology_grid_matches_naive():
    # every catalog level in (0, 1] with p in -n-1..3 on a radius-2 box, for
    # C-bar_{D_alpha} and for the quotient by C-bar_{D_{>alpha}}; the two
    # lowest p have cap = p + n - 1 < 0
    for lvl in _catalog_levels():
        model, G = lvl.model, lvl.twist
        box = TruncationBox.radius(model.n, 2)
        for p in range(-model.n - 1, 4):
            for Gd in (None, lvl.deeper.twist):
                grid = cohomology_grid(GradedCbar(model, G, Gd), p, box)
                assert grid == [
                    _naive_graded_cohomology(model, G, p, d, Gd) for d in box
                ], (model, lvl.alpha, p, Gd)


def _catalog_levels():
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    return levels


def _reference_thm42_i(model, alpha, p_range, box):
    """The per-locus form of verify_thm42_i: every check at every locus, in
    box order, with the class representative from gr_class_rep."""
    lvl = Level(model, alpha)
    gc = GradedCbar(model, lvl.twist)
    report = {"status": "PASS", "checks": []}
    for p in p_range:
        loci = 0
        grid = zip(box, cohomology_grid(gc, p, box), koszul.gr_count_grid(lvl, p - 1, box))
        for d, h, want in grid:
            if any(q < 0 and dim for q, dim in h.items()):
                return _fail(
                    report, "thm42i-acyclicity", p=p, degree=list(d),
                    cohomology={str(q): v for q, v in sorted(h.items())},
                )
            h0 = h.get(0, 0)
            if h0 != want:
                return _fail(
                    report, "thm42i-H0-dims", p=p, degree=list(d), H0=h0, count45=want
                )
            if h0:
                rep = vfilt.gr_class_rep(lvl, p - 1, d)
                if rep is None or not rep.get(p - 1 + model.n):
                    return _fail(report, "thm42i-sigma-injective", p=p, degree=list(d))
                loci += 1
        report["checks"].append(
            {
                "name": "thm42i",
                "status": "PASS",
                "p": p,
                "alpha": format_rational(lvl.alpha),
                "nonzero_H0_loci": loci,
            }
        )
    return report


def _reference_thm42_ii(model, alpha, p_range, box):
    """The per-locus form of verify_thm42_ii."""
    lvl = Level(model, alpha)
    gq = GradedCbar(model, lvl.twist, lvl.deeper.twist)
    report = {"status": "PASS", "checks": []}
    for p in p_range:
        total = 0
        grid = zip(box, cohomology_grid(gq, p, box), koszul.grF_grV_grid(lvl, p - 1, box))
        for d, h, want in grid:
            if any(q != 0 and dim for q, dim in h.items()):
                return _fail(
                    report, "thm42ii-concentration", p=p, degree=list(d),
                    cohomology={str(q): v for q, v in sorted(h.items())},
                )
            h0 = h.get(0, 0)
            if h0 != want:
                return _fail(
                    report, "thm42ii-H0-dims", p=p, degree=list(d), H0=h0, grV_count=want
                )
            total += h0
        report["checks"].append(
            {
                "name": "thm42ii",
                "status": "PASS",
                "p": p,
                "alpha": format_rational(lvl.alpha),
                "total_H0": total,
            }
        )
    return report


def test_thm42_sweeps_match_reference():
    # every catalog level in (0, 1], radius 2, p in -n..3: the list-level
    # comparison reports exactly what the per-locus loops report
    for lvl in _catalog_levels():
        model = lvl.model
        box = TruncationBox.radius(model.n, 2)
        p_range = range(-model.n, 4)
        for new, ref in ((verify_thm42_i, _reference_thm42_i), (verify_thm42_ii, _reference_thm42_ii)):
            rep = new(model, lvl.alpha, p_range, box)
            assert rep["status"] == "PASS"
            assert rep == ref(model, lvl.alpha, p_range, box), (model, lvl.alpha)


# Planted errors: each FAIL check must equal the per-locus reference's, so it
# names the same first (check, p, degree) and the same fields.

# one free coordinate, so that a planted core point covers several loci
PLANT_MODEL, PLANT_ALPHA = MonomialModel(3, [2, 3]), F(1, 2)
PLANT_BOX = TruncationBox.radius(3, 2)
PLANT_P = range(-3, 4)


def _planted_fail(sweep, name):
    new = sweep(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)
    reference = {verify_thm42_i: _reference_thm42_i, verify_thm42_ii: _reference_thm42_ii}[sweep]
    assert new["status"] == "FAIL"
    assert new == reference(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)
    fail = new["checks"][-1]
    assert fail["name"] == name
    return fail


def _plant_points(monkeypatch, quotient, extra, target):
    """The core cohomology of the complex (or of the quotient) at the point
    of `target` gains the degrees in `extra`: a planted copy of the point's
    table entry, reached only by that point, so the plant reaches no other
    point that shares the entry.  Each divisor coordinate's column gives
    the target's x a new index of its own; `at` maps the combination of all
    the new indices to the copy and every other combination to the entry
    of the old indices it stands for."""
    inner = GradedCbar.point_grid

    def planted(self, p, box):
        table, at, columns, gates = inner(self, p, box)
        if (self.c_hi is not None) == quotient:
            ms = [max(ks) + 1 for ks in columns]
            spots = [x - lo for x, lo in zip(target, box.lo)]
            old = [ks[k] for ks, k in zip(columns, spots)]

            def combination(indices):
                c = 0
                for k, m in zip(indices, ms):
                    c = c * m + k
                return c

            entry = at[combination(old)]
            at = [
                len(table) if combo == tuple(ms)
                else at[combination([o if k == m else k for k, o, m in zip(combo, old, ms)])]
                for combo in itertools.product(*(range(m + 1) for m in ms))
            ]
            columns = [ks[:k] + [m] + ks[k + 1:] for ks, k, m in zip(columns, spots, ms)]
            table = table + [{**table[entry], **extra}]
        return table, at, columns, gates

    monkeypatch.setattr(GradedCbar, "point_grid", planted)


def _flip(monkeypatch, name, target, p_at=None):
    """One entry of koszul's count grid `name` flipped at `target` (at the
    Hodge index p_at only, when given)."""
    inner = getattr(koszul, name)

    def flipped(lvl, p, box):
        out = bytearray(inner(lvl, p, box))
        if p_at is None or p == p_at:
            k = list(box).index(target)
            out[k] = 1 - out[k]
        return out

    monkeypatch.setattr(koszul, name, flipped)


def _leads_of(listing):
    """gr_label_leads' {lead key: [u0, w, points]}, read off a per-locus
    listing of (d, u0, w) in box order."""
    leads = {}
    for _, u0, w in listing:
        leads.setdefault(vfilt.lead_key(u0, w), [u0, w, 0])[2] += 1
    return leads


def _drop_label(monkeypatch, target):
    """The Gr^F class at `target` goes missing: from gr_label, which the
    reference's gr_class_rep and the sweep's scan read, and from the lead
    map (gr_label_leads), whose point counts then fall one short."""
    label = vfilt.gr_label

    def dropped_leads(lvl, p, box):
        listing = ((d, u0, w) for d, u0, w in gr_label_grid(lvl, p, box) if d != target)
        return _leads_of(listing)

    def dropped_label(lvl, p, d):
        return None if tuple(d) == target else label(lvl, p, d)

    monkeypatch.setattr(koszul, "gr_label_leads", dropped_leads)
    monkeypatch.setattr(koszul, "gr_label", dropped_label)
    monkeypatch.setattr(vfilt, "gr_label", dropped_label)


def test_planted_thm42i_acyclicity(monkeypatch):
    _plant_points(monkeypatch, False, {-1: 1}, (1, -2, 2))
    fail = _planted_fail(verify_thm42_i, "thm42i-acyclicity")
    assert fail["degree"] == [1, -2, 0]  # the first locus of the point with d_3 >= 0
    assert fail["cohomology"]["-1"] == 1


def test_acyclicity_before_H0_at_one_locus(monkeypatch):
    _plant_points(monkeypatch, False, {-1: 1}, (1, -2, 0))
    _flip(monkeypatch, "gr_count_grid", (1, -2, 0))
    assert _planted_fail(verify_thm42_i, "thm42i-acyclicity")["degree"] == [1, -2, 0]


def test_planted_thm42i_H0_dims(monkeypatch):
    _flip(monkeypatch, "gr_count_grid", (0, 2, 1))
    assert _planted_fail(verify_thm42_i, "thm42i-H0-dims")["degree"] == [0, 2, 1]


def test_planted_thm42i_sigma_injective(monkeypatch):
    _drop_label(monkeypatch, (1, 1, 1))
    assert _planted_fail(verify_thm42_i, "thm42i-sigma-injective")["degree"] == [1, 1, 1]


def test_planted_thm42ii_concentration(monkeypatch):
    _plant_points(monkeypatch, True, {-1: 2}, (-1, 0, 1))
    fail = _planted_fail(verify_thm42_ii, "thm42ii-concentration")
    assert fail["degree"] == [-1, 0, 0] and fail["cohomology"]["-1"] == 2


def test_planted_thm42ii_H0_dims(monkeypatch):
    _flip(monkeypatch, "grF_grV_grid", (2, -1, 1))
    assert _planted_fail(verify_thm42_ii, "thm42ii-H0-dims")["degree"] == [2, -1, 1]


@pytest.mark.parametrize(
    "sweep, quotient, name",
    [(verify_thm42_i, False, "thm42i-H0-dims"), (verify_thm42_ii, True, "thm42ii-H0-dims")],
)
def test_planted_H0_past_one_byte(sweep, quotient, name, monkeypatch):
    # an H^0 of 256 at a locus where every count grid of the first p is 0:
    # a byte of 256 mod 256 would read 0 there and pass, so the sweep must
    # clamp, and the FAIL reads the true dimension from the table
    _plant_points(monkeypatch, quotient, {0: 256}, (1, -2, 0))
    fail = _planted_fail(sweep, name)
    assert fail["p"] == PLANT_P[0] and fail["degree"] == [1, -2, 0]
    assert fail["H0"] == 256


def _zero_leads_with_dy_weight(monkeypatch):
    """Every class representative with w_2 > 0 loses its lead; the first
    such locus in box order with H^0 != 0 fails thm42i-sigma-injective."""
    inner = koszul._expansion_orders

    def zeroed(model, u0, w, jmax):
        out = inner(model, u0, w, jmax)
        if w[1] > 0:
            out = [{**out[0], max(out[0]): 0}] + out[1:]
        return out

    monkeypatch.setattr(koszul, "_expansion_orders", zeroed)


# sha256 of report_to_json for verify-thm42 at box 4 with all jumps (jobs 1),
# recorded before the sweep checked one lead per key from the label tables
# and looked the core up once per translation class: unplanted, and under
# one plant per kind of FAIL, which every report must keep byte for byte
THM42_PLANTS = {
    "none": lambda mp: None,
    "acyclicity": lambda mp: _plant_points(mp, False, {-1: 1}, (1, -2, 2)),
    "H0-dims": lambda mp: _flip(mp, "gr_count_grid", (0, 2, 1)),
    "sigma-injective": _zero_leads_with_dy_weight,
    "grV-dims": lambda mp: _flip(mp, "grF_grV_grid", (2, -1, 1)),
}
THM42_REPORTS = {
    "none": {
        (1, (2,)): "cf4d4bf7a7c14ccdc3693724076db8d4515e64aa354f103594527f3a6b78480b",
        (2, (2, 3)): "8ce5e0afd0c5af5fdf335212986fbf3693119d06803588f59107b07ce6024849",
        (2, (3, 4)): "51db402d20b4217e2d73116952f7c84d44304a91b637e7bb88b05f7f585afd20",
        (3, (1, 2, 2)): "fb8007a65f18a90a1feeae161e547ecf69c7bdd7231966d30bdd53d57e100f16",
        (3, (2, 3)): "0911d2f788626e504e3afdec99da7fad127fd70527636c868cb22680a8583ae9",
        (3, (2, 2, 3)): "49675792ff7f44d4ca77c151fb176fd13ef6ad13925795ad4048fcb07bd87f51",
    },
    "acyclicity": {
        (3, (1, 2, 2)): "6399fb9684588ffecc932c39df63743fff2993d4e4638f39927fb1363a758202",
        (3, (2, 3)): "46a11ad52cc9bb77cf0b4eb22b8f8bc8b65a83ae97f4c6a15f1c452e501fa67a",
        (3, (2, 2, 3)): "12601a4ad07d14563492fdbb6b3f143d4a8c9652683b9841dcd9cfaf15dbe617",
    },
    "H0-dims": {
        (3, (1, 2, 2)): "3ced3fc6f771a502bcc54ea781c57448f6420a9dca87bac92dcc346bbd5b5981",
        (3, (2, 3)): "d0263533d34cedea49fe2dc620a170bd6f34ed2a1a18e9ec63e2f9c25cc05b03",
        (3, (2, 2, 3)): "0ecf2b9278ce51cc5700fe089598009075b8b53c7e4682984a99cb72418715fe",
    },
    "sigma-injective": {
        (3, (1, 2, 2)): "3b928f96683707a32d52181e34305b3ba4fc0cce3ad700643daa19ebbd4090d4",
        (3, (2, 3)): "222e6a49bf5cb0f2cccd6215636fc25eeba516732b047b0579978929f43427ee",
        (3, (2, 2, 3)): "c616a71d32e53958dcd17a6ba22a7da718f024e6aafc3647ff3793c8939aac64",
    },
    "grV-dims": {
        (3, (1, 2, 2)): "75e59e8534fe9591768e413a8a761a658f248ed892bc4789d285f07586bc8408",
        (3, (2, 3)): "69fd5e5e72736adf7d3d5b2c2fb236a4e0512b8e128238e5e0923508263e173a",
        (3, (2, 2, 3)): "7a095c75f3559e5db5018dcd1766a6a1372f006887c21a8195ccdc8662f91bd0",
    },
}


def _thm42_report_hashes(plant, monkeypatch):
    THM42_PLANTS[plant](monkeypatch)
    got = {}
    for n, exponents in THM42_REPORTS[plant]:
        config = {"command": "verify-thm42", "model": {"n": n, "exponents": list(exponents)}, "box": 4}
        report, code = run(config)
        assert code == (0 if plant == "none" else 2), (plant, n, exponents)
        got[n, exponents] = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    return got


@pytest.mark.parametrize("plant", sorted(THM42_REPORTS))
def test_thm42_report_bytes_pinned(plant, monkeypatch):
    assert _thm42_report_hashes(plant, monkeypatch) == THM42_REPORTS[plant]


def test_thm42_report_bytes_pinned_with_large_tables():
    # sha256 of report_to_json for verify-thm42 on (3, [4, 4, 4]) at box 6
    # with pmax 8, recorded before the sweeps compared byte grids: its core
    # tables reach 185 distinct results per point_grid
    config = {"command": "verify-thm42", "model": {"n": 3, "exponents": [4, 4, 4]}, "box": 6, "pmax": 8}
    report, code = run(config)
    assert code == 0
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == (
        "527f11f80e966221d0bf5a849b77e92e1dcfd6e1ba7d860f7eb22727996606f9"
    )


def test_sigma_failure_before_H0_mismatch(monkeypatch):
    # at one p, a missing class at an earlier locus wins over a count
    # mismatch at a later one
    p_at = None
    for p in PLANT_P:
        labels = [d for d, _, _ in gr_label_grid(Level(PLANT_MODEL, PLANT_ALPHA), p - 1, PLANT_BOX)]
        if len(labels) >= 2:
            p_at, first, later = p, labels[0], labels[-1]
            break
    _drop_label(monkeypatch, first)
    _flip(monkeypatch, "gr_count_grid", later, p_at - 1)
    fail = _planted_fail(verify_thm42_i, "thm42i-sigma-injective")
    assert fail["p"] == p_at and fail["degree"] == list(first)


def test_sigma_checks_the_lead_of_each_class(monkeypatch):
    # a class representative whose dt-order p - 1 + n coefficient vanished
    # fails thm42i-sigma-injective at its locus
    inner = koszul._expansion_orders
    target = []

    def zeroed(model, u0, w, jmax):
        out = inner(model, u0, w, jmax)
        if not target:
            target.append((u0, w))
        if (u0, w) == target[0]:
            top = max(out[0])
            out = [{**out[0], top: 0}] + out[1:]
        return out

    monkeypatch.setattr(koszul, "_expansion_orders", zeroed)
    rep = verify_thm42_i(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)
    fail = rep["checks"][-1]
    u0, w = target[0]
    assert fail["name"] == "thm42i-sigma-injective"
    assert tuple(fail["degree"]) == tuple(x - y for x, y in zip(u0, w))


def test_lead_fault_with_an_empty_lead_map_fails_every_level(monkeypatch):
    # the top order of every expansion with |w| >= 2 moved up one, and no
    # lead at all from the label tables: the leads' point counts (0) fall
    # short of the loci with H^0 != 0, so the sweep scans and reads each lead
    # through gr_label.  Every catalog level at radius 3 fails, at the first p
    # with H^0 != 0: the leads there have |w| < 2 and lead right, so no locus
    # fails, and the compare's disagreement with the scan is the failure
    inner = koszul._expansion_orders

    def raised(model, u0, w, jmax):
        out = inner(model, u0, w, jmax)
        if sum(w) >= 2:
            top = max(out[0])
            lead = {m: c for m, c in out[0].items() if m != top}
            out = [{**lead, top + 1: out[0][top]}] + out[1:]
        return out

    monkeypatch.setattr(koszul, "_expansion_orders", raised)
    monkeypatch.setattr(koszul, "gr_label_leads", lambda lvl, p, box: {})
    for lvl in _catalog_levels():
        model = lvl.model
        box, gc = TruncationBox.radius(model.n, 3), GradedCbar(model, lvl.twist)
        first = next(p for p in range(-3, 4) if any(koszul._h0_bytes(*gc.point_grid(p, box))))
        with pytest.raises(VerificationError, match=rf"^thm42i: .* p = {first} .* no locus"):
            verify_thm42_i(model, lvl.alpha, range(-3, 4), box)


def test_zero_expansion_is_a_fail(monkeypatch):
    # an expansion with no term has no lead: verify-thm42 records, per
    # alpha, one thm42i-sigma-injective FAIL at the first locus in box order
    # of the first p with H^0 != 0, and exits 2, with no traceback
    monkeypatch.setattr(koszul, "_expansion_orders", lambda model, u0, w, jmax: [{}])
    model, box = MonomialModel(2, [2, 3]), TruncationBox.radius(2, 2)
    config = {"command": "verify-thm42", "model": {"n": 2, "exponents": [2, 3]}, "box": 2}
    report, code = run(config)
    assert code == 2
    fails = [c for c in report["checks"] if c["status"] == "FAIL"]
    alphas = jump_candidates(model.divisor(), 0, 1)
    assert [c["alpha"] for c in fails] == [format_rational(a) for a in alphas]
    for fail, alpha in zip(fails, alphas):
        gc = GradedCbar(model, Level(model, alpha).twist)
        first = next(
            (p, list(d)) for p in range(-model.n, 4)
            for d, h in zip(box, cohomology_grid(gc, p, box)) if h.get(0)
        )
        assert fail["name"] == "thm42i-sigma-injective"
        assert (fail["p"], fail["degree"]) == first


def test_planted_bad_lead_shared_by_loci(monkeypatch):
    # the expansion of one key that several loci share, not the first key
    # the sweep looks up, gets a zero lead: the sweep checks that lead once,
    # and fails at the first locus in box order with the key, as the
    # per-locus reference does
    lvl = Level(PLANT_MODEL, PLANT_ALPHA)
    for p in PLANT_P:
        loci = {}
        for d, u0, w in gr_label_grid(lvl, p - 1, PLANT_BOX):
            loci.setdefault(vfilt.expansion_key(u0, w), []).append(d)
        shared = [k for k, ds in list(loci.items())[1:] if len(ds) >= 2]
        if shared:
            p_at, target = p, shared[0]
            break
    looked_up = []
    inner, inner_rep = vfilt._expansion_orders, vfilt.gr_class_rep

    def zeroed(model, u0, w, jmax):
        out = inner(model, u0, w, jmax)
        if vfilt.expansion_key(u0, w) == target:
            looked_up.append(u0)
            top = max(out[0])
            out = [{**out[0], top: 0}] + out[1:]
        return out

    def rep(lvl, p, d):
        try:
            return inner_rep(lvl, p, d)
        except AssertionError:  # gr_class_rep asserts against the planted lead
            return {}

    monkeypatch.setattr(koszul, "_expansion_orders", zeroed)
    monkeypatch.setattr(vfilt, "_expansion_orders", zeroed)
    monkeypatch.setattr(vfilt, "gr_class_rep", rep)
    new = verify_thm42_i(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)
    assert len(looked_up) == 1
    assert new == _reference_thm42_i(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)
    fail = new["checks"][-1]
    assert fail["name"] == "thm42i-sigma-injective"
    assert fail["p"] == p_at and tuple(fail["degree"]) == loci[target][0]


def test_one_lead_per_expansion_key(monkeypatch):
    # loci whose expansions share a key share one lookup
    inner = koszul._expansion_orders
    keys = []

    def recorded(model, u0, w, jmax):
        keys.append(vfilt.expansion_key(u0, w))
        return inner(model, u0, w, jmax)

    monkeypatch.setattr(koszul, "_expansion_orders", recorded)
    box = TruncationBox.radius(3, 6)
    rep = verify_thm42_i(PLANT_MODEL, PLANT_ALPHA, PLANT_P, box)
    assert rep["status"] == "PASS"
    loci = sum(c["nonzero_H0_loci"] for c in rep["checks"])
    # keys of different p differ in |w|, so no key repeats in the whole sweep
    assert len(set(keys)) == len(keys) < loci


def test_lead_key_is_exact():
    # on every catalog level in (0, 1] at radius 2 with p in -n-1..3, the
    # sweep's lead key and vfilt.expansion_key split gr_label_grid's loci
    # into the same classes; a key of w alone would give 35,509 loci the
    # lead of another expansion (all loci of a w but its largest class)
    merged = 0
    for lvl in _catalog_levels():
        box = TruncationBox.radius(lvl.model.n, 2)
        for p in range(-lvl.model.n - 1, 4):
            pairs, by_w = set(), {}
            for d, u0, w in gr_label_grid(lvl, p, box):
                key = vfilt.expansion_key(u0, w)
                pairs.add((vfilt.lead_key(u0, w), key))
                by_w.setdefault(w, {}).setdefault(key, 0)
                by_w[w][key] += 1
            assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs}), (
                lvl.model, lvl.alpha, p,
            )
            merged += sum(sum(c.values()) - max(c.values()) for c in by_w.values())
    assert merged == 35509


def test_expansion_key_once_per_distinct_key(monkeypatch):
    # the sweep keys its leads without vfilt.expansion_key: the expansion
    # cache reads it once per distinct key, not once per labelled locus
    box = TruncationBox.radius(3, 6)
    lvl = Level(PLANT_MODEL, PLANT_ALPHA)
    distinct = {
        vfilt.expansion_key(u0, w)
        for p in PLANT_P
        for _, u0, w in gr_label_grid(lvl, p - 1, box)
    }
    inner, calls = vfilt.expansion_key, []

    def counted(u0, w):
        calls.append(1)
        return inner(u0, w)

    monkeypatch.setattr(vfilt, "expansion_key", counted)
    monkeypatch.setattr(koszul, "expansion_key", counted, raising=False)
    rep = verify_thm42_i(PLANT_MODEL, PLANT_ALPHA, PLANT_P, box)
    assert rep["status"] == "PASS"
    loci = sum(c["nonzero_H0_loci"] for c in rep["checks"])
    assert 0 < len(calls) <= len(distinct) < loci


def _walked(*args):
    raise AssertionError("a passing sweep visited the loci")


def test_passing_thm42i_never_walks_the_loci(monkeypatch):
    # every catalog level in (0, 1] at radius 2 with p in -n..3: the sweep
    # passes from the leads' point counts and one lead per key, never scans
    # the loci or reads a per-locus label, and reports what the per-locus
    # reference reports
    monkeypatch.setattr(koszul, "_scan", _walked)
    monkeypatch.setattr(koszul, "gr_label", _walked)
    for lvl in _catalog_levels():
        model = lvl.model
        box = TruncationBox.radius(model.n, 2)
        p_range = range(-model.n, 4)
        rep = verify_thm42_i(model, lvl.alpha, p_range, box)
        assert rep["status"] == "PASS"
        assert rep == _reference_thm42_i(model, lvl.alpha, p_range, box), (model, lvl.alpha)


def test_passing_sweeps_never_build_the_point_index(monkeypatch):
    # a passing sweep of every alpha of PLANT_MODEL at radius 6 compares
    # box-order bytes joined per combination of the divisor columns; only a
    # failing sweep (and cohomology_grid above) index the table point by
    # point, through _spread
    def built(*grid):
        raise AssertionError("a passing sweep spread the table point by point")

    monkeypatch.setattr(koszul, "_spread", built)
    box = TruncationBox.radius(3, 6)
    for alpha in jump_candidates(PLANT_MODEL.divisor(), 0, 1):
        assert verify_thm42_i(PLANT_MODEL, alpha, PLANT_P, box)["status"] == "PASS"
        assert verify_thm42_ii(PLANT_MODEL, alpha, PLANT_P, box)["status"] == "PASS"


def test_extra_class_where_H0_vanishes_is_a_verification_error(monkeypatch):
    # the label kernels list one more class, at a locus whose free
    # coordinate is negative, so H^0 = 0 there at every p: the leads' point
    # counts sum to one more than the loci with H^0 != 0, so the compare
    # fails at the first p.  The box-order scan, like the reference, reads
    # labels only where H^0 != 0 and finds no failing locus, so the sweep
    # raises the disagreement there instead of passing
    target = (0, 0, -1)
    label, scan = vfilt.gr_label, koszul._scan
    walks = []

    def extra(lvl, p):
        top = max(p + lvl.model.n, 0)
        return (target[0] + top, max(target[1], lvl.b[1]), target[2]), (top, 0, 0)

    def extra_label(lvl, p, d):
        if tuple(d) != target:
            return label(lvl, p, d)
        u0, w = extra(lvl, p)
        return tuple(x - y for x, y in zip(u0, lvl.b)), w

    def extra_leads(lvl, p, box):
        listed = {d: (u0, w) for d, u0, w in gr_label_grid(lvl, p, box)}
        listed[target] = extra(lvl, p)
        return _leads_of((d, *listed[d]) for d in box if d in listed)

    def walked(p, *args):
        walks.append(p)
        return scan(p, *args)

    reference = _reference_thm42_i(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)
    monkeypatch.setattr(koszul, "_scan", walked)
    monkeypatch.setattr(koszul, "gr_label", extra_label)
    monkeypatch.setattr(koszul, "gr_label_leads", extra_leads)
    first = PLANT_P[0]
    with pytest.raises(VerificationError, match=rf"^thm42i: .* p = {first} .* where no locus of the box does$"):
        verify_thm42_i(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)
    assert reference["status"] == "PASS"
    assert walks == [first]


def test_h0_bytes_match_the_spread_table():
    # the pass path's H^0 bytes and the scan's per-locus table read the same
    # clamped H^0 at every locus: both GradedCbars of every catalog level in
    # (0, 1] at radius 2 with p in -n-1..4 (the two lowest have cap < 0), and
    # of every level of PLANT_MODEL and of (3, [3]) (169 gates per point) at
    # radius 6; one GradedCbar serves every p, as in a sweep
    cases = [(lvl, TruncationBox.radius(lvl.model.n, 2)) for lvl in _catalog_levels()]
    wide = TruncationBox.radius(3, 6)
    cases += [
        (Level(model, alpha), wide)
        for model in (PLANT_MODEL, MonomialModel(3, [3]))
        for alpha in jump_candidates(model.divisor(), 0, 1)
    ]
    for lvl, box in cases:
        model = lvl.model
        for Gd in (None, lvl.deeper.twist):
            gc = GradedCbar(model, lvl.twist, Gd)
            for p in range(-model.n - 1, 5):
                grid = gc.point_grid(p, box)
                spread = bytes(min(h.get(0, 0), 2) for h in koszul._spread(*grid, {}))
                assert koszul._h0_bytes(*grid) == spread, (model, lvl.alpha, Gd, p)


def test_box_columns_built_once_per_box(monkeypatch):
    # point_grid's per-box part (the gates and the unclamped bounds) is
    # built once per sweep call over PLANT_P, not once per p, and a
    # GradedCbar asked for two boxes keeps only the last one's
    inner = GradedCbar._box_columns
    built = []

    def counted(self, box):
        built.append((self.c_hi is not None, box.lo, box.hi))
        return inner(self, box)

    monkeypatch.setattr(GradedCbar, "_box_columns", counted)
    here = (PLANT_BOX.lo, PLANT_BOX.hi)
    assert verify_thm42_i(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)["status"] == "PASS"
    assert built == [(False, *here)]
    assert verify_thm42_ii(PLANT_MODEL, PLANT_ALPHA, PLANT_P, PLANT_BOX)["status"] == "PASS"
    assert built == [(False, *here), (True, *here)]
    lvl = Level(PLANT_MODEL, PLANT_ALPHA)
    gc = GradedCbar(PLANT_MODEL, lvl.twist, lvl.deeper.twist)
    other = TruncationBox.radius(3, 3)
    # gc builds on a new box only (the third ask repeats the second); a
    # fresh GradedCbar, the reference, always builds
    for box, builds in ((PLANT_BOX, 2), (other, 2), (other, 1), (PLANT_BOX, 2)):
        built.clear()
        grid = gc.point_grid(1, box)
        assert grid == GradedCbar(PLANT_MODEL, lvl.twist, lvl.deeper.twist).point_grid(1, box)
        assert len(built) == builds
        assert gc._box[0] == (box.lo, box.hi)


def test_passing_sweep_work_per_key_and_class(monkeypatch):
    # a passing sweep of PLANT_MODEL at radius 6 never visits the loci, asks
    # for one expansion per distinct lead key, and per point_grid looks the
    # core up once per translation class (omega - |tlo|, thi - tlo) of the
    # combinations of clamped bounds, leaving out thi = tlo (the quotient is
    # 0 there)
    box = TruncationBox.radius(3, 6)
    n, r = PLANT_MODEL.n, PLANT_MODEL.r
    alphas = jump_candidates(PLANT_MODEL.divisor(), 0, 1)
    keys = {
        alpha: sum(
            len({vfilt.lead_key(u0, w) for _, u0, w in gr_label_grid(Level(PLANT_MODEL, alpha), p - 1, box)})
            for p in PLANT_P
        )
        for alpha in alphas
    }
    inner_orders, inner_grid, inner_dims = (
        koszul._expansion_orders, GradedCbar.point_grid, koszul.CoreCohomology.dims,
    )
    orders, dims = [], []

    def counted_orders(model, u0, w, jmax):
        orders.append(vfilt.lead_key(u0, w))
        return inner_orders(model, u0, w, jmax)

    def counted_dims(self, *args):
        dims[-1] += 1
        return inner_dims(self, *args)

    def checked_grid(self, p, box):
        dims.append(0)
        out = inner_grid(self, p, box)
        omega = p + n - r
        cap = omega + r - 1

        def clamp(c, i, x):
            return None if c is None else min(max(c[i] - 1 - x, 0), cap + 1)

        columns = [
            {(clamp(self.c_lo, i, x), clamp(self.c_hi, i, x)) for x in range(box.lo[i], box.hi[i] + 1)}
            for i in range(r)
        ]
        classes = set()
        for combo in itertools.product(*columns):
            tlo, thi = zip(*combo)
            if self.c_hi is None:
                classes.add(omega - sum(tlo))
            elif thi != tlo:
                classes.add((omega - sum(tlo), tuple(h - l for l, h in combo)))
        assert dims[-1] == (len(classes) if cap >= 0 else 0), (p, dims[-1], len(classes))
        return out

    monkeypatch.setattr(koszul, "_scan", _walked)
    monkeypatch.setattr(koszul, "gr_label", _walked)
    monkeypatch.setattr(koszul, "_expansion_orders", counted_orders)
    monkeypatch.setattr(koszul.CoreCohomology, "dims", counted_dims)
    monkeypatch.setattr(GradedCbar, "point_grid", checked_grid)
    for alpha in alphas:
        orders.clear()
        rep = verify_thm42_i(PLANT_MODEL, alpha, PLANT_P, box)
        assert rep["status"] == "PASS"
        assert len(orders) == len(set(orders)) == keys[alpha], alpha
        assert verify_thm42_ii(PLANT_MODEL, alpha, PLANT_P, box)["status"] == "PASS"
    assert len(dims) == 2 * len(alphas) * len(PLANT_P) and sum(dims) > 0


def test_core_looked_up_once_per_distinct_signature(monkeypatch):
    # per point_grid, at most one CoreCohomology.dims call per combination
    # of the distinct clamped bounds (tlo_i, thi_i) of the divisor coordinates
    model = MonomialModel(3, [2, 3])
    box = TruncationBox.radius(3, 6)
    inner_grid, inner_dims = GradedCbar.point_grid, koszul.CoreCohomology.dims
    calls = []

    def counted_dims(self, *args):
        calls[-1] += 1
        return inner_dims(self, *args)

    def checked_grid(self, p, box):
        calls.append(0)
        out = inner_grid(self, p, box)
        cap = p + model.n - 1

        def clamp(c, i, x):
            return None if c is None else min(max(c[i] - 1 - x, 0), cap + 1)

        bound = 1
        for i in range(model.r):
            axis = range(box.lo[i], box.hi[i] + 1)
            bound *= len({(clamp(self.c_lo, i, x), clamp(self.c_hi, i, x)) for x in axis})
        assert calls[-1] <= bound, (p, calls[-1], bound)
        assert len(out[0]) <= bound, (p, len(out[0]), bound)
        return out

    monkeypatch.setattr(koszul.CoreCohomology, "dims", counted_dims)
    monkeypatch.setattr(GradedCbar, "point_grid", checked_grid)
    for alpha in jump_candidates(model.divisor(), 0, 1):
        assert verify_thm42_ii(model, alpha, range(-3, 4), box)["status"] == "PASS"
    assert sum(calls) > 0


def _untranslated_dims(core, omega, tlo, thi=None):
    """Reference for CoreCohomology.dims: the complex of the signature
    (omega, tlo, thi) assembled on its own weights w >= tlo, with no
    translation and no cache."""
    r = core.r

    def basis(wedge):
        out = []
        for S in itertools.combinations(range(1, r), wedge):
            rem = omega + wedge - sum(tlo)
            if rem < 0:
                continue
            for u in _compositions(rem, r):
                w = tuple(tlo[i] + u[i] for i in range(r))
                if thi is not None and all(w[i] >= thi[i] for i in range(r)):
                    continue
                out.append((S, w))
        return out

    bases = [basis(W) for W in range(r)]
    index = [{lbl: k for k, lbl in enumerate(b)} for b in bases]
    ranks = [0] * r
    for W in range(r - 1):
        if not bases[W] or not bases[W + 1]:
            continue
        rows = []
        for S, w in bases[W]:
            row = {}
            for k in range(1, r):
                if k in S:
                    continue
                sign = (-1) ** sum(1 for s in S if s < k)
                T = tuple(sorted(S + (k,)))
                for coord, coeff in ((k, sign * core.lcm // core.a[k]),
                                     (0, -sign * core.lcm // core.a[0])):
                    wk = list(w)
                    wk[coord] += 1
                    col = index[W + 1].get((T, tuple(wk)))
                    if col is not None:
                        row[col] = row.get(col, 0) + coeff
            rows.append({c: v for c, v in row.items() if v})
        ranks[W] = exact_rank(rows)
    dims = {}
    for W in range(r):
        h = len(bases[W]) - ranks[W] - (ranks[W - 1] if W > 0 else 0)
        if h:
            dims[W - (r - 1)] = h
    return dims


def test_translation_class_key_is_exact():
    # for the complex and the quotient of every catalog level in (0, 1] at
    # radius 2 with p in -n..3, point_grid's table entry at every combination
    # of the divisor coordinates is the cohomology of that point's own
    # untranslated assembly (omega, tlo, thi), not only at the first
    # combination of each translation class
    untranslated, classes = {}, set()
    for lvl in _catalog_levels():
        model = lvl.model
        n, r = model.n, model.r
        box = TruncationBox.radius(n, 2)
        axes = [range(box.lo[i], box.hi[i] + 1) for i in range(r)]
        for Gd in (None, lvl.deeper.twist):
            gc = GradedCbar(model, lvl.twist, Gd)
            for p in range(-n, 4):
                table, at, columns, _ = gc.point_grid(p, box)
                omega = p + n - r
                cap = omega + r - 1

                def clamp(c, i, x):
                    return None if c is None else min(max(c[i] - 1 - x, 0), cap + 1)

                for xs in itertools.product(*(enumerate(axis) for axis in axes)):
                    combination = 0
                    for ks, (k, _) in zip(columns, xs):
                        combination = combination * (max(ks) + 1) + ks[k]
                    tlo = tuple(clamp(gc.c_lo, i, x) for i, (_, x) in enumerate(xs))
                    thi = None if Gd is None else tuple(clamp(gc.c_hi, i, x) for i, (_, x) in enumerate(xs))
                    sig = (model.a, omega, tlo, thi)
                    if sig not in untranslated:
                        untranslated[sig] = _untranslated_dims(gc.core, omega, tlo, thi)
                    assert table[at[combination]] == untranslated[sig], (lvl.model, lvl.alpha, p, sig)
                    classes.add((model.a, omega - sum(tlo), thi and tuple(h - l for l, h in zip(tlo, thi))))
    assert any(sig[3] is not None for sig in untranslated)
    assert len(classes) < len(untranslated)


def test_one_assembly_per_translation_class(monkeypatch):
    # signatures of one translation class share one assembly and one rank
    # per differential: 72 exact_rank calls and 140 core entries on this
    # sweep, where one entry per signature takes 640 calls and 3,212 entries
    model = MonomialModel(3, [2, 2, 3])
    box = TruncationBox.radius(3, 6)
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return exact_rank(rows)

    monkeypatch.setattr(koszul, "_CORE_CACHE", {})
    monkeypatch.setattr(rationals, "exact_rank", counted)
    for alpha in jump_candidates(model.divisor(), 0, 1):
        for sweep in (verify_thm42_i, verify_thm42_ii):
            assert sweep(model, alpha, range(-3, 4), box)["status"] == "PASS"
    assert len(calls) == 72
    assert len(koszul._CORE_CACHE[(3, (2, 2, 3))]._cache) == 140


def test_one_untruncated_assembly_per_omega(monkeypatch):
    # on the sweep above, each untruncated complex is assembled once, one
    # per distinct omega of the classes, and every class, quotient or not,
    # is ranked as a restriction of it: still 72 exact_rank calls
    model = MonomialModel(3, [2, 2, 3])
    box = TruncationBox.radius(3, 6)
    inner = koszul.CoreCohomology._assemble
    assembled, calls = [], []

    def counted_assemble(self, omega):
        assembled.append(omega)
        return inner(self, omega)

    def counted(rows):
        calls.append(len(rows))
        return exact_rank(rows)

    monkeypatch.setattr(koszul, "_CORE_CACHE", {})
    monkeypatch.setattr(rationals, "exact_rank", counted)
    monkeypatch.setattr(koszul.CoreCohomology, "_assemble", counted_assemble)
    for alpha in jump_candidates(model.divisor(), 0, 1):
        for sweep in (verify_thm42_i, verify_thm42_ii):
            assert sweep(model, alpha, range(-3, 4), box)["status"] == "PASS"
    core = koszul._CORE_CACHE[(3, (2, 2, 3))]
    assert any(thi is not None for _, thi in core._cache)
    assert sorted(assembled) == sorted({omega for omega, _ in core._cache}) == sorted(core._complexes)
    assert len(assembled) == 19 and len(calls) == 72


def _plant_untruncated(monkeypatch, target):
    """The stored untruncated complex of omega = target gets one wrong
    coefficient: the first entry of the last row of its top differential
    changes sign."""
    inner = koszul.CoreCohomology._assemble

    def planted(self, omega):
        bases, rows = inner(self, omega)
        if omega == target:
            row = rows[-1][-1]
            row[min(row)] *= -1
        return bases, rows

    monkeypatch.setattr(koszul, "_CORE_CACHE", {})
    monkeypatch.setattr(koszul.CoreCohomology, "_assemble", planted)


def test_planted_untruncated_coefficient_fails_both_sweeps(monkeypatch):
    # both sweeps read the planted complex, i untruncated and ii through its
    # restrictions, and each fails at a locus of that omega's class
    model = MonomialModel(3, [2, 2, 3])
    box = TruncationBox.radius(3, 6)
    n, r = model.n, model.r
    _plant_untruncated(monkeypatch, 0)
    for sweep, name in ((verify_thm42_i, "thm42i-acyclicity"), (verify_thm42_ii, "thm42ii-concentration")):
        koszul._CORE_CACHE.clear()
        fails = []
        for alpha in jump_candidates(model.divisor(), 0, 1):
            rep = sweep(model, alpha, range(-3, 4), box)
            if rep["status"] == "FAIL":
                fail = rep["checks"][-1]
                p, d = fail["p"], fail["degree"]
                cap = p + n - 1
                tlo = [min(max(c - 1 - x, 0), cap + 1) for c, x in zip(Level(model, alpha).twist, d)]
                assert fail["name"] == name and p + n - r - sum(tlo) == 0, (alpha, fail)
                fails.append(alpha)
        assert fails, sweep


def test_references_do_not_reach_the_core(monkeypatch):
    # _naive_graded_cohomology and _untranslated_dims assemble their own
    # complexes: with the core's assembly, dims and koszul's cohomology out of
    # reach they still give what the core gave
    model = MonomialModel(3, [2, 2, 3])
    lvl = Level(model, F(1, 2))
    box = TruncationBox.radius(3, 2)
    grids = {
        (Gd, p): cohomology_grid(GradedCbar(model, lvl.twist, Gd), p, box)
        for Gd in (None, lvl.deeper.twist) for p in range(-3, 3)
    }
    core = koszul.CoreCohomology(model.a)
    shifts = list(itertools.product(range(2), repeat=3))
    sigs = {
        (omega, tlo, thi and tuple(map(sum, zip(tlo, thi)))): core.dims(omega - sum(tlo), thi)
        for omega in range(-1, 4) for tlo in shifts for thi in [None] + shifts
    }

    def unreachable(*args):
        raise AssertionError("a reference reached the core")

    monkeypatch.setattr(koszul.CoreCohomology, "_assemble", unreachable)
    monkeypatch.setattr(koszul.CoreCohomology, "dims", unreachable)
    monkeypatch.setattr(koszul, "cohomology", unreachable)
    for (Gd, p), grid in grids.items():
        assert [_naive_graded_cohomology(model, lvl.twist, p, d, Gd) for d in box] == grid, (Gd, p)
    for (omega, tlo, thi), dims in sigs.items():
        assert _untranslated_dims(core, omega, tlo, thi) == dims, (omega, tlo, thi)


def test_caches_hold_one_model():
    # a sweep of a second model leaves no expansion or core entry of the first
    box = TruncationBox.radius(3, 2)
    first, second = MonomialModel(3, [2, 3]), MonomialModel(3, [1, 2])
    verify_thm42_i(first, F(1, 2), range(-3, 2), box)
    assert any(k[:2] == (3, (2, 3)) for k in vfilt._EXP_CACHE)
    assert list(koszul._CORE_CACHE) == [(3, (2, 3))]
    first = koszul._CORE_CACHE[(3, (2, 3))]._complexes
    assert first
    assert vfilt._GRID_CACHE and all(k[:2] == (3, (2, 3)) for k in vfilt._GRID_CACHE)
    verify_thm42_i(second, F(1, 2), range(-3, 2), box)
    assert vfilt._EXP_CACHE and all(k[:2] == (3, (1, 2)) for k in vfilt._EXP_CACHE)
    assert list(koszul._CORE_CACHE) == [(3, (1, 2))]
    assert koszul._CORE_CACHE[(3, (1, 2))]._cache
    assert koszul._CORE_CACHE[(3, (1, 2))]._complexes
    assert all(core._complexes is not first for core in koszul._CORE_CACHE.values())
    assert vfilt._GRID_CACHE and all(k[:2] == (3, (1, 2)) for k in vfilt._GRID_CACHE)


def test_count_grid_built_once_per_level_p_box(monkeypatch):
    # one model's sweep in the benchmark's order (per alpha, i then ii)
    # builds each count grid once: the grid of (alpha, p) in i is reused by
    # ii and as the deeper grid of the alpha before; every call returns the
    # cached grid itself, immutable bytes, so _flip copies before it flips
    box = TruncationBox.radius(3, 3)
    p_range = range(-3, 4)
    alphas = jump_candidates(PLANT_MODEL.divisor(), 0, 1)
    built = []
    inner = vfilt._count_grid

    def counted(lvl, p, box):
        built.append((lvl.alpha, p, box))
        return inner(lvl, p, box)

    monkeypatch.setattr(vfilt, "_GRID_CACHE", {})
    monkeypatch.setattr(vfilt, "_count_grid", counted)
    for alpha in alphas:
        assert verify_thm42_i(PLANT_MODEL, alpha, p_range, box)["status"] == "PASS"
        assert verify_thm42_ii(PLANT_MODEL, alpha, p_range, box)["status"] == "PASS"
    levels = list(alphas) + [Level(PLANT_MODEL, alphas[-1]).deeper.alpha]
    assert len(built) == len(set(built))
    assert set(built) == {(a, p - 1, box) for a in levels for p in p_range}
    lvl = Level(PLANT_MODEL, alphas[0])
    grid = vfilt.gr_count_grid(lvl, 0, box)
    assert type(grid) is bytes
    assert vfilt.gr_count_grid(lvl, 0, box) is grid
    assert len(built) == len(set(built))


def test_weight_table_built_once_per_level_box(monkeypatch):
    # one model's sweep of i and ii at p in -3..3 builds one weight table per
    # (level, box), shared by every p, the deeper level's included
    box = TruncationBox.radius(3, 3)
    p_range = range(-3, 4)
    alphas = jump_candidates(PLANT_MODEL.divisor(), 0, 1)
    built = []

    class Counted(vfilt._WeightTable):
        def __init__(self, lvl, box):
            built.append((lvl.alpha, box))
            super().__init__(lvl, box)

    monkeypatch.setattr(vfilt, "_GRID_CACHE", {})
    monkeypatch.setattr(vfilt, "_WeightTable", Counted)
    for alpha in alphas:
        assert verify_thm42_i(PLANT_MODEL, alpha, p_range, box)["status"] == "PASS"
        assert verify_thm42_ii(PLANT_MODEL, alpha, p_range, box)["status"] == "PASS"
    levels = list(alphas) + [Level(PLANT_MODEL, alphas[-1]).deeper.alpha]
    assert len(built) == len(set(built)) == len(levels)
    assert set(built) == {(a, box) for a in levels}


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
    t_op = op_t(2)
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
                assert all(q == 0 for (_, q) in t)


def filtration_shift(cohdeg):
    """Hodge index used in degree -q: F_{k-n} there is built from
    F_{k-q-1} of the operator algebra."""
    q = -cohdeg
    return -q - 1


def test_filtration_shift_bookkeeping():
    fkc = build_cbar(Y123, [1, 1, 1])
    assert [free_rank(fkc, c) for c in (-2, -1, 0)] == [1, 2, 1]
    assert filtration_shift(0) == -1
    assert filtration_shift(-2) == -3
