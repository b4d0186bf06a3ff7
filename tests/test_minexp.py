"""Minimal exponents, nearby-cycle Hodge tables, and the vanishing checks."""

from fractions import Fraction as F

import pytest

from minexp_lab import minexp
from minexp_lab.cli import catalog
from minexp_lab.divisors import jump_candidates
from minexp_lab.minexp import (
    MinExpResult,
    cor23_check,
    cor24_check,
    lct_consistency,
    minexp_monomial,
    psi_hodge_dim,
)
from minexp_lab.rationals import INF, Infinity, InputError, format_rational
from minexp_lab.vfilt import Level, TruncationBox, member_key, v_member
from minexp_lab.weyl import BgElement, MonomialModel

Y2 = MonomialModel(1, [2])
Y3 = MonomialModel(1, [3])
Y11 = MonomialModel(2, [1, 1])
BOX1 = TruncationBox.radius(1, 4)
BOX2 = TruncationBox.radius(2, 4)


def test_minexp_examples():
    assert minexp_monomial(Y11).value == 1
    assert minexp_monomial(MonomialModel(1, [1])).value == INF
    assert minexp_monomial(Y2).value == F(1, 2)
    assert minexp_monomial(MonomialModel(2, [2, 3])).value == F(1, 3)
    with pytest.raises(InputError):
        minexp_monomial(Y2, p_max=0)


def test_minexp_witness_invariant():
    res = minexp_monomial(MonomialModel(2, [2, 3]))
    sup = max(
        (w["p"] + F(w["alpha"]) for w in res.witness if w["member"]), default=F(0)
    )
    assert res.value == sup
    # membership is monotone: if dy dt^p delta lies in V_{-alpha} then so do
    # all lower dt-orders (the whole Hodge piece sits inside)
    by_alpha = {}
    for w in res.witness:
        by_alpha.setdefault(w["alpha"], {})[w["p"]] = w["member"]
    for verdicts in by_alpha.values():
        for p in sorted(verdicts):
            if verdicts[p]:
                assert all(verdicts[q] for q in range(0, p))


def test_minexp_catalog_formula():
    # singular monomials: minexp = min_i 1/a_i; the smooth model: INF
    for model in catalog():
        value = minexp_monomial(model).value
        if model.smooth:
            assert isinstance(value, Infinity)
        else:
            assert value == min(F(1, a) for a in model.a)


def test_lct_consistency_examples():
    assert lct_consistency(Y11)["status"] == "PASS"
    assert lct_consistency(Y3)["status"] == "PASS"
    assert lct_consistency(MonomialModel(1, [1]))["status"] == "PASS"


def test_psi_hodge_dim_examples():
    t = psi_hodge_dim(1, F(1, 2), BOX1, Y2)
    assert t.dims == {(0,): 1}
    assert psi_hodge_dim(0, F(1, 2), BOX1, Y2).is_zero()
    assert psi_hodge_dim(1, F(1, 4), BOX1, Y3).is_zero()
    with pytest.raises(InputError):
        psi_hodge_dim(1, F(5, 4), BOX1, Y2)
    with pytest.raises(InputError):
        psi_hodge_dim(1, 0, BOX1, Y2)


def test_psi_zero_off_candidates():
    for model in [Y2, Y3, MonomialModel(2, [2, 3])]:
        cands = set(jump_candidates(model.divisor(), 0, 1))
        box = TruncationBox.radius(model.n, 3)
        for k in range(1, 13):
            alpha = F(k, 12)
            if alpha in cands:
                continue
            for p in range(0, 4):
                assert psi_hodge_dim(p, alpha, box, model).is_zero()


def test_cor23_examples():
    # g=y^2, p=0, alpha=1/2: Gr^F_1 psi = O/(y), dim 1 at degree 0;
    # nonvanishing is consistent because minexp = 1/2 is not > 1/2
    rep = cor23_check(Y2, 0, F(1, 2), BOX1)
    assert rep["status"] == "PASS"
    t = psi_hodge_dim(1, F(1, 2), BOX1, Y2)
    assert t.dims == {(0,): 1}
    # g=y^3, p=0, alpha=1/4: vanishing detects 1/3 > 1/4
    rep = cor23_check(Y3, 0, F(1, 4), BOX1)
    assert rep["status"] == "PASS"
    assert psi_hodge_dim(1, F(1, 4), BOX1, Y3).is_zero()
    # g=y1y2, p=0, alpha=1/2: vanishing detects 1 > 1/2
    rep = cor23_check(Y11, 0, F(1, 2), BOX2)
    assert rep["status"] == "PASS"
    assert psi_hodge_dim(1, F(1, 2), BOX2, Y11).is_zero()
    with pytest.raises(InputError):
        cor23_check(Y2, 0, F(1), BOX1)
    with pytest.raises(InputError):
        cor23_check(Y2, -1, F(1, 2), BOX1)


def test_cor24_examples():
    rep = cor24_check(Y2, 0, F(1, 2), BOX1)
    assert rep["status"] == "PASS"
    rep = cor24_check(Y11, 0, F(1, 2), BOX2)
    assert rep["status"] == "PASS"
    rep = cor24_check(Y3, 0, F(1, 3), BOX1)
    assert rep["status"] == "PASS"
    with pytest.raises(InputError):
        cor24_check(Y2, 1, F(1, 2), BOX1)  # hypothesis minexp >= 1 fails
    with pytest.raises(InputError):
        cor24_check(Y2, -1, F(1, 2), BOX1)


def test_cor23_nontrivial_colon_ideal_shape():
    # for g = y1^2 y2^3 at alpha = 1/3 the colon ideal is (y2): check a few
    # degrees of the table against the expected monomial pattern
    model = MonomialModel(2, [2, 3])
    t = psi_hodge_dim(1, F(1, 3), BOX2, model)
    # classes h dt^0 delta with y2 not dividing h: degrees (k, 0)
    assert t.get((0, 0)) == 1 and t.get((3, 0)) == 1
    assert t.get((0, 1)) == 0 and t.get((1, 2)) == 0


def _minexp_reference(model, p_max=4):
    """minexp_monomial through v_member: the element dy dt^p delta built and
    split by multidegree for every (p, alpha), a fresh Level each time."""
    witness, best = [], F(0)
    zero = (0,) * model.n
    for p in range(0, p_max + 1):
        el = BgElement(model.n, {(zero, p): F(1)})
        for alpha in jump_candidates(model.divisor(), 0, 1):
            member = v_member(el, alpha, model)
            witness.append({"p": p, "alpha": format_rational(alpha), "member": member})
            if member:
                best = max(best, p + alpha)
    return MinExpResult(INF if model.smooth else best, witness).to_json()


def test_minexp_matches_v_member_reference():
    models = catalog()
    assert len(models) == 52
    for model in models:
        assert minexp_monomial(model, 4).to_json() == _minexp_reference(model, 4), model


def _colon_ideal_reference(model, p, alpha, box):
    """cor23_check iii) locus by locus: one minexp._component_member call per
    locus with d + p a >= 0, nothing shared between loci."""
    lvl = Level(model, alpha)
    a_ext = model.a_ext
    locus = None
    for d, got in zip(box, minexp._psi_grid(lvl, p + 1, box)):
        if all(d[i] + p * a_ext[i] >= 0 for i in range(model.n)):
            expected = 0 if minexp._component_member(lvl.deeper, d, {p: 1}) else 1
        else:
            expected = 0
        if got != expected:
            locus = {"degree": list(d), "expected": expected, "got": got}
            break
    return {
        "name": "grF-psi-colon-ideal",
        "status": "FAIL" if locus else "PASS",
        "p": p,
        "alpha": format_rational(alpha),
        "locus": locus,
    }


def _colon_ideal_check(report):
    found = [c for c in report["checks"] if c["name"] == "grF-psi-colon-ideal"]
    assert len(found) <= 1
    return found[0] if found else None


def _colon_ideal_levels():
    return [
        (m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1) if a < 1
    ]


def test_colon_ideal_memo_matches_reference():
    # every catalog level with alpha < 1, p in {0, 1}, radius 3: with the
    # model's minimal exponent (iii runs where minexp >= p + alpha), and with
    # an infinite one, which runs iii at every level and both p
    ran = 0
    for model, alpha in _colon_ideal_levels():
        box = TruncationBox.radius(model.n, 3)
        value = minexp_monomial(model).value
        for p in (0, 1):
            got = _colon_ideal_check(cor23_check(model, p, alpha, box, value=value))
            if value >= p + alpha:
                assert got == _colon_ideal_reference(model, p, alpha, box), (model, alpha, p)
                ran += 1
            else:
                assert got is None
            forced = _colon_ideal_check(cor23_check(model, p, alpha, box, value=INF))
            assert forced == _colon_ideal_reference(model, p, alpha, box), (model, alpha, p)
    assert ran > 0


@pytest.mark.parametrize(
    "exponents, alpha, p, degree",
    [([2, 3], F(1, 3), 0, (0, 0)), ([2, 3], F(1, 3), 0, (2, 1)), ([1, 2, 2], F(1, 2), 1, (3, 0, -1))],
)
def test_planted_membership_fails_at_the_same_locus(exponents, alpha, p, degree, monkeypatch):
    """One membership key answered wrongly: the memo, which asks once per
    key, and the per-locus reference report the same first FAIL locus."""
    model = MonomialModel(len(exponents), exponents)
    box = TruncationBox.radius(model.n, 3)
    deeper = Level(model, alpha).deeper
    target = member_key(deeper, degree)
    assert target is not None
    inner = minexp._component_member

    def planted(lvl, d, orders):
        held = inner(lvl, d, orders)
        return not held if member_key(lvl, d) == target else held

    monkeypatch.setattr(minexp, "_component_member", planted)
    got = _colon_ideal_check(cor23_check(model, p, alpha, box, value=INF))
    assert got["status"] == "FAIL"
    assert got == _colon_ideal_reference(model, p, alpha, box)


def test_colon_ideal_asks_each_key_once(monkeypatch):
    # during one cor23_check, no more memberships than distinct keys of the
    # deeper level over the box
    calls = []
    inner = minexp._component_member

    def counted(lvl, d, orders):
        calls.append(member_key(lvl, d))
        return inner(lvl, d, orders)

    monkeypatch.setattr(minexp, "_component_member", counted)
    for exponents, alpha in [([2, 3], F(1, 3)), ([1, 2, 2], F(1, 2)), ([2, 2, 3], F(1, 3))]:
        model = MonomialModel(len(exponents), exponents)
        box = TruncationBox.radius(model.n, 6)
        deeper = Level(model, alpha).deeper
        keys = {member_key(deeper, d) for d in box} - {None}
        value = minexp_monomial(model).value  # its memberships are not counted
        calls.clear()
        report = cor23_check(model, 0, alpha, box, value=value)
        assert report["status"] == "PASS"
        assert 0 < len(calls) <= len(keys)
        assert len(calls) == len(set(calls))
