"""Relative log-form sequences, quotient-twist dimensions, and the graded
de Rham complexes of nearby cycles at the identity resolution."""

import itertools
import random
from fractions import Fraction as F

import pytest

from minexp_lab import derham
from minexp_lab.cli import catalog, run
from minexp_lab.derham import (
    _LevelComplexes,
    _quotient_count_grid,
    _rel_symbols,
    gr_dr_psi,
    verify_cor51,
)
from minexp_lab.divisors import jump_candidates
from minexp_lab.rationals import InputError, exact_rank
from minexp_lab.vfilt import (
    MAX_N,
    GradedDimTable,
    Level,
    TruncationBox,
    count_grF_grV,
    gr_class_rep,
    gr_label,
    grF_grV_support,
    lead_key,
)
from minexp_lab.weyl import MonomialModel

from oracles import gr_coordinate, table_is_zero

Y2 = MonomialModel(1, [2])
Y3 = MonomialModel(1, [3])
Y11 = MonomialModel(2, [1, 1])
Y23 = MonomialModel(2, [2, 3])
BOX1 = TruncationBox.radius(1, 4)
BOX2 = TruncationBox.radius(2, 4)


# -- relative log forms and the quotient sheaf dimensions -------------------------

def _abs_symbols(model):
    """dlog y_1..dlog y_r then dy_{r+1}..dy_n, as ("L", i) / ("D", j)."""
    return tuple(("L", i) for i in range(1, model.r + 1)) + tuple(
        ("D", j) for j in range(model.r + 1, model.n + 1)
    )


def _wedge_map(images, src_symbols, dst_symbols, q):
    """Matrix of the induced map on q-wedges given per-symbol images
    (dict src symbol -> {dst symbol: coeff}); rows are dst wedges."""
    src = list(itertools.combinations(src_symbols, q))
    dst = list(itertools.combinations(dst_symbols, q))
    dst_index = {S: k for k, S in enumerate(dst)}
    cols = []
    for S in src:
        col = {}
        choices = [list(images[s].items()) for s in S]
        for pick in itertools.product(*choices):
            syms = [p[0] for p in pick]
            if len(set(syms)) < q:
                continue
            order = sorted(range(q), key=lambda k: dst_symbols.index(syms[k]))
            sign = 1
            seen = []
            for k in range(q):
                inversions = sum(1 for kk in seen if kk > order[k])
                sign *= (-1) ** inversions
                seen.append(order[k])
            coeff = F(sign)
            for _, c in pick:
                coeff *= c
            T = tuple(sorted(syms, key=dst_symbols.index))
            col[dst_index[T]] = col.get(dst_index[T], F(0)) + coeff
        cols.append({k: v for k, v in col.items() if v})
    return cols, len(dst)


def relative_sequence_check(model: MonomialModel, q):
    """Exactness of  0 -> Omega^{q-1}_rel -> Omega^q(log E) -> Omega^q_rel -> 0
    in the chosen bases: the dlog(g)-wedge is injective, the projection is
    surjective, the composite vanishes, and the ranks add up."""
    if not 0 <= q <= model.n:
        raise InputError(f"need 0 <= q <= n, got q={q}")
    n, r, a = model.n, model.r, model.a
    abs_syms = _abs_symbols(model)
    rel_syms = _rel_symbols(model)

    # lift rel -> abs and wedge with dlog(g) = sum a_i dlog y_i
    lift = {}
    for s in rel_syms:
        if s[0] == "L":
            lift[s] = {("L", s[1]): F(a[s[1] - 1])}
        else:
            lift[s] = {("D", s[1]): F(1)}
    m_lift, _ = _wedge_map(lift, rel_syms, abs_syms, q - 1) if q >= 1 else ([], 0)
    abs_q = list(itertools.combinations(abs_syms, q))
    abs_index = {S: k for k, S in enumerate(abs_q)}
    abs_qm1 = list(itertools.combinations(abs_syms, q - 1)) if q >= 1 else []
    wedge_cols = []
    for col in m_lift:
        out = {}
        for row_idx, coeff in col.items():
            S = abs_qm1[row_idx]
            for i in range(1, r + 1):
                sym = ("L", i)
                if sym in S:
                    continue
                sign = (-1) ** sum(1 for s in S if abs_syms.index(s) < abs_syms.index(sym))
                T = tuple(sorted(S + (sym,), key=abs_syms.index))
                v = out.get(abs_index[T], F(0)) + sign * a[i - 1] * coeff
                if v:
                    out[abs_index[T]] = v
                else:
                    out.pop(abs_index[T], None)
        wedge_cols.append(out)

    # projection abs -> rel (kills dlog g)
    proj = {}
    for s in abs_syms:
        if s == ("L", 1):
            proj[s] = {("L", k): F(-1, a[0]) for k in range(2, r + 1)}
        elif s[0] == "L":
            proj[s] = {("L", s[1]): F(1, a[s[1] - 1])}
        else:
            proj[s] = {("D", s[1]): F(1)}
    m_proj, n_rel_q = _wedge_map(proj, abs_syms, rel_syms, q)

    rank_in = exact_rank(wedge_cols)
    rank_out = exact_rank(m_proj)
    n_rel_qm1 = len(list(itertools.combinations(rel_syms, q - 1))) if q >= 1 else 0
    n_abs = len(abs_q)

    # composite rel^{q-1} -> abs^q -> rel^q must vanish
    composite_zero = True
    for col in wedge_cols:
        acc = {}
        for abs_idx, coeff in col.items():
            for rel_idx, c2 in m_proj[abs_idx].items():
                v = acc.get(rel_idx, F(0)) + coeff * c2
                if v:
                    acc[rel_idx] = v
                else:
                    acc.pop(rel_idx, None)
        if acc:
            composite_zero = False
            break

    ok = (
        rank_in == n_rel_qm1
        and rank_out == n_rel_q
        and composite_zero
        and rank_in + rank_out == n_abs
    )
    return {
        "status": "PASS" if ok else "FAIL",
        "checks": [
            {
                "name": "relative-sequence",
                "status": "PASS" if ok else "FAIL",
                "q": q,
                "ranks": [n_rel_qm1, n_abs, n_rel_q],
                "injective": rank_in == n_rel_qm1,
                "surjective": rank_out == n_rel_q,
                "composite_zero": composite_zero,
                "exact_middle": rank_in + rank_out == n_abs,
            }
        ],
    }


def set_dim(table, key, value):
    """Set one entry of a GradedDimTable, dropping it when value is 0."""
    if value:
        table.dims[key] = value
    else:
        table.dims.pop(key, None)


def quotient_dims(model: MonomialModel, alpha, q, relative, box: TruncationBox) -> GradedDimTable:
    """Multidegree dimensions of (O(-D_alpha)/O(-D_{>alpha})) (x) Omega^q of
    the chosen flavor (relative or absolute log forms)."""
    lvl = Level(model, alpha)
    syms = _rel_symbols(model) if relative else _abs_symbols(model)
    table = GradedDimTable(alpha=lvl.alpha)
    for d, count in zip(box, _quotient_count_grid(lvl, syms, q, box)):
        set_dim(table, d, count)
    return table


def test_relative_sequence_examples():
    rep = relative_sequence_check(Y11, 1)
    assert rep["status"] == "PASS" and rep["checks"][0]["ranks"] == [1, 2, 1]
    rep = relative_sequence_check(Y2, 1)
    assert rep["status"] == "PASS" and rep["checks"][0]["ranks"] == [1, 1, 0]
    rep = relative_sequence_check(Y2, 0)
    assert rep["status"] == "PASS" and rep["checks"][0]["ranks"] == [0, 1, 1]
    with pytest.raises(InputError):
        relative_sequence_check(Y2, 2)


def test_relative_sequence_sweep():
    for model in [Y11, Y23, MonomialModel(3, [1, 2, 3]), MonomialModel(3, [4]),
                  MonomialModel(3, [2, 2, 2])]:
        for q in range(0, model.n + 1):
            rep = relative_sequence_check(model, q)
            assert rep["status"] == "PASS", (model, q, rep)
            assert rep["checks"][0]["composite_zero"]


def test_quotient_dims_examples():
    t = quotient_dims(Y2, F(1, 2), 0, True, BOX1)
    assert t.dims == {(1,): 1}  # (y)/(y^2)
    t = quotient_dims(Y11, F(1, 2), 1, True, BOX2)
    assert table_is_zero(t)  # no jump at 1/2
    t = quotient_dims(Y23, F(1, 3), 1, True, BOX2)
    # monomials v >= (1,1) but not >= (1,2): v = (k, 1), k >= 1; form rank 1
    for k in range(1, 5):
        assert t.get((k, 1)) == 1
    assert t.get((1, 2)) == 0 and t.get((0, 1)) == 0
    with pytest.raises(InputError):
        quotient_dims(Y2, 0, 0, True, BOX1)


def _direct_quotient_count(lvl, syms, q, d):
    """Count the wedges S of q symbols with v = d - deg S >= 0, D_alpha <= v
    and not D_{>alpha} <= v on the divisor coordinates, one by one."""
    r, c_lo, c_hi = lvl.model.r, lvl.twist, lvl.deeper.twist
    if q < 0:
        return 0
    count = 0
    for S in itertools.combinations(syms, q):
        v = list(d)
        for s in S:
            if s[0] == "D":
                v[s[1] - 1] -= 1
        if any(x < 0 for x in v) or any(v[i] < c_lo[i] for i in range(r)):
            continue
        if all(v[i] >= c_hi[i] for i in range(r)):
            continue
        count += 1
    return count


def test_quotient_count_grid_matches_direct_count():
    # every catalog level in (0, 1], both symbol flavours and every q, on a
    # radius-2 box and on the support-scan box of gr_dr_psi
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    for lvl in levels:
        box = TruncationBox.radius(lvl.model.n, 2)
        scan = TruncationBox(tuple(x - 1 for x in box.lo), box.hi)
        for syms in (_rel_symbols(lvl.model), _abs_symbols(lvl.model)):
            for q in range(-1, len(syms) + 2):
                for b in (box, scan):
                    assert _quotient_count_grid(lvl, syms, q, b) == [
                        _direct_quotient_count(lvl, syms, q, d) for d in b
                    ]


def test_quotient_dims_form_rank_caps():
    # form degrees beyond the bundle rank vanish identically
    assert table_is_zero(quotient_dims(Y23, F(1, 3), 2, True, BOX2))  # rank C(1, 2) = 0
    assert table_is_zero(quotient_dims(Y23, F(1, 3), 3, False, BOX2))
    assert table_is_zero(quotient_dims(Y23, F(1, 3), -1, True, BOX2))


def test_gr_dr_psi_examples():
    t = gr_dr_psi(Y2, F(1, 2), 0, BOX1)
    assert t.dims == {((1,), 0): 1}
    # i = 0 at alpha = 1 for the reduced crossing matches quotient dims at q=1
    t = gr_dr_psi(Y11, F(1), 0, BOX2)
    q = quotient_dims(Y11, F(1), 1, True, BOX2)
    assert {d: v for (d, c), v in t.dims.items() if c == 0} == dict(q.dims)
    assert all(c == 0 for (_, c) in t.dims)
    # vanishing sweep below the minimal exponent
    t = gr_dr_psi(Y3, F(1, 3), -1, BOX1)
    assert table_is_zero(t)
    with pytest.raises(InputError):
        gr_dr_psi(Y2, F(3, 2), 0, BOX1)


def _reference_complex(lvl: Level, i, D):
    """The de Rham complex at multidegree D assembled on its own: a
    count_grF_grV call per term and a gr_class_rep and gr_coordinate call
    per matrix entry, nothing shared with any other locus.  Same shape as
    _LevelComplexes.complex_at; reaches _orders_dy through the derham
    module, so a plant there reaches both paths."""
    model = lvl.model
    n = model.n

    def p_right(qf):
        return i + qf - 2 * n

    bases = []
    for qf in range(n + 1):
        basis = []
        for K in itertools.combinations(range(n), qf):
            d = tuple(D[t] - (1 if t in K else 0) for t in range(n))
            if count_grF_grV(lvl, p_right(qf), d):
                basis.append(K)
        bases.append(basis)
    mats = []
    for qf in range(n):
        tgt_index = {K: idx for idx, K in enumerate(bases[qf + 1])}
        cols = []
        for K in bases[qf]:
            dsrc = tuple(D[t] - (1 if t in K else 0) for t in range(n))
            rep = gr_class_rep(lvl, p_right(qf), dsrc)
            col = {}
            for k in range(n):
                if k in K:
                    continue
                T = tuple(sorted(K + (k,)))
                if T not in tgt_index:
                    continue
                sign = (-1) ** sum(1 for kk in K if kk < k)
                img = derham._orders_dy(rep, model, dsrc, k)
                if not img:
                    continue
                dtgt = tuple(dsrc[t] - (1 if t == k else 0) for t in range(n))
                coord = gr_coordinate(img, lvl, p_right(qf + 1), dtgt)
                if coord:
                    col[tgt_index[T]] = -sign * coord
            cols.append(col)
        mats.append(cols)
    return bases, mats


class _ReferenceComplexes:
    """_LevelComplexes' interface on the per-locus path: every multidegree
    of the box, each with its own _reference_complex."""

    def __init__(self, lvl, box):
        self.lvl, self.box = lvl, box

    def table(self, i):
        n = self.lvl.model.n
        table = GradedDimTable(alpha=self.lvl.alpha)
        for D in self.box:
            bases, mats = _reference_complex(self.lvl, i, D)
            ranks = [exact_rank(cols) for cols in mats]
            for qf in range(n + 1):
                h = len(bases[qf]) - (ranks[qf] if qf < n else 0) - (
                    ranks[qf - 1] if qf > 0 else 0
                )
                if h:
                    table.dims[(D, qf - n)] = h
        return table


def test_gr_dr_euler_characteristic():
    # per multidegree, the alternating sum of term dimensions equals the
    # alternating sum of cohomology dimensions
    rng = random.Random(2)
    for model in [Y2, Y23, Y11, MonomialModel(3, [1, 2, 2])]:
        n = model.n
        box = TruncationBox.radius(n, 4)
        for alpha in jump_candidates(model.divisor(), 0, 1):
            complexes = _LevelComplexes(Level(model, alpha), box)
            for i in range(0, n):
                for _ in range(12):
                    D = tuple(rng.randint(-3, 4) for _ in range(n))
                    bases, mats = complexes.complex_at(i, D)
                    ranks = [exact_rank(cols) for cols in mats]
                    euler_terms = sum(
                        (-1) ** qf * len(bases[qf]) for qf in range(n + 1)
                    )
                    euler_h = sum(
                        (-1) ** qf
                        * (
                            len(bases[qf])
                            - (ranks[qf] if qf < n else 0)
                            - (ranks[qf - 1] if qf > 0 else 0)
                        )
                        for qf in range(n + 1)
                    )
                    assert euler_terms == euler_h


def test_dr_differential_squares_to_zero():
    # the Euler identity above holds for any ranks; d o d = 0 does not.  Every
    # n >= 2 catalog level, every i, every locus of the radius-2 box; only
    # n = 3 has three-term complexes with nonzero consecutive entries
    levels = [Level(m, a) for m in catalog() if m.n >= 2 for a in jump_candidates(m.divisor(), 0, 1)]
    composites = 0
    for lvl in levels:
        n = lvl.model.n
        box = TruncationBox.radius(n, 2)
        complexes = _LevelComplexes(lvl, box)
        for i in range(n):
            for D in box:
                _, mats = complexes.complex_at(i, D)
                for qf in range(n - 1):
                    for col in mats[qf]:
                        image = {}
                        for mid, c in col.items():
                            for tgt, c2 in mats[qf + 1][mid].items():
                                image[tgt] = image.get(tgt, 0) + c * c2
                                composites += 1
                        assert not any(image.values()), (lvl, i, D)
    assert composites > 0


def test_complex_at_matches_reference_complex():
    # the same terms and the same matrices, locus by locus, at loci in and
    # off the support
    rng = random.Random(3)
    for model in [Y2, Y23, MonomialModel(3, [1, 2, 2]), MonomialModel(3, [2, 3])]:
        n = model.n
        box = TruncationBox.radius(n, 3)
        for alpha in jump_candidates(model.divisor(), 0, 1):
            lvl = Level(model, alpha)
            complexes = _LevelComplexes(lvl, box)
            for i in range(0, n):
                for _ in range(10):
                    D = tuple(rng.randint(-3, 3) for _ in range(n))
                    assert complexes.complex_at(i, D) == _reference_complex(lvl, i, D)


def test_memoised_tables_match_reference():
    # every catalog level, every i, on the radius-2 box; one memo serves all
    # the i of a level, as in verify_cor51
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    tables = 0
    for lvl in levels:
        box = TruncationBox.radius(lvl.model.n, 2)
        complexes = _LevelComplexes(lvl, box)
        reference = _ReferenceComplexes(lvl, box)
        for i in range(lvl.model.n):
            assert complexes.table(i).dims == reference.table(i).dims, (lvl, i)
            tables += 1
    assert tables == 453


class _SignatureComplexes(_LevelComplexes):
    """A memo keyed by the terms alone, blind to the coordinates: it reuses
    the cohomology of the first locus with the same terms."""

    def keys(self, i):
        return {D: key[0] for D, key in super().keys(i).items()}


@pytest.mark.parametrize(
    "target",
    [
        ([1, 2], ((0, 0), 0), ["cor51-dims"], False),
        ([1, 2], ((0, 1), 1), ["cor51-dims"], False),
        ([1, 2], ((2, 1), 1), ["cor51-dims"], True),
        # n = 3: each planted locus's complex, unplanted, repeats an earlier one
        ([1, 2, 2], ((0, -1, 0), 1), ["cor51-concentration"], True),
        ([1, 2, 2], ((1, 0, 1), 1), ["cor51-dims", "cor51-concentration"], True),
        ([1, 2, 2], ((2, 1, 1), 2), ["cor51-dims"], True),
    ],
)
def test_planted_orders_dy_fails_like_reference(target, monkeypatch):
    """One differential entry dropped (_orders_dy returns {} at one (d, k)):
    verify-cor51 fails, one FAIL per alpha the plant reaches, and at the same
    first check as the per-locus path.  Where the planted complex repeats an
    earlier one, a memo keyed by the terms alone passes; the coordinates in
    the key are what catch it."""
    exponents, point, names, repeated = target
    inner = derham._orders_dy

    def planted(orders, model, d, k):
        return {} if (tuple(d), k) == point else inner(orders, model, d, k)

    model = {"n": len(exponents), "exponents": exponents}
    config = {"command": "verify-cor51", "model": model, "box": 3}
    assert run(dict(config))[1] == 0
    monkeypatch.setattr(derham, "_orders_dy", planted)
    memo_report, memo_code = run(dict(config))
    if repeated:
        monkeypatch.setattr(derham, "_LevelComplexes", _SignatureComplexes)
        assert run(dict(config))[1] == 0
    monkeypatch.setattr(derham, "_LevelComplexes", _ReferenceComplexes)
    ref_report, ref_code = run(dict(config))
    assert memo_code == ref_code == 2
    fails = [c for c in memo_report["checks"] if c["status"] == "FAIL"]
    assert [c["name"] for c in fails] == names
    assert memo_report == ref_report


def test_equal_keys_have_equal_complexes():
    # every catalog level, every i, on the radius-2 box: the key of a locus
    # determines its bases and matrices entry for entry
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    repeats = 0
    for lvl in levels:
        box = TruncationBox.radius(lvl.model.n, 2)
        complexes = _LevelComplexes(lvl, box)
        for i in range(lvl.model.n):
            first = {}
            for D, key in complexes.keys(i).items():
                if key in first:
                    assert complexes.complex_at(i, D) == first[key], (lvl, i, D)
                    repeats += 1
                else:
                    first[key] = complexes.complex_at(i, D)
    assert repeats > 0


def _fraction_keys(complexes, i):
    """keys(i) with each coordinate a Fraction: per locus, the bits of its
    terms and gr_coordinate of every edge whose target term is present, in
    complex_at's order; the support of each p read from a set of its
    points, nothing taken from the memo's coordinates."""
    lvl = complexes.lvl
    n = lvl.model.n
    loci = {}
    for q, subsets in enumerate(complexes.subsets):
        p = i + q - 2 * n
        support = set(grF_grV_support(lvl, p, complexes.scan)[0])
        for _, bit, deg, wedges in subsets:
            for d in support:
                D = tuple(x + e for x, e in zip(d, deg))
                if D in complexes.points:
                    got = loci.setdefault(D, [0, []])
                    got[0] |= bit
                    got[1].append((p, d, wedges))
    keys = {}
    for D, (mask, terms) in loci.items():
        coords = []
        for p, d, wedges in terms:
            for k, _, tbit, _ in wedges:
                if mask & tbit:
                    img = derham._orders_dy(gr_class_rep(lvl, p, d), lvl.model, d, k)
                    target = tuple(x - (t == k) for t, x in enumerate(d))
                    coords.append(gr_coordinate(img, lvl, p + 1, target))
        keys[D] = (mask, tuple(coords))
    return keys


def _classes(keys):
    """The partition of the loci into classes of equal keys."""
    classes = {}
    for D, key in keys.items():
        classes.setdefault(key, set()).add(D)
    return {frozenset(c) for c in classes.values()}


def test_integer_keys_split_loci_like_fraction_keys():
    # every catalog level, every i, on the radius-2 box: the interned integer
    # keys and the Fraction-valued keys partition the loci into the same
    # classes, so the memo ranks the same complexes
    levels = [Level(m, a) for m in catalog() for a in jump_candidates(m.divisor(), 0, 1)]
    assert len(levels) == 172
    merged = 0
    for lvl in levels:
        box = TruncationBox.radius(lvl.model.n, 2)
        complexes = _LevelComplexes(lvl, box)
        for i in range(lvl.model.n):
            keys, reference = complexes.keys(i), _fraction_keys(complexes, i)
            assert keys.keys() == reference.keys(), (lvl, i)
            assert _classes(keys) == _classes(reference), (lvl, i)
            assert all(key[0] == reference[D][0] for D, key in keys.items())
            merged += len(keys) - len(set(keys.values()))
    assert merged > 0


def test_one_rank_per_distinct_complex(monkeypatch):
    # (3, [1, 2, 2]) at radius 6 over both jumps: every (p, d, k) reaches
    # _orders_dy once, as when each locus was assembled and ranked, and the
    # complexes are ranked once per distinct key
    counts = {"orders_dy": 0, "rank": 0}
    orders_dy, rank = derham._orders_dy, derham.exact_rank

    def counted_orders_dy(*args):
        counts["orders_dy"] += 1
        return orders_dy(*args)

    def counted_rank(rows):
        counts["rank"] += 1
        return rank(rows)

    memos = []

    class Recorded(_LevelComplexes):
        def __init__(self, lvl, box):
            super().__init__(lvl, box)
            memos.append(self)

    monkeypatch.setattr(derham, "_orders_dy", counted_orders_dy)
    monkeypatch.setattr(derham, "exact_rank", counted_rank)
    monkeypatch.setattr(derham, "_LevelComplexes", Recorded)
    model = MonomialModel(3, [1, 2, 2])
    alphas = jump_candidates(model.divisor(), 0, 1)
    assert alphas == [F(1, 2), F(1)]
    for alpha in alphas:
        rep = verify_cor51(model, alpha, range(3), TruncationBox.radius(3, 6))
        assert rep["status"] == "PASS", rep
    assert counts["orders_dy"] == 659
    distinct = sum(len({key for i in range(3) for key in m.keys(i).values()}) for m in memos)
    assert counts["rank"] <= 3 * distinct
    assert counts["orders_dy"] == 659  # reading the keys again reads the memo


def _representatives_checked(memo=_LevelComplexes):
    """Hold the memo's representative at every support point of every p the
    complexes read (i + q - 2n in -2n..-1), on every catalog level's scan
    box of radius 2, equal to gr_class_rep there, dict for dict; returns the
    number of points and of distinct (level, p, lead key) by gr_label."""
    points, keys = 0, set()
    for m in catalog():
        n = m.n
        for alpha in jump_candidates(m.divisor(), 0, 1):
            lvl = Level(m, alpha)
            complexes = memo(lvl, TruncationBox.radius(n, 2))
            for p in range(-2 * n, 0):
                for d in complexes.support(p):
                    assert complexes.rep(p, d) == gr_class_rep(lvl, p, d), (m, alpha, p, d)
                    v, w = gr_label(lvl, p, d)
                    u0 = tuple(x + y for x, y in zip(lvl.b, v))
                    keys.add((m, alpha, p, lead_key(u0, w)))
                    points += 1
    return points, len(keys)


def test_memo_representatives_match_gr_class_rep(monkeypatch):
    # one gr_class_rep per (p, lead key), at the first point that asks for
    # the key, serves every support point of the key
    calls = []
    inner = derham.gr_class_rep

    def counted(lvl, p, d):
        calls.append(1)
        return inner(lvl, p, d)

    monkeypatch.setattr(derham, "gr_class_rep", counted)
    points, keys = _representatives_checked()
    assert points == 4956 and len(calls) == keys < points


class _WKeyedComplexes(_LevelComplexes):
    """The representative memo keyed by (p, w) alone, blind to u0_0."""

    def rep(self, p, d):
        key = (p, self.support(p)[d][-1][-1])  # the row's key is (p, u0_0, w)
        if key not in self._reps:
            self._reps[key] = gr_class_rep(self.lvl, p, d)
        return self._reps[key]


def test_representatives_keyed_by_w_alone_fail():
    # loci of one w whose u0_0 differ get the representative of another
    # expansion
    with pytest.raises(AssertionError, match=r"^\(MonomialModel"):
        _representatives_checked(_WKeyedComplexes)


@pytest.mark.parametrize("target", [((-3, -3), 0, 1), ((1, 2), 1, 0), ((3, 3), 0, 1)])
def test_planted_quotient_count_names_its_degree(target, monkeypatch):
    """One flipped entry of the quotient-forms counts, for i = 0 at alpha 1:
    the list compare fails and the locus scan reports that degree, the only
    FAIL, with both sides' values."""
    degree, de_rham, flipped_to = target
    grid = derham._quotient_count_grid

    def flipped(lvl, syms, q, box):
        out = grid(lvl, syms, q, box)
        if lvl.alpha == 1 and q == lvl.model.n - 1:
            k = list(box).index(degree)
            out[k] = 0 if out[k] else 1
        return out

    monkeypatch.setattr(derham, "_quotient_count_grid", flipped)
    config = {"command": "verify-cor51", "model": {"n": 2, "exponents": [1, 2]}, "box": 3}
    report, code = run(config)
    assert code == 2
    fails = [c for c in report["checks"] if c["status"] == "FAIL"]
    assert fails == [
        {
            "alpha": "1",
            "name": "cor51-dims",
            "status": "FAIL",
            "i": 0,
            "degree": list(degree),
            "deRham": de_rham,
            "quotient_forms": flipped_to,
        }
    ]


def test_cor51_examples():
    rep = verify_cor51(Y2, F(1, 2), [0], BOX1)
    assert rep["status"] == "PASS"
    assert rep["checks"][0]["total_dim"] == 1
    rep = verify_cor51(Y11, F(1), [0, 1], BOX2)
    assert rep["status"] == "PASS"
    for alpha in jump_candidates(Y23.divisor(), 0, 1):
        rep = verify_cor51(Y23, alpha, [0, 1], BOX2)
        assert rep["status"] == "PASS", (alpha, rep)
    with pytest.raises(InputError):
        verify_cor51(Y2, F(2), [0], BOX1)


def test_n_above_the_bound_is_refused_before_the_subsets(monkeypatch):
    # at radius 0 the box is one point, yet _LevelComplexes would list all
    # 2^n subsets; both entry points refuse n = MAX_N + 1 before building one
    def built(*args):
        raise AssertionError("a _LevelComplexes was built above MAX_N")

    box = TruncationBox.radius(MAX_N + 1, 0)
    model = MonomialModel(MAX_N + 1, [1])
    monkeypatch.setattr(derham, "_LevelComplexes", built)
    with pytest.raises(InputError, match=f"n <= {MAX_N}"):
        gr_dr_psi(model, F(1), 0, box)
    with pytest.raises(InputError, match=f"n <= {MAX_N}"):
        verify_cor51(model, F(1), [0], box)
    monkeypatch.undo()
    small = MonomialModel(MAX_N, [1])
    assert verify_cor51(small, F(1), [0], TruncationBox.radius(MAX_N, 0))["status"] == "PASS"


def test_a_q_refined_table_has_no_json():
    # gr_dr_psi keys its table by (multidegree, q); to_json takes
    # multidegree keys only
    t = gr_dr_psi(Y2, F(1, 2), 0, BOX1)
    assert t.dims == {((1,), 0): 1}
    with pytest.raises(InputError, match="multidegree keys"):
        t.to_json()
    with pytest.raises(InputError):
        GradedDimTable(dims={((0, 1), -1): 2}).to_json()


def test_cor51_three_variables():
    model = MonomialModel(3, [1, 2, 3])
    box = TruncationBox.radius(3, 3)
    for alpha in jump_candidates(model.divisor(), 0, 1):
        rep = verify_cor51(model, alpha, range(0, 3), box)
        assert rep["status"] == "PASS", (alpha, rep)
