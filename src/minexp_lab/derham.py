"""Graded de Rham complexes of nearby cycles in the monomial chart, and the
relative-log-form exact sequences, with the degenerate-resolution comparison
(the resolution is the identity, so derived pushforwards are literal).

The level-(i+1-n) graded de Rham complex of psi_{g,alpha} has terms

    Omega^q (x) Gr^F_{i-n+1+q} psi     in cohomological degree q - n,

with the plain (not log) absolute forms dy_K, deg(dy_j) = e_j.  Its
differential on graded pieces is O-linear: dy_K (x) [u] goes to
sum_k (dy_k ^ dy_K) (x) [du/dy_k], the left action being the negated right
action in the B_g^r encoding.  Per multidegree every graded piece of psi is
0- or 1-dimensional with an explicit leading-coefficient coordinate, so the
matrices assemble directly from the right-action kernel _orders_dy applied
to the class representatives.

The complexes of one level over one box share their pieces: the term at
(D, K) is the class at D - deg K, and a matrix entry depends only on its
source class and the variable k.  So one _LevelComplexes per gr_dr_psi or
verify_cor51 call holds three memos: the support of Gr^F_p Gr^V per Hodge
index p (read once from vfilt.grF_grV_support), the class representative per
(p, d) and the differential coordinate per (p, d, k).  verify_cor51 keeps
it for every i, as their Hodge indices overlap.  A coordinate is a quotient
of two integer coefficients; it is kept in integers, as the reduced pair
(num, den) with den > 0, interned as a small id (0 is the zero
coordinate), in a row per support point.

Most complexes of one level repeat an earlier one.  So a table is built in
two passes: each term (K, d) is scattered onto its locus D = d + deg K, and
each locus gets a key, the bits of its terms and the coordinate id of every
edge dy_K -> dy_{K+k} whose target term is present.  Equal ids are equal
coordinates, so the key determines the bases and the matrices entry for
entry (a sign follows from (K, k)); the cohomology is assembled by
complex_at and ranked once per distinct key and read from a fourth memo
after that.  Every locus still reads its own coordinates, each computed
once by _orders_dy, and a Fraction is built only when complex_at assembles
a complex, on a key miss.

The comparison target: the multidegree-graded dimensions of
(O(-D_alpha)/O(-D_{>alpha})) (x) Omega^{n-1-i}_{rel}(log E), whose basis is
counted monomially (the window c_alpha <= v, v not >= c_{>alpha} on the
divisor coordinates, wedge symbols a_i dlog y_i of degree 0 and dy_j of
degree e_j).  It is evaluated over a whole box at once, from per-coordinate
tables (_quotient_count_grid).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .rationals import InputError, exact_rank, format_rational
from .vfilt import (
    GradedDimTable,
    Level,
    TruncationBox,
    _fail,
    gr_class_rep,
    grF_grV_support,
)
from .weyl import MonomialModel, _orders_dy


# -- relative log forms -------------------------------------------------------

def _abs_symbols(model):
    """dlog y_1..dlog y_r then dy_{r+1}..dy_n, as ("L", i) / ("D", j)."""
    return tuple(("L", i) for i in range(1, model.r + 1)) + tuple(
        ("D", j) for j in range(model.r + 1, model.n + 1)
    )


def _rel_symbols(model):
    """a_i dlog y_i for 2 <= i <= r, then dy_j for j > r."""
    return tuple(("L", i) for i in range(2, model.r + 1)) + tuple(
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
            coeff = Fraction(sign)
            for _, c in pick:
                coeff *= c
            T = tuple(sorted(syms, key=dst_symbols.index))
            col[dst_index[T]] = col.get(dst_index[T], Fraction(0)) + coeff
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
            lift[s] = {("L", s[1]): Fraction(a[s[1] - 1])}
        else:
            lift[s] = {("D", s[1]): Fraction(1)}
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
                v = out.get(abs_index[T], Fraction(0)) + sign * a[i - 1] * coeff
                if v:
                    out[abs_index[T]] = v
                else:
                    out.pop(abs_index[T], None)
        wedge_cols.append(out)

    # projection abs -> rel (kills dlog g)
    proj = {}
    for s in abs_syms:
        if s == ("L", 1):
            proj[s] = {("L", k): Fraction(-1, a[0]) for k in range(2, r + 1)}
        elif s[0] == "L":
            proj[s] = {("L", s[1]): Fraction(1, a[s[1] - 1])}
        else:
            proj[s] = {("D", s[1]): Fraction(1)}
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
                v = acc.get(rel_idx, Fraction(0)) + coeff * c2
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


# -- quotient sheaf dimensions -------------------------------------------------

def quotient_dims(model: MonomialModel, alpha, q, relative, box: TruncationBox) -> GradedDimTable:
    """Multidegree dimensions of (O(-D_alpha)/O(-D_{>alpha})) (x) Omega^q of
    the chosen flavor (relative or absolute log forms)."""
    lvl = Level(model, alpha)
    syms = _rel_symbols(model) if relative else _abs_symbols(model)
    table = GradedDimTable(alpha=lvl.alpha)
    for d, count in zip(box, _quotient_count_grid(lvl, syms, q, box)):
        table.set(d, count)
    return table


def _quotient_count_grid(lvl: Level, syms, q, box: TruncationBox) -> list:
    """Basis sizes, in box order, of the q-forms twisted by
    O(-D_alpha)/O(-D_{>alpha}): wedges S of q symbols times y^v with
    v = d - deg S >= 0, c_lo <= v and not c_hi <= v on the divisor
    coordinates (c_lo = D_alpha, c_hi = D_{>alpha}).

    Only the dy_j symbols have a degree, and only in the free coordinates
    j > r, so the count at d is the window test on the divisor part of d
    (c_lo >= 1 there, so it also gives v >= 0) times the number of wedges S
    with free(d) - deg S >= 0.  Each test is a conjunction of per-coordinate
    comparisons, so it is tabulated per coordinate (_all_grid).
    """
    r = lvl.model.r
    if q < 0 or q > len(syms):
        return [0] * box.volume()
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    above_lo, above_hi = (
        _all_grid([[x >= c for x in ax] for ax, c in zip(axes, twist)])
        for twist in (lvl.twist, lvl.deeper.twist)
    )
    wedges = [0] * math.prod(len(ax) for ax in axes[r:])
    for S in itertools.combinations(syms, q):
        shift = [sum(1 for s in S if s == ("D", j + 1)) for j in range(r, len(axes))]
        fits = _all_grid([[x >= k for x in ax] for ax, k in zip(axes[r:], shift)])
        wedges = [count + fit for count, fit in zip(wedges, fits)]
    window = [lo and not hi for lo, hi in zip(above_lo, above_hi)]
    return [count if inside else 0 for inside in window for count in wedges]


def _all_grid(tables) -> list:
    """For one table of booleans per coordinate, whether every coordinate's
    entry holds, at each point of their product, in box order."""
    grid = [True]
    for table in tables:
        grid = [g and t for g in grid for t in table]
    return grid


# -- graded de Rham of nearby cycles ------------------------------------------

class _LevelComplexes:
    """The graded de Rham complexes of one Level over one box, read from the
    memos of the module docstring; it lives for one gr_dr_psi or
    verify_cor51 call.  The supports cover the scan box box.lo - 1 ..
    box.hi, which holds every D - deg K with D in the box."""

    def __init__(self, lvl: Level, box: TruncationBox):
        self.lvl = lvl
        self.points = set(box)
        self.scan = TruncationBox(tuple(x - 1 for x in box.lo), box.hi)
        n = lvl.model.n
        # per form degree q: (K, bit(K), deg K, [(k, K + k, bit(K + k), sign
        # of dy_k ^ dy_K)]), where bit(K) = 1 << (K as a mask over range(n))
        self.subsets = []
        for q in range(n + 1):
            subsets = []
            for K in itertools.combinations(range(n), q):
                wedges = []
                for k in range(n):
                    if k not in K:
                        T = tuple(sorted(K + (k,)))
                        sign = (-1) ** sum(1 for kk in K if kk < k)
                        wedges.append((k, T, 1 << sum(1 << t for t in T), sign))
                deg = tuple(1 if t in K else 0 for t in range(n))
                subsets.append((K, 1 << sum(1 << t for t in K), deg, wedges))
            self.subsets.append(subsets)
        self._support = {}
        self._reps = {}
        # the coordinates as reduced (num, den) pairs, den > 0, interned as
        # small ids; id 0 is the zero coordinate
        self._ids = {(0, 1): 0}
        self._pairs = [(0, 1)]
        self._cohom = {}

    def support(self, p) -> dict:
        """The support of Gr^F_p Gr^V on the scan box, each point d mapped
        to its row of coordinate ids per k (None until computed).  The
        points are listed in the order of a set of them: keys() meets the
        loci in that order, and a memo keyed more coarsely than by the
        complex (a planted fault in the tests) reuses the complex of the
        first locus it meets."""
        got = self._support.get(p)
        if got is None:
            n = self.lvl.model.n
            points = set(grF_grV_support(self.lvl, p, self.scan))
            got = self._support[p] = {d: [None] * n for d in points}
        return got

    def rep(self, p, d):
        key = (p, d)
        got = self._reps.get(key)
        if got is None:
            got = self._reps[key] = gr_class_rep(self.lvl, p, d)
        return got

    def coordinate(self, p, d, k) -> int:
        """The id of the coordinate of rep(p, d) . dy_k in Gr^F_{p+1} Gr^V
        at d - e_k, a nonzero piece: its top dt-order coefficient over the
        class representative's (as in vfilt.gr_coordinate), reduced in
        integers.  d lies in support(p); the id is kept in d's row."""
        row = self.support(p)[d]
        got = row[k]
        if got is None:
            img = _orders_dy(self.rep(p, d), self.lvl.model, d, k)
            top = p + 1 + self.lvl.model.n
            target = d[:k] + (d[k] - 1,) + d[k + 1 :]
            num, den = img.get(top, 0), self.rep(p + 1, target)[top]
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            pair = (num // g, den // g)
            got = self._ids.get(pair)
            if got is None:
                got = self._ids[pair] = len(self._pairs)
                self._pairs.append(pair)
            row[k] = got
        return got

    def complex_at(self, i, D):
        """Terms and differential matrices of the multidegree-D piece of the
        level-(i-n+1) complex: bases[q] lists the q-subsets K of the term of
        form degree q, mats[q] the sparse columns of d: term q -> term q+1."""
        n = self.lvl.model.n
        bases, sources = [], []
        for q, subsets in enumerate(self.subsets):
            support = self.support(i + q - 2 * n)
            basis, source = [], []
            for K, _, deg, wedges in subsets:
                d = tuple(map(operator.sub, D, deg))
                if d in support:
                    basis.append(K)
                    source.append((d, wedges))
            bases.append(basis)
            sources.append(source)
        mats = []
        for q in range(n):
            p = i + q - 2 * n
            tgt_index = {K: idx for idx, K in enumerate(bases[q + 1])}
            cols = []
            for d, wedges in sources[q]:
                col = {}
                for k, T, _, sign in wedges:
                    idx = tgt_index.get(T)
                    if idx is not None:
                        coord = self.coordinate(p, d, k)
                        if coord:
                            # left d/dy_k is the negated right action here
                            col[idx] = -sign * Fraction(*self._pairs[coord])
                cols.append(col)
            mats.append(cols)
        return bases, mats

    def keys(self, i) -> dict:
        """The key of the level-(i-n+1) complex at every multidegree D of the
        box where some term is nonzero: the bits of its terms, OR-ed, then
        the coordinate id of every edge whose target term is present, in
        complex_at's order.  Each term (K, d) of the supports is scattered
        onto D = d + deg K first, so the bits are complete when the edges
        are read; an edge reads its id from the row of d, and computes it
        only on the first read."""
        n = self.lvl.model.n
        points = self.points
        loci = {}
        for q, subsets in enumerate(self.subsets):
            p = i + q - 2 * n
            support = self.support(p).items()
            for _, bit, deg, wedges in subsets:
                for d, row in support:
                    D = tuple(map(operator.add, d, deg))
                    if D in points:
                        got = loci.get(D)
                        if got is None:
                            loci[D] = [bit, [(p, d, row, wedges)]]
                        else:
                            got[0] |= bit
                            got[1].append((p, d, row, wedges))
        coordinate = self.coordinate
        keys = {}
        for D, (mask, terms) in loci.items():
            key = [mask]
            for p, d, row, wedges in terms:
                for k, _, tbit, _ in wedges:
                    if mask & tbit:
                        got = row[k]
                        key.append(coordinate(p, d, k) if got is None else got)
            keys[D] = tuple(key)
        return keys

    def table(self, i) -> GradedDimTable:
        """Cohomology dimensions of the level-(i-n+1) complexes at every
        multidegree of the box where some term is nonzero.  Loci with equal
        keys have equal complexes, so only the first locus of a key, over
        every i of this memo, is assembled and ranked."""
        n = self.lvl.model.n
        table = GradedDimTable(alpha=self.lvl.alpha)
        dims = table.dims
        for D, key in self.keys(i).items():
            cohom = self._cohom.get(key)
            if cohom is None:
                bases, mats = self.complex_at(i, D)
                # padded: the maps into and out of term q have ranks[q], ranks[q + 1]
                ranks = [0] + [exact_rank(cols) for cols in mats] + [0]
                h = [len(basis) - ranks[q] - ranks[q + 1] for q, basis in enumerate(bases)]
                cohom = self._cohom[key] = [(q - n, dim) for q, dim in enumerate(h) if dim]
            for q, dim in cohom:
                dims[(D, q)] = dim
        return table


def gr_dr_psi(model: MonomialModel, alpha, i, box: TruncationBox) -> GradedDimTable:
    """Cohomology dimensions, per multidegree in the box, of the graded de
    Rham complex with terms Omega^q (x) Gr^F_{i-n+1+q} psi_{g,alpha}; keys
    are (multidegree, cohomological degree in -n..0)."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must be in (0,1], got {alpha}")
    return _LevelComplexes(Level(model, alpha), box).table(i)


def verify_cor51(model: MonomialModel, alpha, i_range, box: TruncationBox):
    """At the identity resolution: the level-(i-n+1) graded de Rham complex
    of psi_{g,alpha} is concentrated in cohomological degree -i, with
    dimensions equal to the quotient-twisted relative (n-1-i)-forms, per
    multidegree in the box.  The complexes of every i share one memo."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must be in (0,1], got {alpha}")
    lvl = Level(model, alpha)
    n = model.n
    syms = _rel_symbols(model)
    complexes = _LevelComplexes(lvl, box)
    report = {"status": "PASS", "checks": []}
    for i in i_range:
        t = complexes.table(i)
        wants = _quotient_count_grid(lvl, syms, n - 1 - i, box)
        if not (all(q == -i for _, q in t.dims) and _box_list(t.dims, box) == wants):
            return _cor51_failure(report, i, t, box, wants)
        report["checks"].append(
            {
                "name": "cor51",
                "status": "PASS",
                "i": i,
                "alpha": format_rational(alpha),
                "total_dim": sum(t.dims.values()),
            }
        )
    return report


def _box_list(dims, box: TruncationBox) -> list:
    """The dims {(D, q): dim}, every D in the box, spread by the box's
    strides into a list in box order, 0 where no entry is."""
    strides, step = [], 1
    for lo, hi in zip(reversed(box.lo), reversed(box.hi)):
        strides.append(step)
        step *= hi - lo + 1
    strides.reverse()
    base = sum(map(operator.mul, box.lo, strides))
    out = [0] * step
    for (D, _), dim in dims.items():
        out[sum(map(operator.mul, D, strides)) - base] = dim
    return out


def _cor51_failure(report, i, t: GradedDimTable, box: TruncationBox, wants):
    """The first failure of one i, scanning locus by locus: the table in
    sorted order against the quotient counts, then every quotient-forms
    locus against the table."""
    at = dict(zip(box, wants))
    for (Dd, q), dim in sorted(t.dims.items()):
        if q != -i:
            return _fail(report, "cor51-concentration", i=i, degree=list(Dd), cohdeg=q, dim=dim)
        if dim != at[Dd]:
            return _fail(
                report, "cor51-dims", i=i, degree=list(Dd), deRham=dim, quotient_forms=at[Dd]
            )
    # the other containment: every quotient-forms locus shows up (a locus
    # where want is 0 holds no entry of t, by the loop above)
    for d, want in zip(box, wants):
        if want and want != t.get((d, -i)):
            return _fail(
                report, "cor51-dims", i=i, degree=list(d), deRham=t.get((d, -i)),
                quotient_forms=want,
            )
    raise AssertionError("the list compare failed where the scan finds no failure")
