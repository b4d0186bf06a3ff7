"""Graded de Rham complexes of nearby cycles in the monomial chart, with the
degenerate-resolution comparison (the resolution is the identity, so derived
pushforwards are literal).

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
index p, one row per point, built in one pass over vfilt.grF_grV_support's
points and gr_label's w there, in box order (so every memo of the call
meets a support's points in box order), the class representative per key
(p, vfilt.lead_key), all that a representative reads of d, and the
differential coordinate per (p, d, k).  verify_cor51 keeps it for every i,
as their Hodge indices overlap.  A support's rows are keyed by their
point's index in the box one step wider, lo - 1 .. hi + 1, which holds
every locus; a row holds the coordinates per k, the point, that index and,
last, the key of its class.  So the target of an edge dy_k, at d - e_k one
Hodge index up, is the row at the index minus stride k, and no point tuple
is sliced or hashed to find it.  A coordinate is a quotient of two integer
coefficients; it is kept in integers, as the reduced pair (num, den) with
den > 0, interned as a small id (0 is the zero coordinate), in the row of
its support point.

A table is a plain dict {(D, q): dim} of the nonzero cohomology
dimensions.  Most complexes of one level repeat an earlier one.  So a table
is built in two passes.  First each term (K, d) is scattered onto its locus
D = d + deg K: it sits at its row's index plus a per-K offset, lands iff a
byte mask of the box marks it there, and the tuple D is built once per
locus.  Then each locus gets a key, the bits of its terms
and the coordinate id of every edge dy_K -> dy_{K+k} whose target term is
present.  The scatter is the only way to a locus's terms: complex_of builds
a complex from its key alone, the bases from the bits and the matrix
entries from the ids (a sign follows from (K, k)), so equal keys give equal
complexes by construction.  Each distinct key is built once, passed to
rationals.cohomology once, and read from a fourth memo after that.  Every
locus still reads its own coordinates, each computed once by _orders_dy.
An id's matrix entry is built once, when it is interned: the int num when
den is 1 (almost every coordinate), else a Fraction, so complex_of builds
no Fraction and the rank works on ints wherever it can.

The comparison target: the multidegree-graded dimensions of
(O(-D_alpha)/O(-D_{>alpha})) (x) Omega^{n-1-i}_{rel}(log E), whose basis is
counted monomially (the window c_alpha <= v, v not >= c_{>alpha} on the
divisor coordinates, wedge symbols a_i dlog y_i of degree 0 and dy_j of
degree e_j).  It is evaluated over a whole box at once, from per-coordinate
byte rows (_quotient_count_grid): the window is one byte per point, and
where the free coordinates hold one point (always when r = n) one
bytes.translate turns it into the counts, with no per-point list.  It is
compared with the table spread over the box in box order (box_list, which
minexp.cor24_check also reads); on a mismatch _cor51_failures scans the
loci, and vfilt._first_failure fails the first or, when none fails, raises.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .rationals import InputError, VerificationError, cohomology, format_rational, wedge
from .vfilt import (
    MAX_N,
    Level,
    TruncationBox,
    _check,
    _check_box,
    _first_failure,
    gr_class_rep,
    grF_grV_support,
)
from .weyl import MonomialModel, _orders_dy


# -- quotient sheaf dimensions -------------------------------------------------

def _rel_symbols(model):
    """a_i dlog y_i for 2 <= i <= r, then dy_j for j > r."""
    return tuple(("L", i) for i in range(2, model.r + 1)) + tuple(
        ("D", j) for j in range(model.r + 1, model.n + 1)
    )


def _quotient_count_grid(lvl: Level, syms, q, box: TruncationBox) -> list:
    """Basis sizes, in box order, of the q-forms twisted by
    O(-D_alpha)/O(-D_{>alpha}): wedges S of q symbols times y^v with
    v = d - deg S >= 0, c_lo <= v and not c_hi <= v on the divisor
    coordinates (c_lo = D_alpha, c_hi = D_{>alpha}).

    Only the dy_j symbols have a degree, and only in the free coordinates
    j > r, so the count at d is the window test on the divisor part of d
    (c_lo >= 1 there, so it also gives v >= 0) times the number of wedges S
    with free(d) - deg S >= 0.  Each test is a conjunction of per-coordinate
    comparisons, so it is tabulated per coordinate as 0/1 bytes; the window
    is lo & ~hi on ints.  With one point over the free coordinates (always
    when r = n) the wedge count is one number, and one bytes.translate of
    the window (0 -> 0, 1 -> the count) fills the box; otherwise each window
    byte picks a row of wedge counts over the free coordinates, and the
    rows are chained.
    """
    r = lvl.model.r
    if q < 0 or q > len(syms):
        return [0] * box.volume()
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    above_lo, above_hi = (
        _all_bytes([[x >= c for x in ax] for ax, c in zip(axes, twist)])
        for twist in (lvl.twist, lvl.deeper.twist)
    )
    window = int.from_bytes(above_lo, "big") & ~int.from_bytes(above_hi, "big")
    wedges = [0] * math.prod(len(ax) for ax in axes[r:])
    for S in itertools.combinations(syms, q):
        shift = [sum(1 for s in S if s == ("D", j + 1)) for j in range(r, len(axes))]
        fits = _all_bytes([[x >= k for x in ax] for ax, k in zip(axes[r:], shift)])
        wedges = list(map(operator.add, wedges, fits))
    inside = window.to_bytes(len(above_lo), "big")
    if len(wedges) == 1:
        return list(inside.translate(bytes((0, wedges[0])) + bytes(254)))
    rows = ([0] * len(wedges), wedges)
    return list(itertools.chain.from_iterable(map(rows.__getitem__, inside)))


def _all_bytes(tables) -> bytes:
    """For one table of booleans per coordinate, whether every coordinate's
    entry holds, at each point of their product, as box-order 0/1 bytes."""
    grid = b"\x01"
    for table in tables:
        rows = (bytes(len(table)), bytes(table))
        grid = b"".join(map(rows.__getitem__, grid))
    return grid


# -- graded de Rham of nearby cycles ------------------------------------------

class _LevelComplexes:
    """The graded de Rham complexes of one Level over one box, read from the
    memos of the module docstring; it lives for one gr_dr_psi or
    verify_cor51 call.  The supports cover the scan box box.lo - 1 ..
    box.hi, which holds every D - deg K with D in the box."""

    def __init__(self, lvl: Level, box: TruncationBox):
        _check_box(lvl.model, box)
        self.lvl = lvl
        self.box = box
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
                        T, sign = wedge(K, k)
                        wedges.append((k, T, 1 << sum(1 << t for t in T), sign))
                deg = tuple(1 if t in K else 0 for t in range(n))
                subsets.append((K, 1 << sum(1 << t for t in K), deg, wedges))
            self.subsets.append(subsets)
        # every locus d + deg K of a scan box point d lies in the box one step
        # wider, lo - 1 .. hi + 1: _wide holds its strides, and _inside marks
        # the points of the box itself, as box-order bytes over the wider box
        self._wide = _strides(TruncationBox(self.scan.lo, tuple(x + 1 for x in box.hi)))
        self._inside = _all_bytes(
            [[lo <= x <= hi for x in range(lo - 1, hi + 2)] for lo, hi in zip(box.lo, box.hi)]
        )
        self._support = {}
        self._reps = {}
        # the coordinates as reduced (num, den) pairs, den > 0, interned as
        # small ids (id 0 is the zero coordinate), and the matrix entry of
        # each id: the int num when den is 1, else the Fraction
        self._ids = {(0, 1): 0}
        self._values = [0]
        self._cohom = {}

    def support(self, p) -> dict:
        """The support of Gr^F_p Gr^V on the scan box, as rows keyed by
        their points' index in the box one step wider, lo - 1 .. hi + 1, by
        that box's strides (so d + deg K sits at that index plus offset K
        there, and d - e_k at the index minus stride k).  A row holds the
        coordinate ids per k (None until computed), the point d, its index,
        then the key (p, vfilt.lead_key) of its class representative, read
        off gr_label's w past d_0 (w_0 = p + n - sum(w), u0_0 = d_0 + w_0).
        Each row is built in the one pass over grF_grV_support's points,
        which are distinct and in box order, so the indices increase and
        keys() meets each support's rows in box order."""
        got = self._support.get(p)
        if got is None:
            n, wide = self.lvl.model.n, self._wide
            base = sum(map(operator.mul, self.scan.lo, wide))
            got = self._support[p] = {}
            for d, w in zip(*grF_grV_support(self.lvl, p, self.scan)):
                w0 = p + n - sum(w)
                at = sum(map(operator.mul, d, wide)) - base
                got[at] = [None] * n + [d, at, (p, (d[0] + w0) if w0 else 0, w)]
        return got

    def rep(self, p, row):
        """The class representative of a row of support(p): one per (p,
        lead key), the row's key, built by gr_class_rep at the first row
        that asks for it.  A support point without a class is a
        VerificationError."""
        key = row[-1]
        got = self._reps.get(key)
        if got is None:
            d = row[-3]
            got = gr_class_rep(self.lvl, p, d)
            if got is None:
                raise VerificationError(
                    f"Gr^F_{p} Gr^V lists degree {list(d)} in its support but has no class there"
                )
            self._reps[key] = got
        return got

    def coordinate(self, p, row, k) -> int:
        """The id of the coordinate of rep(p, row) . dy_k in Gr^F_{p+1} Gr^V
        at d - e_k (d the row's point), a nonzero piece: its top dt-order
        coefficient over the class representative's, reduced in integers.
        row is a row of support(p), which the caller holds; the target's
        row is support(p + 1) at the row's index minus stride k, and each
        representative is read by its row's key.  The id is kept in the
        row."""
        got = row[k]
        if got is None:
            reps, model = self._reps, self.lvl.model
            img = _orders_dy(reps.get(row[-1]) or self.rep(p, row), model, row[-3], k)
            top = p + 1 + model.n
            target = self.support(p + 1)[row[-2] - self._wide[k]]
            num, den = img.get(top, 0), (reps.get(target[-1]) or self.rep(p + 1, target))[top]
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            pair = (num // g, den // g)
            got = self._ids.get(pair)
            if got is None:
                got = self._ids[pair] = len(self._values)
                self._values.append(pair[0] if pair[1] == 1 else Fraction(*pair))
            row[k] = got
        return got

    def keys(self, i) -> dict:
        """The key of the level-(i-n+1) complex at every multidegree D of the
        box where some term is nonzero: the bits of its terms, OR-ed, then,
        term by term in form degree and subset order, the coordinate id of
        every edge dy_K -> dy_{K+k} whose target term is present.  Each term
        (K, row) of the supports is scattered first, by the index its row
        holds (see support): its locus D = d + deg K sits at that index plus
        offset K in the one-step-wider box, it lands iff _inside marks that
        index, and the tuple D is built once per locus.  So the bits are
        complete when the edges are read; an edge reads its id from its
        source row, and computes it only on the first read."""
        n = self.lvl.model.n
        wide, inside = self._wide, self._inside
        loci = {}
        for q, subsets in enumerate(self.subsets):
            p = i + q - 2 * n
            rows = self.support(p).values()
            for _, bit, deg, wedges in subsets:
                offset = sum(map(operator.mul, deg, wide))
                for row in rows:
                    at = row[-2] + offset
                    if inside[at]:
                        got = loci.get(at)
                        if got is None:
                            D = tuple(map(operator.add, row[-3], deg))
                            loci[at] = [D, bit, [(p, row, wedges)]]
                        else:
                            got[1] |= bit
                            got[2].append((p, row, wedges))
        coordinate = self.coordinate
        keys = {}
        for D, mask, terms in loci.values():
            key = [mask]
            for p, row, wedges in terms:
                for k, _, tbit, _ in wedges:
                    if mask & tbit:
                        got = row[k]
                        key.append(coordinate(p, row, k) if got is None else got)
            keys[D] = tuple(key)
        return keys

    def complex_of(self, key):
        """Terms and differential matrices of the complex with this key (see
        keys): bases[q] lists the q-subsets K whose bit the key holds,
        mats[q] the sparse columns of d: term q -> term q+1, whose entries
        are the values of the key's ids, read in the order keys wrote them:
        a plain int where the interned pair's denominator is 1, else a
        Fraction."""
        mask, ids, values = key[0], iter(key[1:]), self._values
        bases = [[K for K, bit, _, _ in subsets if mask & bit] for subsets in self.subsets]
        mats = []
        for subsets, targets in zip(self.subsets, bases[1:]):
            index = {T: idx for idx, T in enumerate(targets)}
            cols = []
            for _, bit, _, wedges in subsets:
                if mask & bit:
                    col = {}
                    for _, T, tbit, sign in wedges:
                        if mask & tbit:
                            coord = next(ids)
                            if coord:
                                # left d/dy_k is the negated right action here
                                col[index[T]] = -sign * values[coord]
                    cols.append(col)
            mats.append(cols)
        return bases, mats

    def table(self, i) -> dict:
        """{(D, q): dim}, the nonzero cohomology dimensions of the
        level-(i-n+1) complexes at every multidegree D of the box where some
        term is nonzero.  Loci with equal keys have equal complexes, so each
        distinct key, over every i of this memo, is built by complex_of and
        passed to rationals.cohomology once."""
        dims = {}
        for D, key in self.keys(i).items():
            cohom = self._cohom.get(key)
            if cohom is None:
                bases, mats = self.complex_of(key)
                cohom = self._cohom[key] = cohomology(list(map(len, bases)), mats)
            for q, dim in cohom.items():
                dims[(D, q)] = dim
        return dims


def _psi_level(model: MonomialModel, alpha) -> Level:
    """The Level of psi_{g,alpha}: alpha in (0, 1] and n <= vfilt.MAX_N,
    checked before a _LevelComplexes lists the 2^n subsets."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must be in (0,1], got {alpha}")
    if model.n > MAX_N:
        raise InputError(f"the de Rham complexes take n <= {MAX_N}, got n = {model.n}")
    return Level(model, alpha)


def gr_dr_psi(model: MonomialModel, alpha, i, box: TruncationBox) -> dict:
    """Cohomology dimensions, per multidegree in the box, of the graded de
    Rham complex with terms Omega^q (x) Gr^F_{i-n+1+q} psi_{g,alpha}, as
    {(multidegree, cohomological degree in -n..0): dim}, zeros left out."""
    return _LevelComplexes(_psi_level(model, alpha), box).table(i)


def _strides(box: TruncationBox) -> list:
    """The box-order strides: D sits at sum(D_k * strides_k) - base, base
    the same sum at box.lo."""
    sizes = [hi - lo + 1 for lo, hi in zip(box.lo, box.hi)]
    return [math.prod(sizes[k + 1 :]) for k in range(len(sizes))]


def box_list(dims: dict, box: TruncationBox) -> list:
    """A table {(D, q): dim}, every D in the box, spread by the box's
    strides into a list in box order, 0 where no entry is."""
    strides = _strides(box)
    base = sum(map(operator.mul, box.lo, strides))
    out = [0] * box.volume()
    for (D, _), dim in dims.items():
        out[sum(map(operator.mul, D, strides)) - base] = dim
    return out


def verify_cor51(model: MonomialModel, alpha, i_range, box: TruncationBox):
    """At the identity resolution: the level-(i-n+1) graded de Rham complex
    of psi_{g,alpha} is concentrated in cohomological degree -i, with
    dimensions equal to the quotient-twisted relative (n-1-i)-forms, per
    multidegree in the box.  The complexes of every i share one memo."""
    lvl = _psi_level(model, alpha)
    alpha, n = lvl.alpha, model.n
    syms = _rel_symbols(model)
    complexes = _LevelComplexes(lvl, box)
    report = {"status": "PASS", "checks": []}
    for i in i_range:
        t = complexes.table(i)
        wants = _quotient_count_grid(lvl, syms, n - 1 - i, box)
        if not (all(q == -i for _, q in t) and box_list(t, box) == wants):
            what = f"cor51: the de Rham table at i = {i} differs from the quotient-forms grid"
            return _first_failure(report, _cor51_failures(i, t, box, wants), what)
        _check(report, "cor51", i=i, alpha=format_rational(alpha), total_dim=sum(t.values()))
    return report


def _cor51_failures(i, t: dict, box: TruncationBox, wants):
    """The failures of one i, scanning locus by locus: the table in sorted
    order against the quotient counts, then every quotient-forms locus
    against the table."""
    at = dict(zip(box, wants))
    for (Dd, q), dim in sorted(t.items()):
        if q != -i:
            yield "cor51-concentration", dict(i=i, degree=list(Dd), cohdeg=q, dim=dim)
        elif dim != at[Dd]:
            yield "cor51-dims", dict(i=i, degree=list(Dd), deRham=dim, quotient_forms=at[Dd])
    # the other containment: every quotient-forms locus shows up (a locus
    # where want is 0 holds no entry of t, by the loop above)
    for d, want in zip(box, wants):
        if want and want != t.get((d, -i), 0):
            yield "cor51-dims", dict(
                i=i, degree=list(d), deRham=t.get((d, -i), 0), quotient_forms=want)
